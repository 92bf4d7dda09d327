//! Federated fleet scheduling: campaign swarms placed across facilities.
//!
//! The paper's end-state is not a flat thread pool — it is *federated
//! autonomous science*: swarms of concurrent campaigns placed across
//! heterogeneous facilities (HPC batch queues, data fabrics, streaming
//! instruments), each retaining operational autonomy (§5.1, Figure 3).
//! This module closes that loop by routing a [`FleetConfig`]'s campaigns
//! through a [`Federation`]:
//!
//! 1. **Placement.** The configured [`PlacementPolicyKind`] assigns each
//!    campaign — in shard order, at a staggered arrival time — to one
//!    facility. Three policies ship:
//!    [`PlacementPolicyKind::RoundRobin`] (capacity-aware
//!    rotation), [`PlacementPolicyKind::LeastWait`] (queue-aware: asks
//!    every facility when the job *would* start, from a projection of its
//!    [`BatchScheduler`] that each submission is spliced into, and picks
//!    the earliest), and [`PlacementPolicyKind::DataLocality`]
//!    (minimises inter-site movement of the campaign's input data over
//!    the federation's data fabric).
//! 2. **Charging.** The chosen facility's batch scheduler is charged the
//!    job ([`BatchScheduler::submit`] / `advance_to`), accruing simulated
//!    queue wait; the campaign's input data is moved from its home site
//!    over [`Federation::transfer`], accruing fabric bytes.
//! 3. **Outage re-routing.** A seeded
//!    [`FacilityOutage`] — derived from the
//!    dedicated chaos stream, like every other disturbance — drains one
//!    facility mid-run: running jobs complete, and every job still queued
//!    there is re-routed through the same placement policy to the
//!    surviving facilities (with a data-evacuation transfer).
//! 4. **Aggregation.** Everything folds into a [`FederatedReport`]:
//!    per-facility utilization and mean queue wait, fabric traffic,
//!    placement records, and the fleet's existing [`FleetReport`].
//!
//! **Determinism.** Placement is a serial pure function of the
//! [`FederatedConfig`] — it never reads the fleet's results, so it runs
//! on a thread of its own beside the fleet — and campaign execution
//! reuses the fleet executor's thread-invariant machinery, so a
//! [`FederatedReport`] is **byte-identical at any thread count**. The
//! same holds across a crash: [`run_campaign_fleet_federated_until`]
//! kills the coordinator after N commits and
//! [`resume_campaign_fleet_federated`] reproduces the uninterrupted
//! report exactly (the [`FederatedCheckpoint`] carries a placement
//! signature so a checkpoint can never be resumed against a drifted
//! federation).
//!
//! ```
//! use evoflow_core::{
//!     run_campaign_fleet_federated, Cell, FederatedConfig, FleetConfig, MaterialsSpace,
//!     PlacementPolicyKind,
//! };
//! use evoflow_sim::SimDuration;
//!
//! let space = MaterialsSpace::generate(3, 8, 42);
//! let mut fleet = FleetConfig::new(7);
//! fleet.horizon = SimDuration::from_days(1);
//! fleet.push_cell(Cell::autonomous_science(), 2);
//! fleet.push_cell(Cell::traditional_wms(), 2);
//!
//! let cfg = FederatedConfig::standard(fleet, PlacementPolicyKind::LeastWait);
//! let report = run_campaign_fleet_federated(&space, &cfg).expect("capacity exists");
//! assert_eq!(report.placements.len(), 4);
//! assert_eq!(report.facilities.len(), 5);
//! assert!(report.makespan_hours > 0.0);
//! ```

use crate::campaign::CampaignConfig;
use crate::domain::MaterialsSpace;
use crate::federation::Federation;
use crate::fleet::{
    resume_campaign_fleet, run_campaign_fleet, run_campaign_fleet_recorded,
    run_campaign_fleet_until, FleetCheckpoint, FleetConfig, FleetReport, FleetResumeError,
};
use crate::ledger::{CampaignEvent, FleetLedger};
use evoflow_agents::Pattern;
use evoflow_facility::{presets, BatchScheduler, Facility, FacilityKind, JobId, StartProjection};
use evoflow_sim::{fnv1a, FacilityOutage, RngRegistry, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// The built-in placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicyKind {
    /// Rotate over capacity-feasible facilities in site order.
    RoundRobin,
    /// Queue-aware: ask each facility when the job would start (from a
    /// projection of its batch queue, kept current by splicing in each
    /// job the facility accepts) and pick the earliest; site order breaks
    /// ties.
    LeastWait,
    /// Minimise inter-site data movement: place nearest (in transfer
    /// time) to the campaign's data home; the estimated queue start
    /// breaks ties, so two equally-near sites still prefer the emptier
    /// queue.
    DataLocality,
}

impl PlacementPolicyKind {
    /// All built-in policies.
    pub fn all() -> [PlacementPolicyKind; 3] {
        [
            PlacementPolicyKind::RoundRobin,
            PlacementPolicyKind::LeastWait,
            PlacementPolicyKind::DataLocality,
        ]
    }

    /// Stable label (used in reports and checkpoint signatures).
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicyKind::RoundRobin => "round-robin",
            PlacementPolicyKind::LeastWait => "least-wait",
            PlacementPolicyKind::DataLocality => "data-locality",
        }
    }
}

/// One facility's compute contribution to the federation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Facility name (unique in the federation).
    pub name: String,
    /// Facility class (Figure 3).
    pub kind: FacilityKind,
    /// Batch-schedulable nodes the facility contributes.
    pub nodes: u64,
}

impl SiteSpec {
    /// A site with its kind's default node count
    /// ([`FacilityKind::default_nodes`]).
    pub fn new(name: impl Into<String>, kind: FacilityKind) -> Self {
        SiteSpec {
            name: name.into(),
            kind,
            nodes: kind.default_nodes(),
        }
    }

    /// Override the node count (builder-style).
    pub fn with_nodes(mut self, nodes: u64) -> Self {
        self.nodes = nodes;
        self
    }
}

/// Configuration of a federated fleet run: the fleet itself, the
/// federation's sites, the placement policy, and the (optional, seeded)
/// facility outage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedConfig {
    /// The campaigns to run (threads field does not affect any report).
    pub fleet: FleetConfig,
    /// Placement policy.
    pub policy: PlacementPolicyKind,
    /// Facilities in the federation, in site-index order.
    pub sites: Vec<SiteSpec>,
    /// Simulated gap between successive campaign arrivals.
    pub inter_arrival: SimDuration,
    /// Seed for the [`FacilityOutage`] injection; `None` runs outage-free.
    pub outage_seed: Option<u64>,
}

impl FederatedConfig {
    /// A federation over explicit sites with 30-minute arrival spacing
    /// and no outage.
    pub fn new(fleet: FleetConfig, policy: PlacementPolicyKind, sites: Vec<SiteSpec>) -> Self {
        FederatedConfig {
            fleet,
            policy,
            sites,
            inter_arrival: SimDuration::from_mins(30),
            outage_seed: None,
        }
    }

    /// The standard five-facility federation of Figure 3 (which also gets
    /// the Figure 3 fabric, with its 400 Gbps AI-hub links).
    pub fn standard(fleet: FleetConfig, policy: PlacementPolicyKind) -> Self {
        let sites = presets::standard_federation()
            .iter()
            .map(|f| SiteSpec::new(f.name.clone(), f.kind))
            .collect();
        Self::new(fleet, policy, sites)
    }

    /// Enable the seeded facility outage (builder-style).
    pub fn with_outage_seed(mut self, seed: u64) -> Self {
        self.outage_seed = Some(seed);
        self
    }

    /// The derived outage this config will inject, if any. Pure function
    /// of `(outage_seed, sites, campaigns)`.
    pub fn outage(&self) -> Option<FacilityOutage> {
        let seed = self.outage_seed?;
        FacilityOutage::derive(
            &RngRegistry::new(seed),
            self.sites.len(),
            self.fleet.campaigns.len(),
        )
    }

    /// Arrival time of campaign `index` at the federation.
    fn arrival(&self, index: usize) -> SimTime {
        SimTime::ZERO + self.inter_arrival.saturating_mul(index as u64)
    }

    /// A stable signature of everything placement depends on: policy,
    /// sites, arrival spacing, outage seed, master seed, and every
    /// campaign's demand. Two configs with equal signatures place
    /// identically; a [`FederatedCheckpoint`] refuses to resume against a
    /// different signature.
    pub fn placement_signature(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(self.policy.label().as_bytes());
        for s in &self.sites {
            bytes.extend_from_slice(s.name.as_bytes());
            bytes.extend_from_slice(&s.nodes.to_le_bytes());
            bytes.extend_from_slice(format!("{:?}", s.kind).as_bytes());
        }
        bytes.extend_from_slice(&self.inter_arrival.as_nanos().to_le_bytes());
        bytes.extend_from_slice(&self.outage_seed.unwrap_or(u64::MAX).to_le_bytes());
        bytes.extend_from_slice(&u64::from(self.outage_seed.is_some()).to_le_bytes());
        bytes.extend_from_slice(&self.fleet.master_seed.to_le_bytes());
        for (i, c) in self.fleet.campaigns.iter().enumerate() {
            let d = campaign_demand(i, c, self.sites.len());
            bytes.extend_from_slice(&d.nodes.to_le_bytes());
            bytes.extend_from_slice(&d.walltime.as_nanos().to_le_bytes());
            bytes.extend_from_slice(&d.input_gb.to_bits().to_le_bytes());
            bytes.extend_from_slice(&(d.data_home as u64).to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// A campaign's resource demand on the federation — a pure function of
/// its config, so placement replays identically on resume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignDemand {
    /// Nodes the campaign's batch job requests.
    pub nodes: u64,
    /// Requested walltime.
    pub walltime: SimDuration,
    /// Input data to stage to the chosen facility, in gigabytes.
    pub input_gb: f64,
    /// Site index where the campaign's input data lives.
    pub data_home: usize,
}

/// Derive campaign `index`'s demand: wider compositions request more
/// nodes, higher intelligence levels request longer walltimes (their
/// decide steps are costlier), and input data homes rotate over the
/// federation's sites.
pub fn campaign_demand(index: usize, cfg: &CampaignConfig, sites: usize) -> CampaignDemand {
    let nodes = match cfg.cell.composition {
        Pattern::Single => 4,
        Pattern::Pipeline => 8,
        Pattern::Hierarchical => 16,
        Pattern::Mesh => 24,
        Pattern::Swarm { k } => (8 * k as u64).max(8),
    };
    let rank = cfg.cell.intelligence.rank() as u64;
    CampaignDemand {
        nodes,
        walltime: SimDuration::from_hours(1 + rank),
        input_gb: cfg.batch_per_lane as f64 * 2.0 * (rank + 1) as f64,
        data_home: if sites == 0 { 0 } else { index % sites },
    }
}

/// A facility's live placement state.
struct Site {
    spec: SiteSpec,
    /// Its batch scheduler (already advanced to the current arrival).
    scheduler: BatchScheduler,
    /// Whether the site has been drained by an outage.
    down: bool,
    bytes_in: u128,
    job_owner: BTreeMap<JobId, usize>,
    rerouted_away: usize,
    /// `scheduler`'s start projection: built by the first query, spliced
    /// on every submission, dropped when an outage drains the queue.
    projection: OnceCell<StartProjection>,
}

impl Site {
    fn new(spec: &SiteSpec) -> Self {
        Site {
            spec: spec.clone(),
            scheduler: BatchScheduler::new(spec.nodes),
            down: false,
            bytes_in: 0,
            job_owner: BTreeMap::new(),
            rerouted_away: 0,
            projection: OnceCell::new(),
        }
    }

    /// When a job of `demand` arriving at `at` would start here:
    /// [`BatchScheduler::estimate_start`], answered from the site's
    /// projection, so probing every site for every placement re-simulates
    /// only the part of a queue that a submission changed, never the
    /// whole queue per probe.
    fn estimate_start(&self, demand: &CampaignDemand, at: SimTime) -> Option<SimTime> {
        let start = self
            .projection
            .get_or_init(|| self.scheduler.projection())
            .estimate_start(demand.nodes, demand.walltime, at);
        debug_assert_eq!(
            start,
            self.scheduler
                .estimate_start(demand.nodes, demand.walltime, at),
            "stale start projection at {}",
            self.spec.name
        );
        start
    }

    /// Submit `demand`'s batch job at `at`, splicing it into the
    /// projection if one is built.
    fn submit(&mut self, demand: &CampaignDemand, at: SimTime) -> JobId {
        let id = self.scheduler.submit(demand.nodes, demand.walltime, at);
        if let Some(projection) = self.projection.get_mut() {
            projection.splice(&self.scheduler, demand.nodes, demand.walltime, at);
        }
        id
    }

    /// Drop the projection; call after every change to `scheduler` other
    /// than [`Site::submit`].
    fn scheduler_changed(&mut self) {
        self.projection.take();
    }
}

/// One campaign's placement outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRecord {
    /// Campaign (shard) index.
    pub campaign: usize,
    /// Facility the campaign's job ultimately ran at.
    pub facility: String,
    /// Nodes requested.
    pub nodes: u64,
    /// Requested walltime, hours.
    pub walltime_hours: f64,
    /// Arrival at the federation, hours since epoch.
    pub arrival_hours: f64,
    /// When the batch job started, hours since epoch.
    pub start_hours: f64,
    /// Queue wait (start − federation arrival), hours. For re-routed
    /// campaigns this includes the time stranded in the drained site's
    /// queue, so `start_hours == arrival_hours + wait_hours` always.
    pub wait_hours: f64,
    /// Site the input data was staged from.
    pub data_home: String,
    /// Fabric transfer time for the input staging, seconds (includes the
    /// evacuation transfer when the campaign was re-routed).
    pub transfer_secs: f64,
    /// Whether an outage forced a re-route off the original facility.
    pub rerouted: bool,
}

/// Per-facility aggregate of a federated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FacilityUsage {
    /// Facility name.
    pub name: String,
    /// Nodes the facility contributed.
    pub nodes: u64,
    /// Jobs that ran to completion here.
    pub jobs: usize,
    /// Node-hours of completed work.
    pub node_hours: f64,
    /// `node_hours / (nodes × makespan)` — fraction of the federation's
    /// wall-clock this facility's nodes spent busy (0 when it ran
    /// nothing).
    pub utilization: f64,
    /// Mean queue wait over this facility's completed jobs, hours —
    /// local to this facility's queue (time stranded at a drained site
    /// before re-routing is charged to the federation-level mean, not
    /// here).
    pub mean_wait_hours: f64,
    /// Input bytes staged to this facility over the fabric.
    pub bytes_in: u128,
    /// Whether the facility was drained by the outage.
    pub down: bool,
    /// Queued campaigns the outage re-routed away from this facility.
    pub rerouted_away: usize,
}

/// The aggregate outcome of a federated fleet run. A pure function of
/// `(space, FederatedConfig minus threads)` — byte-identical at any
/// thread count and across a checkpoint/resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedReport {
    /// Master seed of the underlying fleet.
    pub master_seed: u64,
    /// Placement policy label.
    pub policy: String,
    /// Per-facility aggregates, in site-index order.
    pub facilities: Vec<FacilityUsage>,
    /// Per-campaign placements, in shard order.
    pub placements: Vec<PlacementRecord>,
    /// The injected outage, if one was configured.
    pub outage: Option<FacilityOutage>,
    /// Fabric transfers performed (staging + evacuations).
    pub transfers: u64,
    /// Fabric bytes moved.
    pub bytes_moved: u128,
    /// Mean queue wait across all placed campaigns, hours — measured
    /// from federation arrival to batch-job start, so re-routed
    /// campaigns' stranded time counts.
    pub mean_wait_hours: f64,
    /// Federation makespan: last arrival to last batch-job completion,
    /// hours since epoch.
    pub makespan_hours: f64,
    /// The fleet's scientific outcome (unchanged by placement: placement
    /// charges time and movement, never rewrites results).
    pub fleet: FleetReport,
    /// The federation-level event stream, in placement order: every
    /// placement, fabric transfer, and outage drain as
    /// [`CampaignEvent`]s — the same vocabulary campaign ledgers use, so
    /// one audit pipeline reads all three layers. Absent from
    /// pre-ledger reports, which decode as empty.
    #[serde(default)]
    pub events: Vec<CampaignEvent>,
}

/// Why a federated run could not place its campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederatedError {
    /// The federation has no sites at all.
    EmptyFederation,
    /// Two sites share a name — the data fabric dedupes sites by name,
    /// so duplicate names would silently merge two facilities' transfer
    /// accounting.
    DuplicateSite(String),
    /// No live facility can ever satisfy a campaign's node demand —
    /// either from the start (zero-capacity federation) or after an
    /// outage drained the only feasible site.
    NoCapacity {
        /// Campaign that could not be placed.
        campaign: usize,
        /// Nodes it asked for.
        nodes: u64,
    },
}

impl std::fmt::Display for FederatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederatedError::EmptyFederation => write!(f, "federation has no sites"),
            FederatedError::DuplicateSite(name) => {
                write!(f, "duplicate site name {name:?} in the federation")
            }
            FederatedError::NoCapacity { campaign, nodes } => write!(
                f,
                "no live facility can host campaign {campaign} ({nodes} nodes requested)"
            ),
        }
    }
}

impl std::error::Error for FederatedError {}

/// Why a federated resume was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum FederatedResumeError {
    /// The checkpoint's placement signature does not match the config —
    /// the federation (sites, policy, arrivals, outage, demands) drifted.
    PlacementMismatch {
        /// Signature stored in the checkpoint.
        checkpoint: u64,
        /// Signature derived from the resuming config.
        config: u64,
    },
    /// The underlying fleet checkpoint refused to resume.
    Fleet(FleetResumeError),
    /// Placement itself failed (the config cannot place its campaigns).
    Placement(FederatedError),
}

impl std::fmt::Display for FederatedResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederatedResumeError::PlacementMismatch { checkpoint, config } => write!(
                f,
                "placement signature mismatch: checkpoint {checkpoint:#x}, config {config:#x}"
            ),
            FederatedResumeError::Fleet(e) => write!(f, "fleet resume refused: {e}"),
            FederatedResumeError::Placement(e) => write!(f, "placement failed: {e}"),
        }
    }
}

impl std::error::Error for FederatedResumeError {}

/// A durable record of a partially executed federated fleet: the fleet
/// checkpoint (which campaigns committed) plus the placement signature
/// binding it to one exact federation.
///
/// Placement is cheap and pure, so it is *recomputed* on resume rather
/// than persisted — the signature guarantees the recomputation matches
/// what the interrupted run saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedCheckpoint {
    /// [`FederatedConfig::placement_signature`] of the interrupted run.
    pub placement_signature: u64,
    /// The underlying fleet checkpoint.
    pub fleet: FleetCheckpoint,
}

/// Everything the placement pass produces (before fleet execution).
struct PlacementOutcome {
    records: Vec<PlacementRecord>,
    facilities: Vec<FacilityUsage>,
    outage: Option<FacilityOutage>,
    transfers: u64,
    bytes_moved: u128,
    mean_wait_hours: f64,
    makespan_hours: f64,
    events: Vec<CampaignEvent>,
}

/// Mutable state of the placement pass: the policy, live sites, the
/// federation (fabric accounting), per-campaign demands and accumulators.
///
/// Placement is a pure function of this state — never of wall-clock time
/// or thread identity — so federated reports stay byte-identical at any
/// parallelism.
struct PlacementState {
    policy: PlacementPolicyKind,
    /// Round-robin's rotation over the candidate list.
    cursor: usize,
    sites: Vec<Site>,
    federation: Federation,
    demands: Vec<CampaignDemand>,
    placed_site: Vec<usize>,
    transfer_secs: Vec<f64>,
    rerouted: Vec<bool>,
    events: Vec<CampaignEvent>,
}

impl PlacementState {
    /// Place one campaign: pick among live, capacity-feasible sites under
    /// the policy, submit the batch job, stage the input data over the
    /// fabric from `data_from` (the campaign's home site, or the drained
    /// facility on an evacuation re-route). Emits the placement (and any
    /// transfer) into the federation's event stream.
    fn place_one(
        &mut self,
        campaign: usize,
        arrival: SimTime,
        data_from: &str,
        evacuation: bool,
    ) -> Result<(), FederatedError> {
        let demand = self.demands[campaign];
        let candidates: Vec<usize> = (0..self.sites.len())
            .filter(|&i| !self.sites[i].down && self.sites[i].spec.nodes >= demand.nodes)
            .collect();
        if candidates.is_empty() {
            return Err(FederatedError::NoCapacity {
                campaign,
                nodes: demand.nodes,
            });
        }
        const NON_EMPTY: &str = "place_one refuses NoCapacity before a policy sees an empty list";
        let sites = &self.sites;
        let start = |i: usize| {
            sites[i]
                .estimate_start(&demand, arrival)
                .map_or(u64::MAX, SimTime::as_nanos)
        };
        let chosen = match self.policy {
            PlacementPolicyKind::RoundRobin => {
                let pick = candidates[self.cursor % candidates.len()];
                self.cursor += 1;
                pick
            }
            PlacementPolicyKind::LeastWait => candidates
                .iter()
                .copied()
                .min_by_key(|&i| start(i))
                .expect(NON_EMPTY),
            PlacementPolicyKind::DataLocality => candidates
                .iter()
                .copied()
                .min_by_key(|&i| {
                    let move_nanos = self
                        .federation
                        .estimate_transfer(data_from, &sites[i].spec.name, demand.input_gb)
                        .map_or(u64::MAX, |p| p.duration.as_nanos());
                    (move_nanos, start(i))
                })
                .expect(NON_EMPTY),
        };
        let site = &mut self.sites[chosen];
        let id = site.submit(&demand, arrival);
        site.job_owner.insert(id, campaign);
        let dest = site.spec.name.clone();
        self.events.push(CampaignEvent::CampaignPlaced {
            campaign,
            facility: dest.clone().into(),
            nodes: demand.nodes,
            arrival,
            evacuation,
        });
        if dest != data_from {
            let plan = self
                .federation
                .transfer(data_from, &dest, demand.input_gb)
                .expect(
                    "the fabric connects every configured site: Federation::assemble chains \
                     them and the Figure 3 fabric links all five presets",
                );
            self.transfer_secs[campaign] += plan.duration.as_secs_f64();
            self.sites[chosen].bytes_in += (demand.input_gb * 1e9) as u128;
            self.events.push(CampaignEvent::DataTransferred {
                campaign,
                from: data_from.to_string().into(),
                to: dest.into(),
                gigabytes: demand.input_gb,
                duration: plan.duration,
                evacuation,
            });
        }
        self.placed_site[campaign] = chosen;
        Ok(())
    }

    /// Drain site `s` at `at` (the outage): running jobs complete, every
    /// queued job is re-routed through the policy to the survivors, with
    /// a data-evacuation transfer off the drained facility.
    fn drain_site(&mut self, s: usize, at: SimTime) -> Result<(), FederatedError> {
        if self.sites[s].down {
            return Ok(());
        }
        let site = &mut self.sites[s];
        site.down = true;
        site.scheduler.advance_to(at);
        let orphans = site.scheduler.drain_queued();
        site.scheduler_changed();
        site.rerouted_away = orphans.len();
        let from = self.sites[s].spec.name.clone();
        self.events.push(CampaignEvent::OutageStruck {
            site: from.clone().into(),
            at,
            rerouted: orphans.len(),
        });
        for job in orphans {
            let campaign = *self.sites[s]
                .job_owner
                .get(&job.id)
                .expect("every queued job was submitted by place_one");
            self.rerouted[campaign] = true;
            self.place_one(campaign, at, &from, true)?;
        }
        Ok(())
    }
}

/// Refuse a site list no placement can use: an empty one, or one that
/// names a site twice.
fn check_sites(sites: &[SiteSpec]) -> Result<(), FederatedError> {
    if sites.is_empty() {
        return Err(FederatedError::EmptyFederation);
    }
    let mut names = std::collections::BTreeSet::new();
    for s in sites {
        if !names.insert(s.name.as_str()) {
            return Err(FederatedError::DuplicateSite(s.name.clone()));
        }
    }
    Ok(())
}

/// The serial placement simulation. Pure function of the config; never
/// sees threads, wall-clock, or campaign results.
fn place_fleet(cfg: &FederatedConfig) -> Result<PlacementOutcome, FederatedError> {
    check_sites(&cfg.sites)?;
    let standard = presets::standard_federation();
    let is_standard = cfg.sites.len() == standard.len()
        && cfg
            .sites
            .iter()
            .zip(&standard)
            .all(|(s, f)| s.name == f.name && s.kind == f.kind);
    let federation = if is_standard {
        Federation::standard()
    } else {
        Federation::assemble(
            cfg.sites
                .iter()
                .map(|s| Facility::new(s.name.clone(), s.kind))
                .collect(),
        )
    };

    let n = cfg.fleet.campaigns.len();
    let mut state = PlacementState {
        policy: cfg.policy,
        cursor: 0,
        sites: cfg.sites.iter().map(Site::new).collect(),
        federation,
        demands: cfg
            .fleet
            .campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| campaign_demand(i, c, cfg.sites.len()))
            .collect(),
        placed_site: vec![0; n],
        transfer_secs: vec![0.0; n],
        rerouted: vec![false; n],
        events: Vec::new(),
    };
    let outage = cfg.outage();

    for i in 0..n {
        let arrival = cfg.arrival(i);
        // The outage strikes while placing campaign `after_placements`:
        // drain the facility and re-route its queued campaigns first, so
        // this and later placements see the reduced federation.
        if let Some(o) = outage {
            if i == o.after_placements as usize && (o.site as usize) < state.sites.len() {
                state.drain_site(o.site as usize, arrival)?;
            }
        }
        let home = state.demands[i].data_home.min(cfg.sites.len() - 1);
        let home_name = cfg.sites[home].name.clone();
        state.place_one(i, arrival, &home_name, false)?;
    }

    // Drain every scheduler and fold the finished records.
    let mut makespan = if n == 0 {
        SimTime::ZERO
    } else {
        cfg.arrival(n - 1)
    };
    for site in &mut state.sites {
        let end = site.scheduler.drain();
        site.scheduler_changed();
        if !site.scheduler.finished().is_empty() {
            makespan = makespan.max(end);
        }
    }

    let mut start_hours: Vec<f64> = vec![0.0; n];
    let mut wait_hours: Vec<f64> = vec![0.0; n];
    for site in &state.sites {
        for f in site.scheduler.finished() {
            // A re-routed campaign leaves no finished record on the downed
            // site (its job was drained from the queue), so each campaign
            // resolves to exactly one finished job federation-wide.
            let campaign = site.job_owner[&f.job.id];
            start_hours[campaign] = f.started.as_hours();
            // Wait is measured from federation arrival, not the last
            // submission: a re-routed campaign's time stranded in the
            // drained site's queue is real waiting, so the invariant
            // `start == arrival + wait` holds for every placement.
            wait_hours[campaign] = f.started.saturating_since(cfg.arrival(campaign)).as_hours();
        }
    }

    let makespan_hours = makespan.as_hours();
    let facilities: Vec<FacilityUsage> = state
        .sites
        .iter()
        .map(|site| {
            let finished = site.scheduler.finished();
            // `+ 0.0` normalises the empty sum's IEEE `-0.0` so idle
            // facilities serialize as plain `0.0`.
            let node_hours: f64 = finished
                .iter()
                .map(|f| f.job.nodes as f64 * f.ended.saturating_since(f.started).as_hours())
                .sum::<f64>()
                + 0.0;
            let capacity_hours = site.spec.nodes as f64 * makespan_hours;
            FacilityUsage {
                name: site.spec.name.clone(),
                nodes: site.spec.nodes,
                jobs: finished.len(),
                node_hours,
                utilization: if capacity_hours > 0.0 {
                    node_hours / capacity_hours
                } else {
                    0.0
                },
                mean_wait_hours: site.scheduler.mean_wait_hours(),
                bytes_in: site.bytes_in,
                down: site.down,
                rerouted_away: site.rerouted_away,
            }
        })
        .collect();

    let records: Vec<PlacementRecord> = (0..n)
        .map(|i| PlacementRecord {
            campaign: i,
            facility: state.sites[state.placed_site[i]].spec.name.clone(),
            nodes: state.demands[i].nodes,
            walltime_hours: state.demands[i].walltime.as_hours(),
            arrival_hours: cfg.arrival(i).as_hours(),
            start_hours: start_hours[i],
            wait_hours: wait_hours[i],
            data_home: cfg.sites[state.demands[i].data_home.min(cfg.sites.len() - 1)]
                .name
                .clone(),
            transfer_secs: state.transfer_secs[i],
            rerouted: state.rerouted[i],
        })
        .collect();

    let mean_wait_hours = if n == 0 {
        0.0
    } else {
        wait_hours.iter().sum::<f64>() / n as f64
    };

    Ok(PlacementOutcome {
        records,
        facilities,
        outage,
        transfers: state.federation.fabric().transfers(),
        bytes_moved: state.federation.fabric().bytes_moved(),
        mean_wait_hours,
        makespan_hours,
        events: state.events,
    })
}

/// Run [`place_fleet`] on a scoped thread while the calling thread runs
/// `fleet`, and return both. Placement never reads what the fleet
/// computes, so overlapping them changes no report. A placement error
/// wins over anything the fleet returned. A site list [`check_sites`]
/// refuses is refused before the fleet starts; `NoCapacity` is found
/// only by placing, so that refusal still comes after the whole fleet
/// has run.
fn place_beside<T>(
    cfg: &FederatedConfig,
    fleet: impl FnOnce() -> T,
) -> Result<(PlacementOutcome, T), FederatedError> {
    check_sites(&cfg.sites)?;
    std::thread::scope(|scope| {
        let placement = scope.spawn(|| place_fleet(cfg));
        let fleet = fleet();
        let placed = placement
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok((placed?, fleet))
    })
}

fn assemble_report(
    cfg: &FederatedConfig,
    outcome: PlacementOutcome,
    fleet: FleetReport,
) -> FederatedReport {
    FederatedReport {
        master_seed: cfg.fleet.master_seed,
        policy: cfg.policy.label().to_string(),
        facilities: outcome.facilities,
        placements: outcome.records,
        outage: outcome.outage,
        transfers: outcome.transfers,
        bytes_moved: outcome.bytes_moved,
        mean_wait_hours: outcome.mean_wait_hours,
        makespan_hours: outcome.makespan_hours,
        fleet,
        events: outcome.events,
    }
}

/// Run a fleet of campaigns through a federation: place every campaign
/// onto a facility, charging queue waits and data movement, while the
/// thread-invariant executor runs the fleet, and aggregate.
///
/// The report is byte-identical at any thread count.
pub fn run_campaign_fleet_federated(
    space: &MaterialsSpace,
    cfg: &FederatedConfig,
) -> Result<FederatedReport, FederatedError> {
    let (outcome, fleet) = place_beside(cfg, || run_campaign_fleet(space, &cfg.fleet))?;
    Ok(assemble_report(cfg, outcome, fleet))
}

/// Run a federated fleet with full event recording: the report embeds
/// the federation-level event stream as usual, and every campaign's own
/// ledger comes back merged in shard order — the complete audit picture
/// across all three layers (campaign decisions, fleet aggregation,
/// federation placement).
pub fn run_campaign_fleet_federated_recorded(
    space: &MaterialsSpace,
    cfg: &FederatedConfig,
) -> Result<(FederatedReport, FleetLedger), FederatedError> {
    let (outcome, (fleet, ledger)) =
        place_beside(cfg, || run_campaign_fleet_recorded(space, &cfg.fleet))?;
    Ok((assemble_report(cfg, outcome, fleet), ledger))
}

/// Run a federated fleet until `max_completions` campaigns have
/// committed, then die — the federated analogue of
/// [`run_campaign_fleet_until`]. Placement runs beside the fleet and its
/// error wins, so a checkpoint is only ever returned for a placeable
/// federation.
pub fn run_campaign_fleet_federated_until(
    space: &MaterialsSpace,
    cfg: &FederatedConfig,
    max_completions: usize,
) -> Result<FederatedCheckpoint, FederatedError> {
    let (_, fleet) = place_beside(cfg, || {
        run_campaign_fleet_until(space, &cfg.fleet, max_completions)
    })?;
    Ok(FederatedCheckpoint {
        placement_signature: cfg.placement_signature(),
        fleet,
    })
}

/// Resume an interrupted federated fleet: check the placement signature,
/// then re-run only the campaigns that never committed while the (pure,
/// signature-validated) placement is recomputed beside them, and
/// aggregate. A placement error is reported before a fleet refusal.
/// Byte-identical to the uninterrupted [`run_campaign_fleet_federated`]
/// report — at any thread count on either side of the crash.
pub fn resume_campaign_fleet_federated(
    space: &MaterialsSpace,
    cfg: &FederatedConfig,
    checkpoint: &FederatedCheckpoint,
) -> Result<FederatedReport, FederatedResumeError> {
    let config_sig = cfg.placement_signature();
    if checkpoint.placement_signature != config_sig {
        return Err(FederatedResumeError::PlacementMismatch {
            checkpoint: checkpoint.placement_signature,
            config: config_sig,
        });
    }
    let (outcome, fleet) = place_beside(cfg, || {
        resume_campaign_fleet(space, &cfg.fleet, &checkpoint.fleet)
    })
    .map_err(FederatedResumeError::Placement)?;
    let fleet = fleet.map_err(FederatedResumeError::Fleet)?;
    Ok(assemble_report(cfg, outcome, fleet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Cell;
    use evoflow_sm::IntelligenceLevel;

    fn space() -> MaterialsSpace {
        MaterialsSpace::generate(3, 8, 20260726)
    }

    fn fleet(threads: usize) -> FleetConfig {
        let mut f = FleetConfig::new(77);
        f.horizon = SimDuration::from_days(1);
        f.threads = threads;
        f.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Single), 2);
        f.push_cell(
            Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
            2,
        );
        f.push_cell(Cell::new(IntelligenceLevel::Learning, Pattern::Mesh), 2);
        f
    }

    fn config(policy: PlacementPolicyKind, threads: usize) -> FederatedConfig {
        FederatedConfig::standard(fleet(threads), policy)
    }

    #[test]
    fn federated_report_is_thread_count_invariant() {
        let space = space();
        for policy in PlacementPolicyKind::all() {
            let one = run_campaign_fleet_federated(&space, &config(policy, 1)).unwrap();
            let two = run_campaign_fleet_federated(&space, &config(policy, 2)).unwrap();
            let four = run_campaign_fleet_federated(&space, &config(policy, 4)).unwrap();
            assert_eq!(one, two, "{policy:?}");
            assert_eq!(one, four, "{policy:?}");
        }
    }

    #[test]
    fn every_campaign_is_placed_exactly_once() {
        let space = space();
        let report =
            run_campaign_fleet_federated(&space, &config(PlacementPolicyKind::RoundRobin, 1))
                .unwrap();
        assert_eq!(report.placements.len(), 6);
        for (i, p) in report.placements.iter().enumerate() {
            assert_eq!(p.campaign, i);
            assert!(report.facilities.iter().any(|f| f.name == p.facility));
            assert!(p.start_hours >= p.arrival_hours);
        }
        let placed_jobs: usize = report.facilities.iter().map(|f| f.jobs).sum();
        assert_eq!(placed_jobs, 6);
    }

    #[test]
    fn least_wait_picks_the_emptier_queue() {
        // Two identical sites; all work arrives at once. Least-wait must
        // alternate between them instead of piling onto one.
        let mut f = FleetConfig::new(3);
        f.horizon = SimDuration::from_days(1);
        f.threads = 1;
        f.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Mesh), 4);
        let sites = vec![
            SiteSpec::new("site-a", FacilityKind::Hpc).with_nodes(24),
            SiteSpec::new("site-b", FacilityKind::Hpc).with_nodes(24),
        ];
        let mut cfg = FederatedConfig::new(f, PlacementPolicyKind::LeastWait, sites);
        cfg.inter_arrival = SimDuration::ZERO;
        let report = run_campaign_fleet_federated(&space(), &cfg).unwrap();
        let a = report
            .placements
            .iter()
            .filter(|p| p.facility == "site-a")
            .count();
        let b = report
            .placements
            .iter()
            .filter(|p| p.facility == "site-b")
            .count();
        assert_eq!((a, b), (2, 2), "least-wait must balance identical sites");
    }

    #[test]
    fn data_locality_stays_home_when_possible() {
        // One site holds the data and has room: data-locality places
        // there; a zero-length transfer is charged nothing.
        let mut f = FleetConfig::new(5);
        f.horizon = SimDuration::from_days(1);
        f.threads = 1;
        f.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Single), 1);
        let sites = vec![
            SiteSpec::new("near", FacilityKind::Hpc),
            SiteSpec::new("far", FacilityKind::Cloud),
        ];
        let cfg = FederatedConfig::new(f, PlacementPolicyKind::DataLocality, sites);
        let report = run_campaign_fleet_federated(&space(), &cfg).unwrap();
        assert_eq!(report.placements[0].data_home, "near");
        assert_eq!(report.placements[0].facility, "near");
        assert_eq!(report.placements[0].transfer_secs, 0.0);
        assert_eq!(report.transfers, 0);
    }

    #[test]
    fn zero_capacity_federation_is_a_typed_error() {
        let sites = vec![
            SiteSpec::new("husk-a", FacilityKind::Hpc).with_nodes(0),
            SiteSpec::new("husk-b", FacilityKind::Cloud).with_nodes(0),
        ];
        let cfg = FederatedConfig::new(fleet(1), PlacementPolicyKind::RoundRobin, sites);
        assert_eq!(
            run_campaign_fleet_federated(&space(), &cfg).unwrap_err(),
            FederatedError::NoCapacity {
                campaign: 0,
                nodes: 4
            }
        );
        let empty = FederatedConfig::new(fleet(1), PlacementPolicyKind::RoundRobin, Vec::new());
        assert_eq!(
            run_campaign_fleet_federated(&space(), &empty).unwrap_err(),
            FederatedError::EmptyFederation
        );
    }

    #[test]
    fn duplicate_site_names_are_a_typed_error() {
        let sites = vec![
            SiteSpec::new("twin", FacilityKind::Hpc),
            SiteSpec::new("twin", FacilityKind::Cloud),
        ];
        let cfg = FederatedConfig::new(fleet(1), PlacementPolicyKind::RoundRobin, sites);
        assert_eq!(
            run_campaign_fleet_federated(&space(), &cfg).unwrap_err(),
            FederatedError::DuplicateSite("twin".into())
        );
    }

    #[test]
    fn every_entry_point_reports_a_placement_error_the_fleet_would_not() {
        // The fleet itself can run; only placement fails, beside it.
        let space = space();
        let unplaceable = [
            (
                vec![SiteSpec::new("husk", FacilityKind::Hpc).with_nodes(0)],
                FederatedError::NoCapacity {
                    campaign: 0,
                    nodes: 4,
                },
            ),
            (Vec::new(), FederatedError::EmptyFederation),
            (
                vec![
                    SiteSpec::new("twin", FacilityKind::Hpc),
                    SiteSpec::new("twin", FacilityKind::Cloud),
                ],
                FederatedError::DuplicateSite("twin".into()),
            ),
        ];
        for (sites, error) in unplaceable {
            let cfg = FederatedConfig::new(fleet(2), PlacementPolicyKind::LeastWait, sites);
            let refused = Some(error.clone());
            assert_eq!(run_campaign_fleet_federated(&space, &cfg).err(), refused);
            assert_eq!(
                run_campaign_fleet_federated_recorded(&space, &cfg).err(),
                refused
            );
            assert_eq!(
                run_campaign_fleet_federated_until(&space, &cfg, 1).err(),
                refused
            );
            // A checkpoint that matches the config's signature and fleet:
            // only placement can refuse it.
            let checkpoint = FederatedCheckpoint {
                placement_signature: cfg.placement_signature(),
                fleet: run_campaign_fleet_until(&space, &cfg.fleet, 1),
            };
            assert_eq!(
                resume_campaign_fleet_federated(&space, &cfg, &checkpoint).err(),
                Some(FederatedResumeError::Placement(error))
            );
        }
    }

    #[test]
    fn a_refused_site_list_never_starts_the_fleet() {
        let refused = [
            (Vec::new(), FederatedError::EmptyFederation),
            (
                vec![
                    SiteSpec::new("twin", FacilityKind::Hpc),
                    SiteSpec::new("twin", FacilityKind::Cloud),
                ],
                FederatedError::DuplicateSite("twin".into()),
            ),
        ];
        for (sites, error) in refused {
            let cfg = FederatedConfig::new(fleet(1), PlacementPolicyKind::LeastWait, sites);
            let placed = place_beside::<()>(&cfg, || panic!("the fleet started"));
            assert_eq!(placed.err(), Some(error));
        }
    }

    #[test]
    fn resume_refuses_signature_then_placement_then_fleet() {
        let space = space();
        let cfg = config(PlacementPolicyKind::LeastWait, 2);
        let ckpt = run_campaign_fleet_federated_until(&space, &cfg, 2).unwrap();
        // A drifted federation that could not place either: the signature
        // refuses it before placement runs.
        let empty = FederatedConfig {
            sites: Vec::new(),
            ..cfg.clone()
        };
        assert_eq!(
            resume_campaign_fleet_federated(&space, &empty, &ckpt).err(),
            Some(FederatedResumeError::PlacementMismatch {
                checkpoint: ckpt.placement_signature,
                config: empty.placement_signature(),
            })
        );
        // A fleet checkpoint of another fleet under a matching signature:
        // placement refuses first when it fails, the fleet otherwise.
        let mut other = fleet(2);
        other.master_seed += 1;
        let foreign = run_campaign_fleet_until(&space, &other, 2);
        let husk = FederatedConfig {
            sites: vec![SiteSpec::new("husk", FacilityKind::Hpc).with_nodes(0)],
            ..cfg.clone()
        };
        let resume = |cfg: &FederatedConfig| {
            let checkpoint = FederatedCheckpoint {
                placement_signature: cfg.placement_signature(),
                fleet: foreign.clone(),
            };
            resume_campaign_fleet_federated(&space, cfg, &checkpoint).err()
        };
        assert!(matches!(
            resume(&husk),
            Some(FederatedResumeError::Placement(
                FederatedError::NoCapacity { .. }
            ))
        ));
        assert!(matches!(resume(&cfg), Some(FederatedResumeError::Fleet(_))));
    }

    /// A small, contended federation where batch queues actually form:
    /// two 24-node sites, every campaign demanding all 24 nodes at t=0.
    fn contended_config(policy: PlacementPolicyKind) -> FederatedConfig {
        let mut f = FleetConfig::new(13);
        f.horizon = SimDuration::from_days(1);
        f.threads = 1;
        f.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Mesh), 8);
        let sites = vec![
            SiteSpec::new("site-a", FacilityKind::Hpc).with_nodes(24),
            SiteSpec::new("site-b", FacilityKind::Hpc).with_nodes(24),
        ];
        let mut cfg = FederatedConfig::new(f, policy, sites);
        cfg.inter_arrival = SimDuration::ZERO;
        cfg
    }

    #[test]
    fn outage_reroutes_unstarted_campaigns() {
        let space = space();
        // Find seeds whose outage actually re-routes queued work, then
        // check the invariants on those runs.
        let mut hit = false;
        for seed in 0..32u64 {
            let cfg = contended_config(PlacementPolicyKind::RoundRobin).with_outage_seed(seed);
            let report = run_campaign_fleet_federated(&space, &cfg).unwrap();
            let outage = report.outage.expect("outage derives for 8 campaigns");
            let downed = &report.facilities[outage.site as usize];
            assert!(downed.down);
            let rerouted: Vec<_> = report.placements.iter().filter(|p| p.rerouted).collect();
            assert_eq!(rerouted.len(), downed.rerouted_away);
            if !rerouted.is_empty() {
                hit = true;
                for p in &rerouted {
                    assert_ne!(
                        p.facility, downed.name,
                        "re-routed campaign may not land on the downed site"
                    );
                    assert!(
                        p.transfer_secs > 0.0,
                        "evacuation must charge a fabric transfer"
                    );
                }
            }
            // No campaign placed at-or-after the outage lands on the
            // downed facility.
            for p in &report.placements[outage.after_placements as usize..] {
                assert_ne!(p.facility, downed.name);
            }
        }
        assert!(hit, "no seed in 0..32 produced a re-route");
    }

    #[test]
    fn cached_projections_follow_outage_reroutes() {
        // Three contended sites, so re-routed work still has a choice.
        // Debug builds check every placement query against a fresh
        // `BatchScheduler::estimate_start`; the outage drains a site and
        // re-routes its queue, changing the survivors mid-drain.
        let space = space();
        for policy in [
            PlacementPolicyKind::LeastWait,
            PlacementPolicyKind::DataLocality,
        ] {
            let mut rerouted = 0;
            for seed in 0..16u64 {
                let mut cfg = contended_config(policy).with_outage_seed(seed);
                cfg.sites
                    .push(SiteSpec::new("site-c", FacilityKind::Hpc).with_nodes(24));
                let report = run_campaign_fleet_federated(&space, &cfg).unwrap();
                let outage = report.outage.expect("outage derives for 8 campaigns");
                let downed = &report.facilities[outage.site as usize];
                assert_eq!(
                    report.placements.iter().filter(|p| p.rerouted).count(),
                    downed.rerouted_away
                );
                rerouted += downed.rerouted_away;
            }
            assert!(rerouted > 0, "{policy:?}: no seed re-routed queued work");
        }
    }

    /// 1,050 campaigns cycling over the 15 cheap level × composition
    /// cells, arriving every 2 minutes at the standard federation, which
    /// they slightly oversubscribe, so queues grow deep enough for a
    /// splice to keep completion batches. The outage drains site
    /// `outage_site` two thirds of the way in.
    fn deep_config(policy: PlacementPolicyKind, outage_site: u32) -> FederatedConfig {
        let levels = [
            IntelligenceLevel::Static,
            IntelligenceLevel::Adaptive,
            IntelligenceLevel::Learning,
        ];
        let compositions = [
            Pattern::Single,
            Pattern::Pipeline,
            Pattern::Hierarchical,
            Pattern::Mesh,
            Pattern::Swarm { k: 4 },
        ];
        let cells: Vec<Cell> = levels
            .iter()
            .flat_map(|&l| compositions.iter().map(move |&p| Cell::new(l, p)))
            .collect();
        let mut f = FleetConfig::new(21);
        f.horizon = SimDuration::from_days(1);
        for i in 0..1_050 {
            f.push_cell(cells[i % cells.len()], 1);
        }
        let mut cfg = FederatedConfig::standard(f, policy);
        cfg.inter_arrival = SimDuration::from_mins(2);
        cfg.outage_seed = (0..)
            .find(|&seed| {
                cfg.outage_seed = Some(seed);
                cfg.outage().is_some_and(|o| {
                    o.site == outage_site && (650..750).contains(&o.after_placements)
                })
            })
            .map(Some)
            .expect("some seed drains the site two thirds of the way in");
        cfg
    }

    #[test]
    fn spliced_projections_follow_a_deep_placement() {
        // Debug builds check every splice against a fresh projection and
        // every placement query against a fresh `estimate_start`; the
        // outage re-routes queued work onto the survivors mid-run. Least
        // wait queues work everywhere, so it loses the largest site;
        // data locality keeps each campaign at its data's home, so it
        // loses the 32-node `lightsource`, where that queue is deepest.
        for (policy, outage_site) in [
            (PlacementPolicyKind::LeastWait, 2),
            (PlacementPolicyKind::DataLocality, 1),
        ] {
            let cfg = deep_config(policy, outage_site);
            let outcome = place_fleet(&cfg).expect("sites have room");
            assert_eq!(outcome.records.len(), 1_050);
            let waited = outcome
                .records
                .iter()
                .filter(|r| r.wait_hours > 0.0)
                .count();
            assert!(waited > 100, "{policy:?}: only {waited} campaigns queued");
            let rerouted = outcome.records.iter().filter(|r| r.rerouted).count();
            assert!(rerouted > 0, "{policy:?}: the outage re-routed nothing");
        }
    }

    #[test]
    fn arrivals_at_the_saturated_clock_still_place() {
        // The third campaign arrives at `SimTime::MAX`, where its job's
        // end saturates onto its start.
        let mut f = FleetConfig::new(9);
        f.push_cell(Cell::traditional_wms(), 3);
        for policy in PlacementPolicyKind::all() {
            let mut cfg = FederatedConfig::standard(f.clone(), policy);
            cfg.inter_arrival = SimDuration::from_nanos(u64::MAX / 2 + 1);
            let report = run_campaign_fleet_federated(&space(), &cfg).expect("sites have room");
            assert_eq!(report.placements.len(), 3);
            assert_eq!(report.placements[2].start_hours, SimTime::MAX.as_hours());
        }
    }

    #[test]
    fn outage_run_reports_are_deterministic() {
        let space = space();
        let cfg = config(PlacementPolicyKind::DataLocality, 2).with_outage_seed(11);
        let a = run_campaign_fleet_federated(&space, &cfg).unwrap();
        let b = run_campaign_fleet_federated(&space, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn killed_federated_fleet_resumes_to_identical_report() {
        let space = space();
        let cfg = config(PlacementPolicyKind::LeastWait, 2).with_outage_seed(5);
        let uninterrupted = run_campaign_fleet_federated(&space, &cfg).unwrap();
        for kill_after in [0usize, 1, 3, 6] {
            let ckpt = run_campaign_fleet_federated_until(&space, &cfg, kill_after).unwrap();
            let resumed = resume_campaign_fleet_federated(&space, &cfg, &ckpt).unwrap();
            assert_eq!(resumed, uninterrupted, "kill_after={kill_after}");
        }
    }

    #[test]
    fn checkpoint_refuses_a_drifted_federation() {
        let space = space();
        let cfg = config(PlacementPolicyKind::RoundRobin, 1);
        let ckpt = run_campaign_fleet_federated_until(&space, &cfg, 1).unwrap();

        let other_policy = config(PlacementPolicyKind::LeastWait, 1);
        assert!(matches!(
            resume_campaign_fleet_federated(&space, &other_policy, &ckpt),
            Err(FederatedResumeError::PlacementMismatch { .. })
        ));

        let mut other_sites = config(PlacementPolicyKind::RoundRobin, 1);
        other_sites.sites[0].nodes += 1;
        assert!(matches!(
            resume_campaign_fleet_federated(&space, &other_sites, &ckpt),
            Err(FederatedResumeError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn demand_is_a_pure_function_of_config() {
        let cfg = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
            9,
        );
        let a = campaign_demand(3, &cfg, 5);
        let b = campaign_demand(3, &cfg, 5);
        assert_eq!(a, b);
        assert_eq!(a.nodes, 32);
        assert_eq!(a.walltime, SimDuration::from_hours(5));
        assert_eq!(a.data_home, 3);
        // Different index rotates the data home only.
        let c = campaign_demand(7, &cfg, 5);
        assert_eq!(c.data_home, 2);
        assert_eq!(c.nodes, a.nodes);
    }

    #[test]
    fn placement_signature_tracks_placement_inputs() {
        let base = config(PlacementPolicyKind::RoundRobin, 1);
        assert_eq!(
            base.placement_signature(),
            config(PlacementPolicyKind::RoundRobin, 4).placement_signature(),
            "threads must not affect the signature"
        );
        assert_ne!(
            base.placement_signature(),
            config(PlacementPolicyKind::LeastWait, 1).placement_signature()
        );
        assert_ne!(
            base.placement_signature(),
            base.clone().with_outage_seed(1).placement_signature()
        );
        let mut wider = config(PlacementPolicyKind::RoundRobin, 1);
        wider.inter_arrival = SimDuration::from_hours(2);
        assert_ne!(base.placement_signature(), wider.placement_signature());
    }

    #[test]
    fn fleet_outcome_is_unchanged_by_placement() {
        // Placement charges time and movement; it must never rewrite the
        // scientific results of the fleet itself.
        let space = space();
        let plain = run_campaign_fleet(&space, &fleet(1));
        let federated =
            run_campaign_fleet_federated(&space, &config(PlacementPolicyKind::LeastWait, 1))
                .unwrap();
        assert_eq!(federated.fleet, plain);
    }
}
