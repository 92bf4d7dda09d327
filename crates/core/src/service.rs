//! The multi-tenant campaign service: a long-lived scheduler in front of
//! the fleet.
//!
//! Everything below this module is batch: build a config, call a
//! `run_campaign_fleet*` entry point, collect a report. The paper's
//! north star is *infrastructure* for agentic science (§5.3, §6) — many
//! users submitting concurrent campaigns against shared facilities, with
//! admission control, sustained load, and restart survival. This module
//! is that front door:
//!
//! * **Tenancy + admission.** A [`ServiceConfig`] names its
//!   [`TenantSpec`]s (fair-share weight, queue quota, admission cap) and
//!   an arrival trace of [`Submission`]s. Each submission is either
//!   *admitted* (assigned an admission index, which derives its campaign
//!   seed) or *rejected at the door* with a typed [`RejectReason`] —
//!   quota enforcement is part of the schedule, not an afterthought.
//! * **Fair-share dispatch.** Queued campaigns are dispatched by stride
//!   scheduling: each dispatch slot goes to the backlogged tenant with
//!   the smallest `dispatched / weight` ratio (integer cross-multiplied,
//!   ties broken by tenant declaration order). A hostile tenant flooding
//!   the queue cannot crowd a well-behaved tenant below its weighted
//!   share of dispatch slots.
//! * **Deterministic planning.** [`plan_service`] computes the entire
//!   admission + dispatch schedule as a *pure function of the config* —
//!   no wall clock, no completion feedback — so the schedule (and every
//!   derived seed) is byte-stable across reruns, thread counts, and
//!   restarts. Execution then multiplexes the dispatch order onto the
//!   fleet's work-stealing executor, through the same commit-slot driver
//!   every fleet entry point uses (one slot per admission).
//! * **Live progress.** [`run_service_observed`] streams the whole
//!   session — admissions, rejections, dispatches, and every campaign's
//!   event stream — through [`LedgerObserver`] sinks such as
//!   [`RingTelemetry`](crate::RingTelemetry), in deterministic schedule
//!   order. Each campaign is delivered as soon as it and every campaign
//!   before it in dispatch order have committed; observers run on the
//!   calling thread while the workers keep running.
//! * **Restart survival.** [`run_service_until`] kills the service after
//!   N campaign commits and emits a [`ServiceCheckpoint`] (seed
//!   handshake + committed reports and ledgers, exactly the
//!   [`FleetLedgerCheckpoint`](crate::FleetLedgerCheckpoint) recipe, and
//!   checked by the same resume handshake);
//!   [`resume_service`] re-derives only the lost work and reproduces the
//!   uninterrupted [`ServiceReport`] *and* merged
//!   [`FleetLedger`] **byte-for-byte**, at any thread count on either
//!   side of the kill.
//!
//! The correctness story is certified by the `testbed::service` S0–S3
//! ladder (S0 admits-and-completes, S1 quota enforcement under
//! oversubmission, S2 fair-share under a hostile flood, S3
//! restart-resume byte-identity) and gated in CI by `bench_service`.
//!
//! ```
//! use evoflow_core::{plan_service, run_service, CampaignConfig, Cell};
//! use evoflow_core::{MaterialsSpace, ServiceConfig, TenantSpec};
//! use evoflow_sim::SimDuration;
//!
//! let space = MaterialsSpace::generate(3, 8, 42);
//! let mut cfg = ServiceConfig::new(7);
//! cfg.push_tenant(TenantSpec::new("alice").with_weight(2));
//! cfg.push_tenant(TenantSpec::new("bob"));
//! let mut campaign = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
//! campaign.horizon = SimDuration::from_days(1);
//! for _ in 0..3 {
//!     cfg.submit("alice", campaign.clone());
//!     cfg.submit("bob", campaign.clone());
//! }
//!
//! let plan = plan_service(&cfg).expect("valid service config");
//! assert_eq!(plan.admitted.len(), 6);
//!
//! let (report, ledger) = run_service(&space, &cfg).expect("service runs");
//! assert_eq!(report.fleet.reports.len(), 6);
//! assert_eq!(ledger.campaigns.len(), 6);
//! ```

use crate::campaign::{run_campaign_recorded, CampaignConfig, CampaignReport};
use crate::domain::MaterialsSpace;
use crate::fleet::{worker_threads, CommitSlots, FleetReport, FleetResumeError};
use crate::ledger::{CampaignEvent, CampaignLedger, FleetLedger, LedgerObserver};
use evoflow_sim::RngRegistry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Stream label under which admitted campaigns' seeds are derived from
/// the service master seed
/// (`RngRegistry::shard_seed(SERVICE_SHARD_LABEL, admission_index)`).
pub const SERVICE_SHARD_LABEL: &str = "service-campaign";

/// Default arrivals ingested per scheduling round (the value a zero or
/// absent `ingest_per_round` normalises to).
pub const DEFAULT_INGEST_PER_ROUND: usize = 4;

/// Default campaigns dispatched per scheduling round (the value a zero
/// or absent `dispatch_per_round` normalises to).
pub const DEFAULT_DISPATCH_PER_ROUND: usize = 2;

/// One tenant of the service: identity, fair-share weight, and quotas.
///
/// Every knob is `#[serde(default)]` with **0 meaning "not declared"**:
/// a legacy record naming only the tenant decodes to weight 1 and no
/// quotas. (The vendored serde stub supports only bare defaults, so the
/// zero-normalisation happens in [`plan_service`], not in decode.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant identity (must be unique within a [`ServiceConfig`]).
    pub name: String,
    /// Fair-share weight: a tenant with weight 2 is entitled to twice
    /// the dispatch slots of a weight-1 tenant while both are
    /// backlogged. 0 is treated as 1.
    #[serde(default)]
    pub weight: u32,
    /// Per-tenant queue quota: the most campaigns the tenant may have
    /// admitted-but-not-yet-dispatched. Submissions beyond it are
    /// rejected with [`RejectReason::QueueFull`]. 0 = unlimited.
    #[serde(default)]
    pub max_queued: usize,
    /// Hard cap on total admissions for the session. Submissions beyond
    /// it are rejected with [`RejectReason::AdmissionCapExhausted`].
    /// 0 = unlimited.
    #[serde(default)]
    pub max_admitted: usize,
}

impl TenantSpec {
    /// A tenant with weight 1 and no quotas.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            max_queued: 0,
            max_admitted: 0,
        }
    }

    /// Set the fair-share weight (0 is treated as 1 while planning).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Set the queue quota (0 = unlimited).
    pub fn with_max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Set the total-admissions cap (0 = unlimited).
    pub fn with_max_admitted(mut self, max_admitted: usize) -> Self {
        self.max_admitted = max_admitted;
        self
    }

    /// The weight the scheduler actually uses (0 normalised to 1).
    pub fn effective_weight(&self) -> u32 {
        self.weight.max(1)
    }

    /// The queue quota the scheduler actually enforces (0 ⇒ unlimited).
    pub fn effective_max_queued(&self) -> usize {
        if self.max_queued == 0 {
            usize::MAX
        } else {
            self.max_queued
        }
    }

    /// The admissions cap the scheduler actually enforces
    /// (0 ⇒ unlimited).
    pub fn effective_max_admitted(&self) -> usize {
        if self.max_admitted == 0 {
            usize::MAX
        } else {
            self.max_admitted
        }
    }
}

/// One campaign submission in the service's arrival trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// Submitting tenant (must name a [`TenantSpec`], or the submission
    /// is rejected with [`RejectReason::UnknownTenant`]).
    pub tenant: String,
    /// The campaign to run. Its `seed` field is overwritten with the
    /// admission-derived seed; everything else is honoured verbatim.
    pub campaign: CampaignConfig,
}

/// Configuration of one service session: tenants, arrival trace, and
/// scheduler pacing.
///
/// The pacing knobs are `#[serde(default)]` with 0 meaning "default
/// pacing", so a record that never mentioned them decodes to
/// [`DEFAULT_INGEST_PER_ROUND`] arrivals ingested and
/// [`DEFAULT_DISPATCH_PER_ROUND`] campaigns dispatched per round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Master seed; every admitted campaign's seed is derived from it by
    /// admission index.
    pub master_seed: u64,
    /// Worker threads for campaign execution. **0 means
    /// "one per host core"** (`available_parallelism()`), which is the
    /// one host-dependent knob in an otherwise pure-function config:
    /// results never change with it, but anything that *records* the
    /// thread count (bench summaries, testbed certificates) must pin an
    /// explicit value to stay byte-identical across machines.
    pub threads: usize,
    /// The tenants allowed through the door, in declaration order
    /// (declaration order breaks fair-share ties).
    pub tenants: Vec<TenantSpec>,
    /// The arrival trace: submissions in arrival order.
    pub submissions: Vec<Submission>,
    /// Arrivals pulled from the trace per scheduling round
    /// (0 ⇒ [`DEFAULT_INGEST_PER_ROUND`]).
    #[serde(default)]
    pub ingest_per_round: usize,
    /// Campaigns dispatched to the fleet executor per scheduling round
    /// (0 ⇒ [`DEFAULT_DISPATCH_PER_ROUND`]).
    #[serde(default)]
    pub dispatch_per_round: usize,
}

impl ServiceConfig {
    /// An empty service with the given master seed and default pacing.
    pub fn new(master_seed: u64) -> Self {
        ServiceConfig {
            master_seed,
            threads: 0,
            tenants: Vec::new(),
            submissions: Vec::new(),
            ingest_per_round: DEFAULT_INGEST_PER_ROUND,
            dispatch_per_round: DEFAULT_DISPATCH_PER_ROUND,
        }
    }

    /// Register a tenant. Returns `&mut self` for chaining.
    pub fn push_tenant(&mut self, spec: TenantSpec) -> &mut Self {
        self.tenants.push(spec);
        self
    }

    /// Append a submission to the arrival trace.
    pub fn submit(&mut self, tenant: impl Into<String>, campaign: CampaignConfig) -> &mut Self {
        self.submissions.push(Submission {
            tenant: tenant.into(),
            campaign,
        });
        self
    }

    /// Worker threads that will actually be used.
    ///
    /// When [`threads`](ServiceConfig::threads) is 0 this consults
    /// `available_parallelism()` and therefore **varies across hosts**
    /// — fine for throughput, but never record its result in an
    /// artifact that is expected to be host-independent; pin an
    /// explicit thread count instead.
    pub fn effective_threads(&self) -> usize {
        worker_threads(self.threads, self.submissions.len())
    }

    /// The ingest pacing the scheduler actually uses
    /// (0 ⇒ [`DEFAULT_INGEST_PER_ROUND`]).
    pub fn effective_ingest_per_round(&self) -> usize {
        if self.ingest_per_round == 0 {
            DEFAULT_INGEST_PER_ROUND
        } else {
            self.ingest_per_round
        }
    }

    /// The dispatch pacing the scheduler actually uses
    /// (0 ⇒ [`DEFAULT_DISPATCH_PER_ROUND`]).
    pub fn effective_dispatch_per_round(&self) -> usize {
        if self.dispatch_per_round == 0 {
            DEFAULT_DISPATCH_PER_ROUND
        } else {
            self.dispatch_per_round
        }
    }
}

/// Why a submission was refused at the door.
///
/// Serializes as its stable kebab-case [`label`](RejectReason::label)
/// — not the Rust variant name — so the on-disk vocabulary is frozen
/// independently of source-level renames. Deserialization also accepts
/// the PascalCase variant names that pre-typed archives recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The submission names no registered [`TenantSpec`].
    UnknownTenant,
    /// The tenant's admitted-but-undispatched backlog is at its
    /// `max_queued` quota.
    QueueFull,
    /// The tenant has used its `max_admitted` session cap.
    AdmissionCapExhausted,
}

impl RejectReason {
    /// Short stable tag (ledger events, metrics keys).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::QueueFull => "queue-full",
            RejectReason::AdmissionCapExhausted => "admission-cap-exhausted",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for RejectReason {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.label())
    }
}

impl<'de> Deserialize<'de> for RejectReason {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        match s.as_str() {
            "unknown-tenant" | "UnknownTenant" => Ok(RejectReason::UnknownTenant),
            "queue-full" | "QueueFull" => Ok(RejectReason::QueueFull),
            "admission-cap-exhausted" | "AdmissionCapExhausted" => {
                Ok(RejectReason::AdmissionCapExhausted)
            }
            other => Err(serde::de::Error::custom(format!(
                "unknown reject reason {other:?}"
            ))),
        }
    }
}

/// One admitted campaign in the service plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmittedCampaign {
    /// Admission order (derives the campaign seed).
    pub admission_index: usize,
    /// Index into the arrival trace.
    pub submission_index: usize,
    /// Owning tenant.
    pub tenant: String,
    /// Derived campaign seed — the restart handshake.
    pub seed: u64,
    /// Scheduling round of admission.
    pub admitted_round: usize,
    /// Scheduling round of dispatch.
    pub dispatched_round: usize,
    /// Global dispatch slot (position in the dispatch total order).
    pub dispatch_slot: usize,
}

impl AdmittedCampaign {
    /// Rounds the campaign waited in the queue between admission and
    /// dispatch — the deterministic time-to-first-iteration proxy
    /// `bench_service` gates on.
    pub fn wait_rounds(&self) -> usize {
        self.dispatched_round - self.admitted_round
    }
}

/// One refused submission in the service plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectedSubmission {
    /// Index into the arrival trace.
    pub submission_index: usize,
    /// Tenant named by the submission (possibly unregistered).
    pub tenant: String,
    /// Scheduling round of the refusal.
    pub round: usize,
    /// Why it was refused.
    pub reason: RejectReason,
}

/// Per-tenant scheduling statistics, accumulated while planning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSchedule {
    /// Tenant identity.
    pub name: String,
    /// Fair-share weight used while planning.
    pub weight: u32,
    /// Submissions naming this tenant in the arrival trace.
    pub submitted: usize,
    /// Submissions admitted.
    pub admitted: usize,
    /// Submissions refused.
    pub rejected: usize,
    /// Dispatch slots that fired while this tenant was backlogged
    /// (slots it contended for, whether or not it won them).
    pub contended_slots: usize,
    /// Dispatch slots this tenant won.
    pub received_slots: usize,
}

/// The complete admission + dispatch schedule of a service session — a
/// pure function of the [`ServiceConfig`], computed before any campaign
/// executes. Because the plan never observes execution (no completion
/// feedback, no wall clock), it is identical across reruns, thread
/// counts, and restarts; that is what makes service checkpoints
/// splice-safe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePlan {
    /// Master seed the admission seeds were derived from.
    pub master_seed: u64,
    /// Admitted campaigns, in admission order.
    pub admitted: Vec<AdmittedCampaign>,
    /// Refused submissions, in refusal order.
    pub rejected: Vec<RejectedSubmission>,
    /// Admission indices in dispatch order — the exact sequence handed
    /// to the fleet executor.
    pub dispatch_order: Vec<usize>,
    /// Scheduling rounds the session spanned.
    pub rounds: usize,
    /// Per-tenant scheduling statistics, in tenant declaration order.
    pub tenants: Vec<TenantSchedule>,
}

impl ServicePlan {
    /// A tenant's fairness ratio: the share of contended dispatch slots
    /// it won, normalised by its weighted fair share. 1.0 means the
    /// tenant received exactly its entitlement while backlogged; the
    /// S2 rung and `bench_service` gate this ≥ a floor for every
    /// well-behaved tenant under a hostile flood. `None` for unknown
    /// tenants; 1.0 for tenants that never contended.
    pub fn fairness_ratio(&self, tenant: &str) -> Option<f64> {
        let total_weight: u64 = self.tenants.iter().map(|t| u64::from(t.weight)).sum();
        let t = self.tenants.iter().find(|t| t.name == tenant)?;
        if t.contended_slots == 0 {
            return Some(1.0);
        }
        let fair_share = f64::from(t.weight) / total_weight.max(1) as f64;
        Some((t.received_slots as f64 / t.contended_slots as f64) / fair_share)
    }
}

/// Why a service config could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Two tenants share a name, so admission could not attribute
    /// submissions.
    DuplicateTenant {
        /// The colliding tenant name.
        name: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DuplicateTenant { name } => {
                write!(f, "tenant {name:?} is declared twice")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Compute a service session's complete admission + dispatch schedule.
///
/// Each scheduling round ingests up to `ingest_per_round` arrivals
/// (applying quota admission control per tenant) and then fills up to
/// `dispatch_per_round` dispatch slots by stride fair-share: the slot
/// goes to the backlogged tenant with the smallest `dispatched / weight`
/// ratio, compared by integer cross-multiplication (no float ties),
/// declaration order breaking exact ties. The loop runs until the
/// arrival trace is drained and every queue is empty.
pub fn plan_service(cfg: &ServiceConfig) -> Result<ServicePlan, ServiceError> {
    for (i, t) in cfg.tenants.iter().enumerate() {
        if cfg.tenants[..i].iter().any(|u| u.name == t.name) {
            return Err(ServiceError::DuplicateTenant {
                name: t.name.clone(),
            });
        }
    }

    struct TenantState {
        queue: VecDeque<usize>,
        dispatched: u64,
        admitted_total: usize,
    }
    let mut states: Vec<TenantState> = cfg
        .tenants
        .iter()
        .map(|_| TenantState {
            queue: VecDeque::new(),
            dispatched: 0,
            admitted_total: 0,
        })
        .collect();
    let mut schedules: Vec<TenantSchedule> = cfg
        .tenants
        .iter()
        .map(|t| TenantSchedule {
            name: t.name.clone(),
            weight: t.effective_weight(),
            submitted: 0,
            admitted: 0,
            rejected: 0,
            contended_slots: 0,
            received_slots: 0,
        })
        .collect();

    let reg = RngRegistry::new(cfg.master_seed);
    let mut admitted: Vec<AdmittedCampaign> = Vec::new();
    let mut rejected: Vec<RejectedSubmission> = Vec::new();
    let mut dispatch_order: Vec<usize> = Vec::new();
    let mut cursor = 0usize;
    let mut round = 0usize;
    let mut slot = 0usize;

    loop {
        let backlog = states.iter().any(|s| !s.queue.is_empty());
        if cursor >= cfg.submissions.len() && !backlog {
            break;
        }

        // Ingest: pull arrivals through admission control.
        for _ in 0..cfg.effective_ingest_per_round() {
            if cursor >= cfg.submissions.len() {
                break;
            }
            let submission_index = cursor;
            let sub = &cfg.submissions[submission_index];
            cursor += 1;
            let Some(t) = cfg.tenants.iter().position(|t| t.name == sub.tenant) else {
                rejected.push(RejectedSubmission {
                    submission_index,
                    tenant: sub.tenant.clone(),
                    round,
                    reason: RejectReason::UnknownTenant,
                });
                continue;
            };
            schedules[t].submitted += 1;
            let reason = if states[t].admitted_total >= cfg.tenants[t].effective_max_admitted() {
                Some(RejectReason::AdmissionCapExhausted)
            } else if states[t].queue.len() >= cfg.tenants[t].effective_max_queued() {
                Some(RejectReason::QueueFull)
            } else {
                None
            };
            if let Some(reason) = reason {
                schedules[t].rejected += 1;
                rejected.push(RejectedSubmission {
                    submission_index,
                    tenant: sub.tenant.clone(),
                    round,
                    reason,
                });
                continue;
            }
            let admission_index = admitted.len();
            admitted.push(AdmittedCampaign {
                admission_index,
                submission_index,
                tenant: sub.tenant.clone(),
                seed: reg.shard_seed(SERVICE_SHARD_LABEL, admission_index as u64),
                admitted_round: round,
                dispatched_round: 0,
                dispatch_slot: 0,
            });
            states[t].queue.push_back(admission_index);
            states[t].admitted_total += 1;
            schedules[t].admitted += 1;
        }

        // Dispatch: stride fair-share over backlogged tenants.
        for _ in 0..cfg.effective_dispatch_per_round() {
            let mut winner: Option<usize> = None;
            for (t, s) in states.iter().enumerate() {
                if s.queue.is_empty() {
                    continue;
                }
                winner = Some(match winner {
                    None => t,
                    Some(best) => {
                        // t beats best iff dispatched_t / weight_t <
                        // dispatched_best / weight_best, cross-multiplied
                        // so there is no float tie ambiguity.
                        let lhs = u128::from(s.dispatched) * u128::from(schedules[best].weight);
                        let rhs =
                            u128::from(states[best].dispatched) * u128::from(schedules[t].weight);
                        if lhs < rhs {
                            t
                        } else {
                            best
                        }
                    }
                });
            }
            let Some(t) = winner else {
                break;
            };
            for (u, s) in states.iter().enumerate() {
                if !s.queue.is_empty() {
                    schedules[u].contended_slots += 1;
                }
            }
            schedules[t].received_slots += 1;
            let admission_index = states[t]
                .queue
                .pop_front()
                .expect("winner has a backlogged queue");
            admitted[admission_index].dispatched_round = round;
            admitted[admission_index].dispatch_slot = slot;
            dispatch_order.push(admission_index);
            states[t].dispatched += 1;
            slot += 1;
        }

        round += 1;
    }

    Ok(ServicePlan {
        master_seed: cfg.master_seed,
        admitted,
        rejected,
        dispatch_order,
        rounds: round,
        tenants: schedules,
    })
}

/// Per-tenant session outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant identity.
    pub name: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Submissions naming this tenant.
    pub submitted: usize,
    /// Submissions admitted.
    pub admitted: usize,
    /// Submissions refused.
    pub rejected: usize,
    /// Admitted campaigns that ran to completion (equals `admitted` in
    /// an uninterrupted session).
    pub completed: usize,
    /// Total experiments across the tenant's campaigns.
    pub experiments: u64,
    /// Total distinct discoveries across the tenant's campaigns.
    pub distinct_discoveries: u64,
    /// Best score any of the tenant's campaigns measured.
    pub best_score: f64,
    /// Mean queue wait (rounds between admission and dispatch).
    pub mean_wait_rounds: f64,
    /// Worst queue wait.
    pub max_wait_rounds: usize,
    /// Dispatch slots contended for (see [`TenantSchedule`]).
    pub contended_slots: usize,
    /// Dispatch slots won.
    pub received_slots: usize,
    /// Fairness ratio (share won / weighted fair share; 1.0 = exact
    /// entitlement).
    pub fairness_ratio: f64,
}

/// Outcome of a service session. Pure function of `(space,
/// ServiceConfig minus threads)`: thread count never changes any field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Master seed of the session.
    pub master_seed: u64,
    /// Per-tenant outcomes, in tenant declaration order.
    pub tenants: Vec<TenantReport>,
    /// Refused submissions, in refusal order.
    pub rejected: Vec<RejectedSubmission>,
    /// Scheduling rounds the session spanned.
    pub rounds: usize,
    /// p99 queue wait in rounds across admitted campaigns — the
    /// deterministic time-to-first-iteration proxy.
    pub p99_wait_rounds: usize,
    /// Mean queue wait in rounds across admitted campaigns.
    pub mean_wait_rounds: f64,
    /// The executed campaigns folded with the fleet's deterministic
    /// aggregation: per-campaign reports in **admission order**, plus
    /// per-cell summaries and totals.
    pub fleet: FleetReport,
}

fn percentile_wait(waits: &[usize], p: f64) -> usize {
    if waits.is_empty() {
        return 0;
    }
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fold a fully committed session into its report and merged ledger.
fn finish_session(
    cfg: &ServiceConfig,
    plan: &ServicePlan,
    slots: CommitSlots,
) -> (ServiceReport, FleetLedger) {
    let (fleet, ledger) = slots.finish(cfg.master_seed);
    debug_assert_eq!(fleet.reports.len(), plan.admitted.len());
    let waits: Vec<usize> = plan
        .admitted
        .iter()
        .map(AdmittedCampaign::wait_rounds)
        .collect();
    let mean_wait_rounds = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<usize>() as f64 / waits.len() as f64
    };
    let tenants = plan
        .tenants
        .iter()
        .map(|sched| {
            let mut completed = 0usize;
            let mut experiments = 0u64;
            let mut distinct = 0u64;
            let mut best = f64::NEG_INFINITY;
            let mut wait_sum = 0usize;
            let mut wait_max = 0usize;
            for (a, r) in plan.admitted.iter().zip(&fleet.reports) {
                if a.tenant != sched.name {
                    continue;
                }
                completed += 1;
                experiments += r.experiments;
                distinct += r.distinct_discoveries as u64;
                best = best.max(r.best_score);
                wait_sum += a.wait_rounds();
                wait_max = wait_max.max(a.wait_rounds());
            }
            TenantReport {
                name: sched.name.clone(),
                weight: sched.weight,
                submitted: sched.submitted,
                admitted: sched.admitted,
                rejected: sched.rejected,
                completed,
                experiments,
                distinct_discoveries: distinct,
                best_score: if best.is_finite() { best } else { 0.0 },
                mean_wait_rounds: if completed == 0 {
                    0.0
                } else {
                    wait_sum as f64 / completed as f64
                },
                max_wait_rounds: wait_max,
                contended_slots: sched.contended_slots,
                received_slots: sched.received_slots,
                fairness_ratio: plan
                    .fairness_ratio(&sched.name)
                    .expect("schedule names only registered tenants"),
            }
        })
        .collect();
    let report = ServiceReport {
        master_seed: cfg.master_seed,
        tenants,
        rejected: plan.rejected.clone(),
        rounds: plan.rounds,
        p99_wait_rounds: percentile_wait(&waits, 0.99),
        mean_wait_rounds,
        fleet,
    };
    (report, ledger)
}

/// Run every admitted campaign whose slot in `slots` (indexed by
/// admission) is still empty, in dispatch order, through the fleet's
/// commit-slot driver; commit at most `commit_cap` of them, and stream
/// each one to `observers` as it commits (see [`SessionStream`]).
fn drive_session(
    space: &MaterialsSpace,
    cfg: &ServiceConfig,
    plan: &ServicePlan,
    slots: &mut CommitSlots,
    commit_cap: Option<usize>,
    observers: &mut [&mut dyn LedgerObserver],
) {
    // The submitted config with the admission-derived seed spliced in.
    let tasks = plan.dispatch_order.iter().map(|&ai| {
        let a = &plan.admitted[ai];
        let mut c = cfg.submissions[a.submission_index].campaign.clone();
        c.seed = a.seed;
        (ai, c)
    });
    let mut stream = SessionStream::new(plan, observers);
    slots.drive(
        tasks,
        cfg.effective_threads(),
        commit_cap,
        false,
        |c| run_campaign_recorded(space, c),
        |ai, (_, ledger)| stream.campaign(ai, ledger),
    );
    stream.finish();
}

/// Run a full service session, streaming the whole schedule through the
/// given observer sinks.
///
/// Events are streamed in deterministic schedule order, round by round:
/// each round's admissions and rejections (in arrival order), then its
/// dispatches (in slot order), each dispatch followed by the dispatched
/// campaign's complete event stream. That order never depends on the
/// thread count; only when it arrives does. Each campaign is delivered
/// as soon as it and every campaign before it in dispatch order have
/// committed, together with the scheduling events of the rounds up to
/// its dispatch; the rounds after the last dispatch (which can only
/// refuse) follow the last campaign. Observers run on the calling thread
/// while the workers keep running, and only ever see committed work, so
/// observation can never perturb a campaign — the same one-way contract
/// every [`LedgerObserver`] sink already has.
pub fn run_service_observed(
    space: &MaterialsSpace,
    cfg: &ServiceConfig,
    observers: &mut [&mut dyn LedgerObserver],
) -> Result<(ServiceReport, FleetLedger), ServiceError> {
    let plan = plan_service(cfg)?;
    let mut slots = CommitSlots::new(plan.admitted.len(), true);
    drive_session(space, cfg, &plan, &mut slots, None, observers);
    Ok(finish_session(cfg, &plan, slots))
}

/// The live session stream: one forward cursor into each of the plan's
/// round-sorted lists. Admissions (admission order) and refusals
/// (refusal order) are walked here; dispatches (slot order) arrive one
/// committed campaign at a time from the executor. Streaming a session
/// therefore costs O(rounds + submissions) however many campaigns
/// commit.
struct SessionStream<'a, 'b> {
    plan: &'a ServicePlan,
    observers: &'a mut [&'b mut dyn LedgerObserver],
    /// First round whose admissions and refusals are not yet emitted.
    round: usize,
    /// Next admission to emit.
    admitted: usize,
    /// Next refusal to emit.
    rejected: usize,
}

impl<'a, 'b> SessionStream<'a, 'b> {
    fn new(plan: &'a ServicePlan, observers: &'a mut [&'b mut dyn LedgerObserver]) -> Self {
        SessionStream {
            plan,
            observers,
            round: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    fn emit(&mut self, event: &CampaignEvent) {
        for obs in self.observers.iter_mut() {
            obs.on_event(event);
        }
    }

    /// Emit the admissions, then the refusals, of every round before
    /// `until` that has not been emitted yet.
    fn rounds_before(&mut self, until: usize) {
        let plan = self.plan;
        while self.round < until {
            let round = self.round;
            while let Some(a) = plan
                .admitted
                .get(self.admitted)
                .filter(|a| a.admitted_round == round)
            {
                self.emit(&CampaignEvent::SubmissionAdmitted {
                    tenant: a.tenant.clone().into(),
                    admission_index: a.admission_index,
                    round,
                });
                self.admitted += 1;
            }
            while let Some(r) = plan
                .rejected
                .get(self.rejected)
                .filter(|r| r.round == round)
            {
                self.emit(&CampaignEvent::SubmissionRejected {
                    tenant: r.tenant.clone().into(),
                    submission_index: r.submission_index,
                    round,
                    reason: r.reason,
                });
                self.rejected += 1;
            }
            self.round += 1;
        }
    }

    /// Stream one committed campaign — the next in dispatch order: the
    /// rounds up to its dispatch, its `CampaignDispatched`, then its
    /// ledger.
    fn campaign(&mut self, admission_index: usize, ledger: &CampaignLedger) {
        if self.observers.is_empty() {
            return;
        }
        let a = &self.plan.admitted[admission_index];
        self.rounds_before(a.dispatched_round + 1);
        self.emit(&CampaignEvent::CampaignDispatched {
            tenant: a.tenant.clone().into(),
            admission_index,
            round: a.dispatched_round,
            slot: a.dispatch_slot,
        });
        // The campaign's stream is already one contiguous slice — deliver
        // it as a single batch per observer instead of a per-event
        // virtual call (identical order, identical stream; see
        // `LedgerObserver::on_batch`).
        for obs in self.observers.iter_mut() {
            obs.on_batch(&ledger.events);
        }
    }

    /// Flush the rounds left after the last dispatch: a session can end
    /// in rounds that only refuse.
    fn finish(&mut self) {
        if !self.observers.is_empty() {
            self.rounds_before(self.plan.rounds);
        }
    }
}

/// Run a full service session: admit, fair-share schedule, execute, and
/// aggregate. See [`run_service_observed`] to stream progress.
pub fn run_service(
    space: &MaterialsSpace,
    cfg: &ServiceConfig,
) -> Result<(ServiceReport, FleetLedger), ServiceError> {
    run_service_observed(space, cfg, &mut [])
}

/// A durable record of a partially executed service session: the
/// admission-order seed handshake plus every committed campaign's report
/// and ledger — the [`FleetLedgerCheckpoint`](crate::FleetLedgerCheckpoint)
/// recipe applied to the service queue.
///
/// The pending queue itself is *not* stored: the schedule is a pure
/// function of the config ([`plan_service`]), so resume re-derives it
/// and re-runs exactly the admissions whose slots are `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Master seed of the interrupted session.
    pub master_seed: u64,
    /// Derived seed per admitted campaign, in admission order — the
    /// resume handshake.
    pub seeds: Vec<u64>,
    /// Committed per-campaign reports, in admission order (`None` =
    /// lost in flight or never dispatched; re-run on resume).
    pub completed: Vec<Option<CampaignReport>>,
    /// Committed per-campaign ledgers, in admission order.
    pub ledgers: Vec<Option<CampaignLedger>>,
    /// Audit trail of the interruption itself (kill + checkpoint
    /// events). Deliberately not part of the merged session ledger: the
    /// uninterrupted session never crashed.
    pub events: Vec<CampaignEvent>,
}

impl ServiceCheckpoint {
    /// Campaigns whose reports committed.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|c| c.is_some()).count()
    }

    /// Campaigns still to run on resume.
    pub fn remaining_count(&self) -> usize {
        self.completed.len() - self.completed_count()
    }

    /// Whether every admitted campaign committed.
    pub fn is_complete(&self) -> bool {
        self.remaining_count() == 0
    }
}

/// Why a service resume was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceResumeError {
    /// The config itself no longer plans (see [`ServiceError`]).
    Plan(ServiceError),
    /// The checkpoint failed the resume handshake every fleet and service
    /// checkpoint shares (slot = admission index).
    Checkpoint(FleetResumeError),
}

impl std::fmt::Display for ServiceResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceResumeError::Plan(e) => write!(f, "config no longer plans: {e}"),
            ServiceResumeError::Checkpoint(e) => write!(f, "checkpoint refused: {e}"),
        }
    }
}

impl std::error::Error for ServiceResumeError {}

/// Run a service session until `max_commits` campaigns have committed,
/// then die — the chaos entry point for service restart tests.
///
/// Work in flight at the kill is lost, exactly like a coordinator
/// `kill -9`: which campaigns committed depends on scheduling and is
/// *not* deterministic across thread counts. That is the point — the
/// resume invariant must hold from any crash state, and
/// [`resume_service`] reconstructs the identical session outputs from
/// every one of them.
pub fn run_service_until(
    space: &MaterialsSpace,
    cfg: &ServiceConfig,
    max_commits: usize,
) -> Result<ServiceCheckpoint, ServiceError> {
    let plan = plan_service(cfg)?;
    let mut slots = CommitSlots::new(plan.admitted.len(), true);
    drive_session(space, cfg, &plan, &mut slots, Some(max_commits), &mut []);
    Ok(ServiceCheckpoint {
        master_seed: cfg.master_seed,
        seeds: plan.admitted.iter().map(|a| a.seed).collect(),
        events: slots.kill_events(),
        completed: slots.reports,
        ledgers: slots.ledgers,
    })
}

/// Resume an interrupted service session: re-derive the schedule, verify
/// the checkpoint handshake, re-run only the campaigns that never
/// committed, and splice reports *and ledgers* in admission order.
///
/// Both the [`ServiceReport`] and the merged [`FleetLedger`] are
/// **byte-identical** to the uninterrupted [`run_service`] outputs — at
/// any thread count on either side of the kill. The restart is invisible
/// to any downstream audit that replays the session ledger.
pub fn resume_service(
    space: &MaterialsSpace,
    cfg: &ServiceConfig,
    checkpoint: &ServiceCheckpoint,
) -> Result<(ServiceReport, FleetLedger), ServiceResumeError> {
    let plan = plan_service(cfg).map_err(ServiceResumeError::Plan)?;
    let seeds: Vec<u64> = plan.admitted.iter().map(|a| a.seed).collect();
    let mut slots = CommitSlots::resume(
        &seeds,
        &checkpoint.seeds,
        &checkpoint.completed,
        Some(&checkpoint.ledgers),
    )
    .map_err(ServiceResumeError::Checkpoint)?;
    drive_session(space, cfg, &plan, &mut slots, None, &mut []);
    Ok(finish_session(cfg, &plan, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Cell;
    use evoflow_sim::SimDuration;

    fn space() -> MaterialsSpace {
        MaterialsSpace::generate(3, 8, 20260808)
    }

    fn campaign() -> CampaignConfig {
        let mut c = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
        c.horizon = SimDuration::from_days(1);
        c
    }

    fn two_tenant_config() -> ServiceConfig {
        let mut cfg = ServiceConfig::new(11);
        cfg.threads = 1;
        cfg.push_tenant(TenantSpec::new("alice").with_weight(2));
        cfg.push_tenant(TenantSpec::new("bob"));
        for _ in 0..3 {
            cfg.submit("alice", campaign());
            cfg.submit("bob", campaign());
        }
        cfg
    }

    #[test]
    fn plan_is_deterministic_and_conserving() {
        let cfg = two_tenant_config();
        let a = plan_service(&cfg).unwrap();
        let b = plan_service(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.admitted.len() + a.rejected.len(), cfg.submissions.len());
        assert_eq!(a.dispatch_order.len(), a.admitted.len());
        let mut sorted = a.dispatch_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.admitted.len()).collect::<Vec<_>>());
    }

    #[test]
    fn admission_seeds_are_distinct_and_derived() {
        let plan = plan_service(&two_tenant_config()).unwrap();
        let seeds: std::collections::BTreeSet<u64> = plan.admitted.iter().map(|a| a.seed).collect();
        assert_eq!(seeds.len(), plan.admitted.len());
        let reg = RngRegistry::new(11);
        assert_eq!(
            plan.admitted[0].seed,
            reg.shard_seed(SERVICE_SHARD_LABEL, 0)
        );
    }

    #[test]
    fn stride_dispatch_respects_weights() {
        // alice (weight 2) should win two slots for every one of bob's
        // while both are backlogged.
        let mut cfg = ServiceConfig::new(5);
        cfg.threads = 1;
        cfg.ingest_per_round = 100;
        cfg.dispatch_per_round = 1;
        cfg.push_tenant(TenantSpec::new("alice").with_weight(2).with_max_queued(100));
        cfg.push_tenant(TenantSpec::new("bob").with_max_queued(100));
        for _ in 0..6 {
            cfg.submit("alice", campaign());
        }
        for _ in 0..3 {
            cfg.submit("bob", campaign());
        }
        let plan = plan_service(&cfg).unwrap();
        // First 9 slots: alice, bob, alice, alice, bob, alice, ...
        let owners: Vec<&str> = plan
            .dispatch_order
            .iter()
            .map(|&ai| plan.admitted[ai].tenant.as_str())
            .collect();
        let alice_in_first_six = owners[..6].iter().filter(|t| **t == "alice").count();
        assert_eq!(alice_in_first_six, 4, "weighted share violated: {owners:?}");
        assert!((plan.fairness_ratio("alice").unwrap() - 1.0).abs() < 0.35);
        assert!((plan.fairness_ratio("bob").unwrap() - 1.0).abs() < 0.55);
        assert_eq!(plan.fairness_ratio("nobody"), None);
    }

    #[test]
    fn quota_rejections_are_typed_and_exact() {
        let mut cfg = ServiceConfig::new(9);
        cfg.threads = 1;
        cfg.ingest_per_round = 10;
        cfg.dispatch_per_round = 1;
        cfg.push_tenant(TenantSpec::new("alice").with_max_queued(2));
        for _ in 0..10 {
            cfg.submit("alice", campaign());
        }
        cfg.submit("mallory", campaign());
        let plan = plan_service(&cfg).unwrap();
        // Round 0 ingests 10: 2 admitted, 8 queue-full. Later rounds
        // ingest the mallory submission (unknown tenant).
        assert!(plan
            .rejected
            .iter()
            .any(|r| r.reason == RejectReason::QueueFull));
        assert!(plan
            .rejected
            .iter()
            .any(|r| r.reason == RejectReason::UnknownTenant && r.tenant == "mallory"));
        assert_eq!(plan.admitted.len() + plan.rejected.len(), 11);
        // Queue depth never exceeds the quota: check by replaying
        // admitted/dispatched rounds.
        for round in 0..plan.rounds {
            let depth = plan
                .admitted
                .iter()
                .filter(|a| a.admitted_round <= round && a.dispatched_round > round)
                .count();
            assert!(depth <= 2, "queue depth {depth} at round {round}");
        }
    }

    #[test]
    fn admission_cap_rejects_beyond_session_budget() {
        let mut cfg = ServiceConfig::new(9);
        cfg.threads = 1;
        cfg.push_tenant(
            TenantSpec::new("alice")
                .with_max_admitted(2)
                .with_max_queued(50),
        );
        for _ in 0..5 {
            cfg.submit("alice", campaign());
        }
        let plan = plan_service(&cfg).unwrap();
        assert_eq!(plan.admitted.len(), 2);
        assert_eq!(
            plan.rejected
                .iter()
                .filter(|r| r.reason == RejectReason::AdmissionCapExhausted)
                .count(),
            3
        );
    }

    #[test]
    fn invalid_configs_are_refused_and_zeros_normalise() {
        let mut cfg = ServiceConfig::new(1);
        cfg.push_tenant(TenantSpec::new("a"));
        cfg.submit("a", campaign());
        cfg.push_tenant(TenantSpec::new("a"));
        assert_eq!(
            plan_service(&cfg),
            Err(ServiceError::DuplicateTenant { name: "a".into() })
        );

        // Zeroed knobs (what a legacy decode produces) plan exactly like
        // the documented defaults, so no config can stall the scheduler.
        let mut zeroed = ServiceConfig::new(1);
        zeroed.threads = 1;
        zeroed.ingest_per_round = 0;
        zeroed.dispatch_per_round = 0;
        zeroed.push_tenant(TenantSpec {
            name: "a".into(),
            weight: 0,
            max_queued: 0,
            max_admitted: 0,
        });
        for _ in 0..5 {
            zeroed.submit("a", campaign());
        }
        let mut explicit = zeroed.clone();
        explicit.ingest_per_round = DEFAULT_INGEST_PER_ROUND;
        explicit.dispatch_per_round = DEFAULT_DISPATCH_PER_ROUND;
        explicit.tenants[0].weight = 1;
        let zero_plan = plan_service(&zeroed).unwrap();
        assert_eq!(zero_plan, plan_service(&explicit).unwrap());
        assert_eq!(zero_plan.admitted.len(), 5);
        assert!(zero_plan.rejected.is_empty(), "no quotas declared");

        // An empty service plans to an empty session.
        let plan = plan_service(&ServiceConfig::new(1)).unwrap();
        assert_eq!(plan.rounds, 0);
        assert!(plan.admitted.is_empty());
    }

    #[test]
    fn service_report_is_thread_count_invariant() {
        let space = space();
        let mut cfg = two_tenant_config();
        let (serial_report, serial_ledger) = run_service(&space, &cfg).unwrap();
        for threads in [2usize, 4] {
            cfg.threads = threads;
            let (r, l) = run_service(&space, &cfg).unwrap();
            assert_eq!(r, serial_report, "threads={threads}");
            assert_eq!(l, serial_ledger, "threads={threads}");
        }
    }

    #[test]
    fn killed_service_resumes_to_identical_outputs() {
        let space = space();
        let cfg = two_tenant_config();
        let (report, ledger) = run_service(&space, &cfg).unwrap();
        for kill_after in 0..=6usize {
            let ckpt = run_service_until(&space, &cfg, kill_after).unwrap();
            assert!(ckpt.completed_count() <= kill_after);
            let (r, l) = resume_service(&space, &cfg, &ckpt).unwrap();
            assert_eq!(r, report, "kill_after={kill_after}");
            assert_eq!(l, ledger, "kill_after={kill_after}");
        }
    }

    #[test]
    fn resume_refuses_drifted_configs() {
        let space = space();
        let cfg = two_tenant_config();
        let ckpt = run_service_until(&space, &cfg, 2).unwrap();

        let mut other = cfg.clone();
        other.master_seed = 999;
        assert_eq!(
            resume_service(&space, &other, &ckpt).unwrap_err(),
            ServiceResumeError::Checkpoint(FleetResumeError::SeedMismatch { index: 0 })
        );

        let mut bigger = cfg.clone();
        bigger.submit("alice", campaign());
        assert!(matches!(
            resume_service(&space, &bigger, &ckpt).unwrap_err(),
            ServiceResumeError::Checkpoint(FleetResumeError::ShapeMismatch { .. })
        ));

        let mut torn = ckpt.clone();
        let committed = torn.completed.iter().position(|c| c.is_some()).unwrap();
        torn.ledgers[committed] = None;
        assert_eq!(
            resume_service(&space, &cfg, &torn).unwrap_err(),
            ServiceResumeError::Checkpoint(FleetResumeError::LedgerMismatch { index: committed })
        );

        let mut broken = cfg.clone();
        broken.push_tenant(TenantSpec::new("alice"));
        assert_eq!(
            resume_service(&space, &broken, &ckpt).unwrap_err(),
            ServiceResumeError::Plan(ServiceError::DuplicateTenant {
                name: "alice".into()
            })
        );
    }

    #[test]
    fn checkpoint_audit_trail_reflects_actual_commits() {
        let space = space();
        let cfg = two_tenant_config();
        let ckpt = run_service_until(&space, &cfg, 100).unwrap();
        assert!(ckpt.is_complete());
        assert!(ckpt
            .events
            .contains(&CampaignEvent::CoordinatorKilled { after_commits: 6 }));
        assert!(ckpt.events.contains(&CampaignEvent::CheckpointTaken {
            committed: 6,
            total: 6
        }));
    }

    #[test]
    fn observed_session_streams_schedule_and_campaign_events() {
        let space = space();
        let mut cfg = two_tenant_config();
        cfg.submit("mallory", campaign()); // one rejection in the stream
        let mut tape = crate::ledger::CampaignLedger::new();
        let (report, ledger) = run_service_observed(&space, &cfg, &mut [&mut tape]).unwrap();
        let admitted = report.tenants.iter().map(|t| t.admitted).sum::<usize>();
        let dispatched = tape
            .events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::CampaignDispatched { .. }))
            .count();
        let admissions = tape
            .events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::SubmissionAdmitted { .. }))
            .count();
        let rejections = tape
            .events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::SubmissionRejected { .. }))
            .count();
        assert_eq!(admissions, admitted);
        assert_eq!(dispatched, admitted);
        assert_eq!(rejections, 1);
        // Total stream = scheduling events + every campaign's events.
        assert_eq!(
            tape.events.len(),
            admissions + rejections + dispatched + ledger.total_events()
        );
        // Streaming never perturbs the session.
        let (unobserved, _) = run_service(&space, &cfg).unwrap();
        assert_eq!(unobserved, report);
    }

    #[test]
    fn zero_lane_submission_runs_like_a_derived_one() {
        // One tenant's `lanes: Some(0)` must not panic a worker and take
        // every tenant's session down: 0 means "derive from composition".
        let space = space();
        let derived = two_tenant_config();
        let expected = run_service(&space, &derived).unwrap();
        let mut zero = derived.clone();
        zero.submissions[0].campaign.lanes = Some(0);
        for threads in [1usize, 2] {
            zero.threads = threads;
            let (report, ledger) = run_service(&space, &zero).unwrap();
            assert_eq!(report, expected.0, "threads={threads}");
            assert_eq!(ledger, expected.1, "threads={threads}");
        }
    }

    #[test]
    fn percentile_wait_is_exact_on_edges() {
        assert_eq!(percentile_wait(&[], 0.99), 0);
        assert_eq!(percentile_wait(&[4], 0.99), 4);
        let waits: Vec<usize> = (1..=100).collect();
        assert_eq!(percentile_wait(&waits, 0.99), 99);
        assert_eq!(percentile_wait(&waits, 0.5), 50);
    }
}
