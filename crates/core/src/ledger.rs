//! The event-sourced campaign ledger: one deterministic event stream
//! through campaign → fleet → federated execution.
//!
//! The paper's autonomous-science vision stands on end-to-end provenance
//! of agentic decisions (§4.2): every hypothesis, proposal, observation,
//! and placement must be reconstructable after the fact. Before this
//! module, each layer kept private bookkeeping — the campaign loop
//! in-lined its librarian calls, the fleet buffered reports, the
//! federation folded placements straight into its report. The ledger
//! replaces those silos with **one append-only event stream**:
//!
//! * [`CampaignEvent`] — the serializable, seed-deterministic event
//!   vocabulary, covering the discovery loop (iteration started,
//!   candidate proposed with its rationale, result observed, gate and Ω
//!   decisions), the fleet lifecycle (checkpoint taken, coordinator
//!   killed), and the federation (placement, transfer, outage).
//! * [`LedgerObserver`] — the pluggable sink trait. Every event is
//!   pushed to every observer as it happens; sinks never feed anything
//!   back into the run, so observation cannot perturb determinism.
//! * Shipped sinks: [`CampaignLedger`] (the durable stream itself),
//!   [`KnowledgeSink`] (logs the knowledge graph + PROV records the
//!   events imply and builds those stores when they are read — the
//!   librarian's old in-line duty), [`MetricsSink`]
//!   (bridges events into an [`evoflow_sim`] [`MetricsRegistry`]), and
//!   [`RingTelemetry`] (a bounded live-tail buffer for dashboards).
//! * [`replay_ledger`] — the payoff: reconstructs a
//!   [`CampaignReport`] *and* the provenance/knowledge stores purely
//!   from the event stream; the report is byte-identical to the live
//!   run's, and the stores are those the librarian builds from the same
//!   records. The ledger is therefore sufficient evidence for everything
//!   the report claims — the audit + debugging substrate §4.2 calls for.
//!   [`replay_fleet_ledger`] folds a fleet's campaigns in parallel,
//!   checks each campaign's seed against its position, and builds no
//!   stores.
//!
//! **Determinism contract.** Events are emitted at fixed points in the
//! campaign loop and carry exact simulated times ([`SimTime`] /
//! [`SimDuration`] are integer nanoseconds) and exact measured values.
//! Two runs with the same config produce byte-identical serialized
//! ledgers; a fleet's merged ledger ([`FleetLedger`]) is byte-identical
//! at any thread count and across a coordinator kill + resume.
//!
//! ```
//! use evoflow_core::{replay_ledger, run_campaign_recorded, CampaignConfig, Cell, MaterialsSpace};
//! use evoflow_sim::SimDuration;
//!
//! let space = MaterialsSpace::generate(3, 8, 42);
//! let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 7);
//! cfg.horizon = SimDuration::from_days(1);
//!
//! let (live, ledger) = run_campaign_recorded(&space, &cfg);
//! let replayed = replay_ledger(&ledger).expect("well-formed ledger");
//! assert_eq!(replayed.report, live);
//! assert_eq!(replayed.provenance.activity_count(), live.prov_activities);
//! ```

use crate::campaign::{CampaignReport, CampaignTally};
use crate::fleet::{
    execute_fleet_tasks_steal_timed, worker_threads, FleetReport, FLEET_SHARD_LABEL,
};
use crate::service::{RejectReason, SERVICE_SHARD_LABEL};
use evoflow_agents::LibrarianAgent;
use evoflow_cogsim::TokenUsage;
use evoflow_knowledge::{KnowledgeGraph, ProvenanceStore};
use evoflow_sim::{MetricsRegistry, RngRegistry, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;

pub mod wire;

pub use wire::{LedgerEncoding, WireError};

/// One entry in the campaign ledger.
///
/// Variants cover all three execution layers; a *campaign* ledger (the
/// stream [`run_campaign_recorded`](crate::run_campaign_recorded) emits)
/// contains only the discovery-loop variants, bracketed by
/// [`CampaignStarted`](CampaignEvent::CampaignStarted) and
/// [`CampaignFinished`](CampaignEvent::CampaignFinished). Fleet and
/// federation variants appear in checkpoint audit trails and in
/// [`FederatedReport::events`](crate::FederatedReport::events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// The campaign began: everything replay needs that is config-derived.
    CampaignStarted {
        /// Cell label (including any planner override descriptor).
        cell_label: Cow<'static, str>,
        /// Campaign master seed.
        seed: u64,
        /// Planner descriptor actually running the decide step.
        planner: Cow<'static, str>,
        /// Parallel lanes.
        lanes: usize,
        /// Simulated campaign length.
        horizon: SimDuration,
        /// Discovery threshold of the landscape.
        threshold: f64,
        /// Sample budget.
        max_experiments: u64,
        /// Whether knowledge-graph + provenance ingestion is on for this
        /// run (the config flag AND the planner's duty).
        records_knowledge: bool,
    },
    /// A lane entered its decision phase.
    IterationStarted {
        /// Lane index.
        lane: usize,
        /// Lane clock when the decision was requested.
        at: SimTime,
        /// When the decision (human or inference) completed.
        decision_ready: SimTime,
    },
    /// The planner proposed one candidate, with its full rationale.
    CandidateProposed {
        /// Lane index.
        lane: usize,
        /// Design-space coordinates.
        params: Vec<f64>,
        /// Generated rationale text. A `Cow` end to end: fixed-policy
        /// planners hand the loop `&'static str` rationales, and the
        /// event clones the `Cow` — no per-candidate allocation anywhere
        /// between the planner and the sinks.
        rationale: Cow<'static, str>,
        /// Model confidence in \[0,1\].
        confidence: f64,
        /// Ground-truth hallucination flag (simulator-only).
        hallucinated: bool,
    },
    /// The batch was scheduled onto the lane's instruments.
    ExecutionScheduled {
        /// Lane index.
        lane: usize,
        /// Candidates in the batch.
        batch: usize,
        /// Execution time charged to the lane.
        duration: SimDuration,
        /// When the batch completes.
        done_at: SimTime,
    },
    /// One experiment executed and was measured.
    ResultObserved {
        /// Lane index.
        lane: usize,
        /// 1-based experiment ordinal campaign-wide.
        experiment: u64,
        /// Measured figure of merit.
        score: f64,
        /// Whether the measurement crossed the discovery threshold.
        hit: bool,
        /// Latent peak attributed to the measurement, if it was a hit.
        peak: Option<usize>,
        /// Cumulative planner input tokens at observation time.
        tokens_in: u64,
        /// Cumulative planner output tokens at observation time.
        tokens_out: u64,
    },
    /// The validation gate's running rejection count changed.
    GateDecision {
        /// Lane whose iteration surfaced the change.
        lane: usize,
        /// Cumulative proposals rejected by the gate.
        rejected_total: u64,
    },
    /// The meta-optimizer Ω issued a strategy rewrite.
    OmegaRewrite {
        /// Lane whose iteration surfaced the rewrite.
        lane: usize,
        /// Cumulative rewrites issued.
        rewrites_total: u32,
    },
    /// A lane's iteration completed.
    IterationEnded {
        /// Lane index.
        lane: usize,
        /// Candidates the planner proposed this iteration (the tail may
        /// not have executed if the sample budget ran out mid-batch —
        /// count `ResultObserved` events for executions).
        proposed: usize,
        /// Hits among the candidates actually run.
        hits: u64,
        /// Cumulative simulated inference tokens after this iteration.
        tokens_total: u64,
    },
    /// The campaign ended. Carries every total the final report derives
    /// from the stream, so replay can cross-check its entire
    /// reconstruction — any event edit that shifts any report field is
    /// detected as an [`ReplayError::IntegrityMismatch`].
    CampaignFinished {
        /// Experiments executed.
        experiments: u64,
        /// Above-threshold measurements.
        total_hits: u64,
        /// Distinct latent peaks discovered.
        distinct_discoveries: usize,
        /// Best measured score (0 when no experiment ran).
        best_score: f64,
        /// Hours until the first discovery, if any.
        time_to_first_hours: Option<f64>,
        /// Total hours lanes spent waiting on decisions.
        decision_wait_hours: f64,
        /// Total hours lanes spent executing experiments.
        execution_hours: f64,
        /// Proposals rejected by the validation gate.
        rejected_proposals: u64,
        /// Ω strategy rewrites issued.
        omega_rewrites: u32,
        /// Knowledge-graph nodes recorded.
        kg_nodes: usize,
        /// Provenance activities recorded.
        prov_activities: usize,
        /// Total simulated inference tokens consumed.
        tokens: u64,
    },

    // ---- fleet layer --------------------------------------------------------
    /// A fleet checkpoint was written.
    CheckpointTaken {
        /// Campaigns whose reports committed.
        committed: usize,
        /// Campaigns in the fleet.
        total: usize,
    },
    /// The fleet coordinator was killed (seeded chaos injection).
    CoordinatorKilled {
        /// Commits after which the coordinator died.
        after_commits: usize,
    },

    // ---- federated layer ----------------------------------------------------
    /// A campaign was placed onto a facility.
    CampaignPlaced {
        /// Campaign (shard) index.
        campaign: usize,
        /// Facility chosen by the placement policy.
        facility: Cow<'static, str>,
        /// Nodes requested.
        nodes: u64,
        /// Submission time at the facility.
        arrival: SimTime,
        /// Whether this placement re-routed work off a drained facility.
        evacuation: bool,
    },
    /// Input data moved across the federation's fabric.
    DataTransferred {
        /// Campaign whose data moved.
        campaign: usize,
        /// Source site.
        from: Cow<'static, str>,
        /// Destination site.
        to: Cow<'static, str>,
        /// Gigabytes moved.
        gigabytes: f64,
        /// Fabric transfer time.
        duration: SimDuration,
        /// Whether this was an outage evacuation.
        evacuation: bool,
    },
    /// A facility outage drained a site.
    OutageStruck {
        /// Name of the drained facility.
        site: Cow<'static, str>,
        /// When the drain fired.
        at: SimTime,
        /// Queued campaigns re-routed to survivors.
        rerouted: usize,
    },

    // ---- service layer ------------------------------------------------------
    /// The multi-tenant service admitted a submission into its queue.
    SubmissionAdmitted {
        /// Tenant that submitted the campaign.
        tenant: Cow<'static, str>,
        /// Admission index (derives the campaign's seed).
        admission_index: usize,
        /// Scheduling round in which admission happened.
        round: usize,
    },
    /// The multi-tenant service refused a submission at the door.
    SubmissionRejected {
        /// Tenant that submitted the campaign.
        tenant: Cow<'static, str>,
        /// Index of the submission in the arrival trace.
        submission_index: usize,
        /// Scheduling round in which the refusal happened.
        round: usize,
        /// Typed refusal reason. Serialized as its stable kebab-case
        /// [`RejectReason::label`] (never the Rust variant name), so a
        /// rename in source cannot silently re-key archived audits —
        /// and an audit can never be broken by a message-text edit.
        reason: RejectReason,
    },
    /// A queued campaign was handed to the fleet executor.
    CampaignDispatched {
        /// Tenant that owns the campaign.
        tenant: Cow<'static, str>,
        /// Admission index of the dispatched campaign.
        admission_index: usize,
        /// Scheduling round of the dispatch.
        round: usize,
        /// Global dispatch slot (total order over all dispatches).
        slot: usize,
    },

    // ---- ensemble layer -----------------------------------------------------
    // Campaign-scoped (the discovery loop surfaces them between
    // `IterationStarted` and `IterationEnded`), appended after the
    // service variants because wire tags are declaration order and
    // frozen.
    /// One validated ACL exchange between two ensemble specialists.
    EnsembleMessage {
        /// Lane whose iteration carried the exchange.
        lane: usize,
        /// Ensemble round ordinal (monotone across the campaign).
        round: u64,
        /// Stable kebab-case performative label
        /// (`evoflow_protocol::Performative::label`).
        performative: Cow<'static, str>,
        /// Sending specialist role.
        sender: Cow<'static, str>,
        /// Receiving specialist role.
        receiver: Cow<'static, str>,
        /// ACL conversation correlation id.
        conversation: u64,
        /// Size of the checksummed wire frame the message round-tripped
        /// through, in bytes.
        frame_bytes: u64,
    },
    /// One seeded pairwise tournament match between two hypotheses.
    TournamentMatch {
        /// Lane whose iteration ran the match.
        lane: usize,
        /// Ensemble round ordinal.
        round: u64,
        /// Pool index of the first contender.
        left: usize,
        /// Pool index of the second contender.
        right: usize,
        /// Pool index of the winner (always `left` or `right`).
        winner: usize,
        /// Winner's utility minus loser's utility.
        margin: f64,
    },
    /// A meta-review pass reweighted the specialist pool.
    MetaReview {
        /// Lane whose iteration triggered the review.
        lane: usize,
        /// Ensemble round ordinal.
        round: u64,
        /// Share of each batch sourced from the generator after review.
        generator_weight: f64,
        /// Share of each batch sourced from the evolver after review.
        evolver_weight: f64,
        /// Reflection critiques folded into the evidence store so far.
        critiques: u64,
    },
}

// `kind` and `metric_key` are generated, with the wire codec, from the
// record layout table in `ledger/wire.rs`.
impl CampaignEvent {
    /// Whether the variant belongs to the campaign discovery loop (the
    /// only variants allowed inside a [`CampaignLedger`] being replayed).
    pub fn is_campaign_scoped(&self) -> bool {
        !matches!(
            self,
            CampaignEvent::CheckpointTaken { .. }
                | CampaignEvent::CoordinatorKilled { .. }
                | CampaignEvent::CampaignPlaced { .. }
                | CampaignEvent::DataTransferred { .. }
                | CampaignEvent::OutageStruck { .. }
                | CampaignEvent::SubmissionAdmitted { .. }
                | CampaignEvent::SubmissionRejected { .. }
                | CampaignEvent::CampaignDispatched { .. }
        )
    }
}

/// A pluggable event sink. Observers are fed every event in emission
/// order; they must never feed anything back into the run (the stream is
/// strictly one-way, so observation cannot perturb determinism).
pub trait LedgerObserver {
    /// Ingest one event.
    fn on_event(&mut self, event: &CampaignEvent);

    /// Ingest a contiguous run of events in emission order.
    ///
    /// The default forwards each event to [`on_event`](Self::on_event),
    /// so every observer sees the exact same stream whether the producer
    /// emits one event at a time or flushes an [`EventBatch`]. Sinks
    /// with a cheaper bulk path (e.g. [`CampaignLedger`] reserving once
    /// per batch) override this; the override must be observationally
    /// identical to the per-event loop.
    fn on_batch(&mut self, events: &[CampaignEvent]) {
        for event in events {
            self.on_event(event);
        }
    }
}

/// A reusable buffer of pending events between flushes — the allocation
/// discipline of the recording hot loop.
///
/// `run_campaign_observed` pushes events here instead of fanning each one
/// out to every observer immediately, then flushes at iteration
/// boundaries. The backing `Vec` keeps its capacity across flushes, so
/// after the first iteration the emission path allocates nothing for
/// batch bookkeeping. Flushing preserves emission order exactly —
/// observers cannot distinguish a batched producer from a per-event one.
#[derive(Debug, Default)]
pub struct EventBatch {
    buf: Vec<CampaignEvent>,
    flushes: u64,
    emitted: u64,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue one event for the next flush.
    pub fn push(&mut self, event: CampaignEvent) {
        self.buf.push(event);
    }

    /// Events currently queued (unflushed).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Deliver all queued events to every observer via
    /// [`LedgerObserver::on_batch`], in order, then clear the buffer
    /// (retaining its capacity). Empty flushes are free and uncounted.
    /// Returns the number of events delivered.
    pub fn flush(&mut self, observers: &mut [&mut dyn LedgerObserver]) -> usize {
        if self.buf.is_empty() {
            return 0;
        }
        for obs in observers.iter_mut() {
            obs.on_batch(&self.buf);
        }
        let n = self.buf.len();
        self.flushes += 1;
        self.emitted += n as u64;
        self.buf.clear();
        n
    }

    /// Batches flushed so far (empty flushes excluded).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Events delivered across all flushes.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// The durable event stream of one campaign — itself an observer, so a
/// recording run simply registers the ledger as a sink.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignLedger {
    /// Events in emission order.
    pub events: Vec<CampaignEvent>,
}

impl CampaignLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ledger holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl LedgerObserver for CampaignLedger {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.events.push(event.clone());
    }

    fn on_batch(&mut self, events: &[CampaignEvent]) {
        // One reservation per batch instead of amortized doubling on
        // every push — the bulk fast path the recording loop relies on.
        self.events.extend_from_slice(events);
    }
}

/// The merged event streams of a fleet: one [`CampaignLedger`] per
/// campaign, in shard (task) order. A pure function of `(space,
/// FleetConfig minus threads)`: byte-identical at any thread count and
/// across a coordinator kill + resume (see
/// [`resume_campaign_fleet_recorded`](crate::resume_campaign_fleet_recorded)).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetLedger {
    /// Master seed of the fleet the ledgers were recorded under.
    pub master_seed: u64,
    /// Per-campaign ledgers, in shard order.
    pub campaigns: Vec<CampaignLedger>,
}

impl FleetLedger {
    /// Total events across every campaign ledger.
    pub fn total_events(&self) -> usize {
        self.campaigns.iter().map(CampaignLedger::len).sum()
    }
}

/// Records the knowledge graph and PROV provenance store an event stream
/// implies, the librarian's duty as a sink. Configures itself from
/// [`CampaignEvent::CampaignStarted`] (threshold + whether recording is
/// on), buffers proposals, and logs one hypothesis → experiment → result
/// record per observed result.
///
/// The stores are built only when someone reads them: the sink keeps a
/// log of what [`LibrarianAgent::record_iteration`] needs per record,
/// derives its counts from the log's length and the librarian's
/// per-iteration constants, and replays the log through
/// `record_iteration`, in order, in [`into_stores`](Self::into_stores).
/// [`replay_ledger`] feeds one every campaign event and builds the stores
/// from it. A fleet replay reads only the counts, so its fold follows the
/// same pairing rule over a log that clones no proposal and keeps only
/// its length. Either way, the counts are the stream-derived side of the
/// audit's `kg_nodes` and `prov_activities` checks. A live campaign runs
/// no sink; its counts follow from its experiment count.
#[derive(Debug, Default)]
pub struct KnowledgeSink(Pairing<Rationales>);

impl KnowledgeSink {
    /// A sink that waits for a `CampaignStarted` event to configure
    /// itself (disabled until then).
    pub fn new() -> Self {
        Self::default()
    }

    /// Knowledge-graph nodes recorded.
    pub fn node_count(&self) -> usize {
        self.0.node_count()
    }

    /// Provenance activities recorded.
    pub fn activity_count(&self) -> usize {
        self.0.activity_count()
    }

    /// Provenance entities recorded.
    pub fn entity_count(&self) -> usize {
        self.0.log.len() * LibrarianAgent::ENTITIES_PER_ITERATION
    }

    /// Consume the sink, building the stores from its log.
    pub fn into_stores(self) -> (KnowledgeGraph, ProvenanceStore) {
        self.0.into_stores()
    }
}

impl LedgerObserver for KnowledgeSink {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.0.on_event(event);
    }
}

/// What a [`Pairing`] keeps of each queued proposal and of each matched
/// pair.
pub(crate) trait Keep {
    type Proposal: std::fmt::Debug;
    type Record: std::fmt::Debug;
    /// Keep a proposal; `hypothesis` clones its rationale and
    /// hallucination flag, the only parts the librarian reads.
    fn proposal(hypothesis: impl FnOnce() -> (Cow<'static, str>, bool)) -> Self::Proposal;
    /// Keep a pair.
    fn record(
        proposal: Self::Proposal,
        score: f64,
        usage: TokenUsage,
        threshold: f64,
    ) -> Self::Record;
}

/// [`KnowledgeSink`]'s log: each proposal as its rationale and
/// hallucination flag, each pair as one
/// [`LibrarianAgent::record_iteration`] call.
#[derive(Debug)]
pub(crate) struct Rationales;

impl Keep for Rationales {
    type Proposal = (Cow<'static, str>, bool);
    type Record = KnowledgeRecord;
    fn proposal(hypothesis: impl FnOnce() -> Self::Proposal) -> Self::Proposal {
        hypothesis()
    }
    fn record(
        (rationale, hallucinated): Self::Proposal,
        score: f64,
        usage: TokenUsage,
        threshold: f64,
    ) -> KnowledgeRecord {
        KnowledgeRecord {
            rationale,
            hallucinated,
            score,
            usage,
            threshold,
        }
    }
}

/// A fleet replay's log, which only counts: it keeps `()` of each
/// proposal and pair, and a `Vec` or `VecDeque` of a zero-sized type
/// never allocates, so the log is its length and nothing is cloned.
#[derive(Debug)]
pub(crate) struct Counts;

impl Keep for Counts {
    type Proposal = ();
    type Record = ();
    fn proposal(_: impl FnOnce() -> (Cow<'static, str>, bool)) {}
    fn record(_: (), _: f64, _: TokenUsage, _: f64) {}
}

/// The knowledge pairing rule, written once for every log `K` keeps.
/// `CampaignStarted` sets the threshold and whether knowledge is
/// recorded. While it is, each proposal queues and each result pairs
/// with the oldest queued proposal: proposals observe in FIFO order
/// within an iteration. `IterationEnded` drops the budget-capped tail
/// that never observed.
#[derive(Debug)]
pub(crate) struct Pairing<K: Keep> {
    log: Vec<K::Record>,
    pending: VecDeque<K::Proposal>,
    threshold: f64,
    enabled: bool,
}

impl<K: Keep> Default for Pairing<K> {
    fn default() -> Self {
        Pairing {
            log: Vec::new(),
            pending: VecDeque::new(),
            threshold: 0.0,
            enabled: false,
        }
    }
}

impl<K: Keep> Pairing<K> {
    fn node_count(&self) -> usize {
        self.log.len() * LibrarianAgent::NODES_PER_ITERATION
    }

    fn activity_count(&self) -> usize {
        self.log.len() * LibrarianAgent::ACTIVITIES_PER_ITERATION
    }

    fn on_event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CampaignStarted {
                threshold,
                records_knowledge,
                ..
            } => {
                self.threshold = *threshold;
                self.enabled = *records_knowledge;
            }
            CampaignEvent::CandidateProposed {
                rationale,
                hallucinated,
                ..
            } if self.enabled => {
                self.pending
                    .push_back(K::proposal(|| (rationale.clone(), *hallucinated)));
            }
            CampaignEvent::ResultObserved {
                score,
                tokens_in,
                tokens_out,
                ..
            } if self.enabled => {
                if let Some(proposal) = self.pending.pop_front() {
                    let usage = TokenUsage {
                        input_tokens: *tokens_in,
                        output_tokens: *tokens_out,
                    };
                    let record = K::record(proposal, *score, usage, self.threshold);
                    self.log.push(record);
                }
            }
            CampaignEvent::IterationEnded { .. } => self.pending.clear(),
            _ => {}
        }
    }
}

impl Pairing<Rationales> {
    fn into_stores(self) -> (KnowledgeGraph, ProvenanceStore) {
        let mut librarian = LibrarianAgent::new();
        for r in &self.log {
            librarian.record_iteration(&r.rationale, r.hallucinated, r.score, r.usage, r.threshold);
        }
        (librarian.kg, librarian.prov)
    }
}

/// One logged [`LibrarianAgent::record_iteration`] call.
#[derive(Debug)]
pub(crate) struct KnowledgeRecord {
    rationale: Cow<'static, str>,
    hallucinated: bool,
    score: f64,
    usage: TokenUsage,
    threshold: f64,
}

/// Bridges ledger events into the simulation kernel's
/// [`MetricsRegistry`] — counters per event kind plus score / wait /
/// execution-time distributions, all under the `ledger.` prefix.
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// The registry being fed. Read it live or [`MetricsSink::into_registry`].
    pub registry: MetricsRegistry,
}

impl MetricsSink {
    /// A sink over a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the sink, yielding the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl LedgerObserver for MetricsSink {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.registry.incr(event.metric_key(), 1);
        match event {
            CampaignEvent::IterationStarted {
                at, decision_ready, ..
            } => {
                self.registry.observe(
                    "ledger.decision_wait_hours",
                    decision_ready.saturating_since(*at).as_hours(),
                );
            }
            CampaignEvent::ExecutionScheduled { duration, .. } => {
                self.registry
                    .observe("ledger.execution_hours", duration.as_hours());
            }
            CampaignEvent::ResultObserved { score, hit, .. } => {
                self.registry.observe("ledger.score", *score);
                if *hit {
                    self.registry.incr("ledger.hits", 1);
                }
            }
            CampaignEvent::DataTransferred { gigabytes, .. } => {
                self.registry.observe("ledger.transfer_gb", *gigabytes);
            }
            _ => {}
        }
    }
}

/// A bounded live-telemetry tail: keeps the most recent `capacity`
/// events (dashboard feeds, §5.2's Science-IDE panels) while counting
/// everything it ever saw.
#[derive(Debug, Clone)]
pub struct RingTelemetry {
    capacity: usize,
    buf: VecDeque<CampaignEvent>,
    seen: u64,
}

impl RingTelemetry {
    /// A ring holding at most `capacity` events (capacity 0 keeps none).
    pub fn new(capacity: usize) -> Self {
        RingTelemetry {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            seen: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &CampaignEvent> {
        self.buf.iter()
    }

    /// Most recent event, if any.
    pub fn latest(&self) -> Option<&CampaignEvent> {
        self.buf.back()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever observed (retained or evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted from the tail (observed but no longer retained).
    /// Always exactly `seen() - len()`.
    pub fn dropped(&self) -> u64 {
        self.seen - self.buf.len() as u64
    }
}

impl LedgerObserver for RingTelemetry {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
    }

    fn on_batch(&mut self, events: &[CampaignEvent]) {
        self.seen += events.len() as u64;
        if self.capacity == 0 {
            return;
        }
        // Only the last `capacity` events of the batch can survive; skip
        // straight to them instead of cloning events doomed to eviction.
        let keep = &events[events.len().saturating_sub(self.capacity)..];
        let evict = (self.buf.len() + keep.len()).saturating_sub(self.capacity);
        for _ in 0..evict {
            self.buf.pop_front();
        }
        self.buf.extend(keep.iter().cloned());
    }
}

/// Why a ledger could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The ledger holds no events at all.
    Empty,
    /// The first event is not `CampaignStarted`.
    MissingStart,
    /// A fleet- or federation-scoped event (or a second `CampaignStarted`,
    /// or anything after `CampaignFinished`) appeared inside a campaign
    /// stream.
    UnexpectedEvent {
        /// Index of the offending event.
        index: usize,
        /// Its variant tag.
        kind: &'static str,
    },
    /// The stream ended without a `CampaignFinished` event.
    Truncated,
    /// A `CampaignFinished` total disagrees with the replayed stream —
    /// the ledger was tampered with or corrupted.
    IntegrityMismatch {
        /// Which total disagreed.
        field: &'static str,
        /// Value recorded in `CampaignFinished`.
        recorded: String,
        /// Value reconstructed from the stream.
        replayed: String,
    },
    /// The serialized ledger bytes failed wire-level validation (bad
    /// magic, checksum mismatch, truncated segment, trailing garbage)
    /// before any event could be decoded. See [`WireError`].
    Corrupt(WireError),
    /// Campaign `index` of a fleet ledger does not carry the seed its
    /// position derives from the master seed: campaigns were dropped,
    /// duplicated or reordered, or a seed was edited. See
    /// [`replay_fleet_ledger`].
    SeedMismatch {
        /// Position of the first campaign whose seed disagrees.
        index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "ledger is empty"),
            ReplayError::MissingStart => {
                write!(f, "ledger does not begin with CampaignStarted")
            }
            ReplayError::UnexpectedEvent { index, kind } => {
                write!(f, "unexpected {kind} event at index {index}")
            }
            ReplayError::Truncated => {
                write!(f, "ledger ends without CampaignFinished")
            }
            ReplayError::IntegrityMismatch {
                field,
                recorded,
                replayed,
            } => write!(
                f,
                "integrity mismatch on {field}: ledger records {recorded}, replay derived {replayed}"
            ),
            ReplayError::Corrupt(e) => write!(f, "corrupt ledger bytes: {e}"),
            ReplayError::SeedMismatch { index } => {
                write!(f, "campaign {index} does not carry its position's seed")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Corrupt(e)
    }
}

/// Everything a ledger replay reconstructs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The campaign report, rebuilt purely from events — byte-identical
    /// to the live run's.
    pub report: CampaignReport,
    /// The knowledge graph, rebuilt from proposal/result events.
    pub knowledge: KnowledgeGraph,
    /// The PROV provenance store, rebuilt from the same events.
    pub provenance: ProvenanceStore,
}

/// Reconstruct a [`CampaignReport`] (and the provenance + knowledge
/// stores) purely from a campaign's event stream.
///
/// The replay folds each event into the same tally the live loop folds
/// each step into, in the same order — floating-point accumulations
/// included — so the rebuilt report is **byte-identical** to the live
/// one. The terminal
/// [`CampaignFinished`](CampaignEvent::CampaignFinished) event carries
/// every stream-derived report total, and each one is cross-checked
/// (floats bit-exactly) against the replayed stream; any disagreement is
/// a [`ReplayError::IntegrityMismatch`]. That is what makes the ledger
/// an audit substrate rather than a log: truncation, or an edit to any
/// event that shifts *any* report field (scores, times, tokens, gate
/// counts, store sizes), cannot silently replay. The one class of edit
/// this does not catch is content-only forgery that leaves every total
/// unchanged — e.g. rewording a rationale string — which alters the
/// rebuilt knowledge stores' contents but not their sizes.
///
/// This replay and [`replay_ledger_bytes`](wire::replay_ledger_bytes) are
/// the ones that build the stores: they log every matched proposal as a
/// [`KnowledgeSink`] does. A fleet replay reads only the report, so it
/// counts the same pairs and clones no proposal.
pub fn replay_ledger(ledger: &CampaignLedger) -> Result<ReplayOutcome, ReplayError> {
    fold_events::<Rationales>(&ledger.events)?.finish()
}

/// Fold a whole in-memory stream.
fn fold_events<K: Keep>(events: &[CampaignEvent]) -> Result<ReplayFold<K>, ReplayError> {
    let mut fold = ReplayFold::new();
    for event in events {
        fold.push(event)?;
    }
    Ok(fold)
}

/// The incremental state of an in-flight replay, exposed
/// event-at-a-time so the binary [wire](crate::ledger::wire) reader can
/// replay a stream without ever materialising a `Vec<CampaignEvent>` —
/// the reader lends it each event from a slot it decodes the next event
/// of that tag over, so memory stays bounded by one event per tag plus
/// the knowledge log, however long the ledger. Each event folds into the
/// [`CampaignTally`] the live loop folds its steps into, so the finished
/// report stays byte-identical either way. The knowledge log is
/// [`KnowledgeSink`]'s ([`Rationales`]) when the stores are to be built,
/// and a count ([`Counts`]) when only the report is read.
#[derive(Debug)]
pub(crate) struct ReplayFold<K: Keep> {
    sink: Pairing<K>,
    tally: CampaignTally,
    index: usize,
    cell_label: Cow<'static, str>,
    horizon: SimDuration,
    /// `CampaignStarted.seed`, which a fleet replay checks against the
    /// campaign's position.
    seed: u64,
    finished: Option<CampaignEvent>,
}

impl<K: Keep> ReplayFold<K> {
    pub(crate) fn new() -> Self {
        ReplayFold {
            sink: Pairing::default(),
            tally: CampaignTally::new(),
            index: 0,
            cell_label: Cow::Borrowed(""),
            horizon: SimDuration::ZERO,
            seed: 0,
            finished: None,
        }
    }

    /// Fold one event into the replay state.
    pub(crate) fn push(&mut self, event: &CampaignEvent) -> Result<(), ReplayError> {
        let index = self.index;
        self.index += 1;
        if self.finished.is_some() {
            return Err(ReplayError::UnexpectedEvent {
                index,
                kind: event.kind(),
            });
        }
        if index == 0 {
            match event {
                CampaignEvent::CampaignStarted {
                    cell_label,
                    seed,
                    horizon,
                    ..
                } => {
                    self.cell_label = cell_label.clone();
                    self.seed = *seed;
                    self.horizon = *horizon;
                }
                _ => return Err(ReplayError::MissingStart),
            }
        }
        self.sink.on_event(event);
        match event {
            CampaignEvent::CampaignStarted { .. } => {
                if index != 0 {
                    return Err(ReplayError::UnexpectedEvent {
                        index,
                        kind: event.kind(),
                    });
                }
            }
            CampaignEvent::IterationStarted {
                at, decision_ready, ..
            } => self.tally.decided(*at, *decision_ready),
            CampaignEvent::CandidateProposed { .. } => {}
            CampaignEvent::ExecutionScheduled {
                duration, done_at, ..
            } => self.tally.scheduled(*duration, *done_at),
            CampaignEvent::ResultObserved {
                score, hit, peak, ..
            } => self.tally.observed(*score, *hit, *peak),
            CampaignEvent::GateDecision { rejected_total, .. } => {
                self.tally.gated(*rejected_total);
            }
            CampaignEvent::OmegaRewrite { rewrites_total, .. } => {
                self.tally.rewritten(*rewrites_total);
            }
            CampaignEvent::IterationEnded { tokens_total, .. } => {
                self.tally.spent(*tokens_total);
            }
            // Cooperative-transcript events: pure audit trail. They carry
            // no report-shifting totals, so the fold only has to accept
            // them — the reconstruction they witness is still cross-checked
            // bit-exactly by `CampaignFinished`.
            CampaignEvent::EnsembleMessage { .. }
            | CampaignEvent::TournamentMatch { .. }
            | CampaignEvent::MetaReview { .. } => {}
            CampaignEvent::CampaignFinished { .. } => {
                self.finished = Some(event.clone());
            }
            _ => {
                return Err(ReplayError::UnexpectedEvent {
                    index,
                    kind: event.kind(),
                });
            }
        }
        Ok(())
    }

    /// Cross-check the recorded totals and yield the report alone; the
    /// knowledge stores are never built.
    pub(crate) fn finish_report(self) -> Result<CampaignReport, ReplayError> {
        Ok(self.audit()?.0)
    }

    /// Cross-check the recorded `CampaignFinished` against the tally's,
    /// total by total; yield the report and the knowledge log. An edit
    /// anywhere in the stream that shifts any report field (times,
    /// tokens, gate counts, store sizes, scores) surfaces here as a typed
    /// refusal.
    fn audit(self) -> Result<(CampaignReport, Pairing<K>), ReplayError> {
        if self.index == 0 {
            return Err(ReplayError::Empty);
        }
        let (kg_nodes, prov_activities) = (self.sink.node_count(), self.sink.activity_count());
        let (Some(recorded), Some(replayed)) = (
            self.finished.as_ref().and_then(finished_totals),
            finished_totals(&self.tally.finished(kg_nodes, prov_activities)),
        ) else {
            return Err(ReplayError::Truncated);
        };
        for ((field, recorded), (_, replayed)) in recorded.into_iter().zip(replayed) {
            if recorded != replayed {
                return Err(ReplayError::IntegrityMismatch {
                    field,
                    recorded: recorded.render(),
                    replayed: replayed.render(),
                });
            }
        }
        let report = self.tally.report(
            self.cell_label.into_owned(),
            self.horizon,
            kg_nodes,
            prov_activities,
        );
        Ok((report, self.sink))
    }
}

impl ReplayFold<Rationales> {
    /// Cross-check the recorded totals and yield the reconstruction,
    /// stores included.
    pub(crate) fn finish(self) -> Result<ReplayOutcome, ReplayError> {
        let (report, sink) = self.audit()?;
        let (knowledge, provenance) = sink.into_stores();
        Ok(ReplayOutcome {
            report,
            knowledge,
            provenance,
        })
    }
}

/// One `CampaignFinished` total, compared raw: counts as they are, floats
/// by their bit patterns, so the integrity cross-check is bit-exact.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Total {
    Raw(u64),
    MaybeRaw(Option<u64>),
}

impl Total {
    /// The text an [`ReplayError::IntegrityMismatch`] reports.
    fn render(self) -> String {
        match self {
            Total::Raw(n) => n.to_string(),
            Total::MaybeRaw(None) => "None".to_string(),
            Total::MaybeRaw(Some(n)) => format!("Some({n})"),
        }
    }
}

/// The totals a `CampaignFinished` event carries, as `(field, value)` in
/// declaration order; `None` for any other event.
fn finished_totals(event: &CampaignEvent) -> Option<[(&'static str, Total); 12]> {
    let CampaignEvent::CampaignFinished {
        experiments,
        total_hits,
        distinct_discoveries,
        best_score,
        time_to_first_hours,
        decision_wait_hours,
        execution_hours,
        rejected_proposals,
        omega_rewrites,
        kg_nodes,
        prov_activities,
        tokens,
    } = event
    else {
        return None;
    };
    let count = |n: usize| Total::Raw(n as u64);
    let bits = |x: &f64| Total::Raw(x.to_bits());
    Some([
        ("experiments", Total::Raw(*experiments)),
        ("total_hits", Total::Raw(*total_hits)),
        ("distinct_discoveries", count(*distinct_discoveries)),
        ("best_score", bits(best_score)),
        (
            "time_to_first_hours",
            Total::MaybeRaw(time_to_first_hours.map(f64::to_bits)),
        ),
        ("decision_wait_hours", bits(decision_wait_hours)),
        ("execution_hours", bits(execution_hours)),
        ("rejected_proposals", Total::Raw(*rejected_proposals)),
        ("omega_rewrites", Total::Raw(u64::from(*omega_rewrites))),
        ("kg_nodes", count(*kg_nodes)),
        ("prov_activities", count(*prov_activities)),
        ("tokens", Total::Raw(*tokens)),
    ])
}

/// Reconstruct a whole [`FleetReport`] from a fleet's merged ledger:
/// replay every campaign stream and fold the reports, in shard order,
/// with the same deterministic aggregation the live executor uses.
///
/// Campaigns fold in parallel on the fleet executor, one worker per host
/// core; the result does not depend on the worker count. The knowledge
/// stores are never built: each campaign's counts come from the
/// [`KnowledgeSink`] pairing rule over a log that keeps only its length.
///
/// Every campaign must carry the seed its position derives from the
/// master seed. Campaign 0's seed says how they were derived: under
/// [`FLEET_SHARD_LABEL`] by shard index (fleet and federated ledgers) or
/// under [`SERVICE_SHARD_LABEL`] by admission index (a service ledger
/// lists its campaigns in admission order). A campaign that breaks the
/// rule — the first one dropped, a duplicate, a reordering, or an edited
/// master seed — is refused as [`ReplayError::SeedMismatch`]. A dropped
/// *last* campaign still replays: nothing in the ledger commits to the
/// campaign count.
///
/// If any campaign fails, the error is that of the first failing
/// campaign in shard order.
pub fn replay_fleet_ledger(ledger: &FleetLedger) -> Result<FleetReport, ReplayError> {
    replay_fleet_ledger_on(ledger, 0)
}

/// [`replay_fleet_ledger`] on `threads` workers (0 = one per host core).
pub(crate) fn replay_fleet_ledger_on(
    ledger: &FleetLedger,
    threads: usize,
) -> Result<FleetReport, ReplayError> {
    fold_fleet(ledger.master_seed, &ledger.campaigns, threads, |c| {
        fold_events(&c.events)
    })
}

/// The one fleet replay driver, under [`replay_fleet_ledger`] and
/// [`replay_fleet_ledger_bytes`](wire::replay_fleet_ledger_bytes): fold
/// every campaign with `fold` on the fleet executor with `threads`
/// workers (0 = one per host core), check its seed against its position,
/// then merge the reports in shard order. Every campaign is folded; the
/// first failure in shard order — not the first in time — is the one
/// returned, so the result is the serial fold's at any worker count.
pub(crate) fn fold_fleet<T: Sync>(
    master_seed: u64,
    campaigns: &[T],
    threads: usize,
    fold: impl Fn(&T) -> Result<ReplayFold<Counts>, ReplayError> + Sync,
) -> Result<FleetReport, ReplayError> {
    let tasks: Vec<(usize, &T)> = campaigns.iter().enumerate().collect();
    let shards = RngRegistry::new(master_seed);
    let mut label = None;
    let mut reports = Vec::with_capacity(tasks.len());
    let mut failure = None;
    execute_fleet_tasks_steal_timed(
        &tasks,
        worker_threads(threads, tasks.len()),
        None,
        false,
        |campaign| {
            let fold = fold(campaign)?;
            let seed = fold.seed;
            Ok((seed, fold.finish_report()?))
        },
        // Delivery is in shard order, so the first error seen is the
        // first in shard order.
        |index, folded: Result<_, ReplayError>| {
            if failure.is_some() {
                return;
            }
            let checked = folded.and_then(|(seed, report)| {
                if index == 0 {
                    label = [FLEET_SHARD_LABEL, SERVICE_SHARD_LABEL]
                        .into_iter()
                        .find(|label| shards.shard_seed(label, 0) == seed);
                }
                match label {
                    Some(label) if shards.shard_seed(label, index as u64) == seed => Ok(report),
                    _ => Err(ReplayError::SeedMismatch { index }),
                }
            });
            match checked {
                Ok(report) => reports.push(report),
                Err(e) => failure = Some(e),
            }
        },
    );
    match failure {
        Some(e) => Err(e),
        None => Ok(FleetReport::from_reports(master_seed, reports)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(records_knowledge: bool) -> CampaignEvent {
        CampaignEvent::CampaignStarted {
            cell_label: "test".into(),
            seed: 1,
            planner: "grid".into(),
            lanes: 1,
            horizon: SimDuration::from_days(1),
            threshold: 0.5,
            max_experiments: 10,
            records_knowledge,
        }
    }

    fn proposed() -> CampaignEvent {
        CampaignEvent::CandidateProposed {
            lane: 0,
            params: vec![0.5, 0.5],
            rationale: "test rationale".into(),
            confidence: 0.7,
            hallucinated: false,
        }
    }

    fn observed(experiment: u64, score: f64) -> CampaignEvent {
        CampaignEvent::ResultObserved {
            lane: 0,
            experiment,
            score,
            hit: score >= 0.5,
            peak: if score >= 0.5 { Some(0) } else { None },
            tokens_in: 10,
            tokens_out: 5,
        }
    }

    #[test]
    fn ring_telemetry_bounds_and_counts() {
        let mut ring = RingTelemetry::new(3);
        for i in 0..10u64 {
            ring.on_event(&observed(i, 0.1));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 10);
        match ring.latest() {
            Some(CampaignEvent::ResultObserved { experiment, .. }) => assert_eq!(*experiment, 9),
            other => panic!("unexpected tail {other:?}"),
        }
        let mut empty = RingTelemetry::new(0);
        empty.on_event(&proposed());
        assert!(empty.is_empty());
        assert_eq!(empty.seen(), 1);
    }

    #[test]
    fn metrics_sink_counts_kinds() {
        let mut m = MetricsSink::new();
        m.on_event(&started(false));
        m.on_event(&proposed());
        m.on_event(&observed(1, 0.9));
        m.on_event(&observed(2, 0.1));
        let reg = m.into_registry();
        assert_eq!(reg.counter("ledger.campaign-started"), 1);
        assert_eq!(reg.counter("ledger.candidate-proposed"), 1);
        assert_eq!(reg.counter("ledger.result-observed"), 2);
        assert_eq!(reg.counter("ledger.hits"), 1);
        assert_eq!(reg.stat("ledger.score").unwrap().count(), 2);
    }

    #[test]
    fn knowledge_sink_pairs_proposals_with_results() {
        let mut sink = KnowledgeSink::new();
        sink.on_event(&started(true));
        sink.on_event(&proposed());
        sink.on_event(&observed(1, 0.9));
        // hypothesis + experiment + result nodes; reasoning + experiment
        // activities.
        assert_eq!(sink.node_count(), 3);
        assert_eq!(sink.activity_count(), 2);
        // An unexecuted proposal is dropped at iteration end.
        sink.on_event(&proposed());
        sink.on_event(&CampaignEvent::IterationEnded {
            lane: 0,
            proposed: 1,
            hits: 0,
            tokens_total: 15,
        });
        sink.on_event(&observed(2, 0.2));
        assert_eq!(sink.node_count(), 3, "orphan result records nothing");
    }

    #[test]
    fn knowledge_sink_stays_dark_when_disabled() {
        let mut sink = KnowledgeSink::new();
        sink.on_event(&started(false));
        sink.on_event(&proposed());
        sink.on_event(&observed(1, 0.9));
        assert_eq!(sink.node_count(), 0);
        assert_eq!(sink.activity_count(), 0);
    }

    #[test]
    fn replay_rejects_malformed_streams() {
        assert_eq!(
            replay_ledger(&CampaignLedger::new()),
            Err(ReplayError::Empty)
        );
        let headless = CampaignLedger {
            events: vec![proposed()],
        };
        assert_eq!(replay_ledger(&headless), Err(ReplayError::MissingStart));
        let truncated = CampaignLedger {
            events: vec![started(false), proposed()],
        };
        assert_eq!(replay_ledger(&truncated), Err(ReplayError::Truncated));
        let foreign = CampaignLedger {
            events: vec![
                started(false),
                CampaignEvent::CoordinatorKilled { after_commits: 1 },
            ],
        };
        assert_eq!(
            replay_ledger(&foreign),
            Err(ReplayError::UnexpectedEvent {
                index: 1,
                kind: "coordinator-killed"
            })
        );
    }

    fn finished(experiments: u64, best_score: f64) -> CampaignEvent {
        CampaignEvent::CampaignFinished {
            experiments,
            total_hits: 1,
            distinct_discoveries: 1,
            best_score,
            time_to_first_hours: Some(0.0),
            decision_wait_hours: 0.0,
            execution_hours: 0.0,
            rejected_proposals: 0,
            omega_rewrites: 0,
            kg_nodes: 0,
            prov_activities: 0,
            tokens: 0,
        }
    }

    #[test]
    fn replay_detects_tampered_totals() {
        let mismatch = |observed: CampaignEvent, finished: CampaignEvent| {
            replay_ledger(&CampaignLedger {
                events: vec![started(false), observed, finished],
            })
        };
        let refused = |field, recorded: &str, replayed: &str| {
            Err(ReplayError::IntegrityMismatch {
                field,
                recorded: recorded.to_string(),
                replayed: replayed.to_string(),
            })
        };
        // The stream only shows 1 experiment.
        assert_eq!(
            mismatch(observed(1, 0.9), finished(2, 0.9)),
            refused("experiments", "2", "1")
        );
        // An edited score is caught even when the counts all agree, and
        // floats render as their bit patterns.
        assert_eq!(
            mismatch(observed(1, 0.95), finished(1, 0.9)),
            refused("best_score", "4606281698874543309", "4606732058837280358")
        );
        // The optional first-discovery time renders both of its shapes.
        let mut no_first = finished(1, 0.9);
        if let CampaignEvent::CampaignFinished {
            time_to_first_hours,
            ..
        } = &mut no_first
        {
            *time_to_first_hours = None;
        }
        assert_eq!(
            mismatch(observed(1, 0.9), no_first),
            refused("time_to_first_hours", "None", "Some(0)")
        );
        let mut late_first = finished(1, 0.1);
        if let CampaignEvent::CampaignFinished {
            total_hits,
            distinct_discoveries,
            time_to_first_hours,
            ..
        } = &mut late_first
        {
            (*total_hits, *distinct_discoveries) = (0, 0);
            *time_to_first_hours = Some(2.5);
        }
        assert_eq!(
            mismatch(observed(1, 0.1), late_first),
            refused("time_to_first_hours", "Some(4612811918334230528)", "None")
        );
    }

    #[test]
    fn event_kind_tags_are_stable() {
        assert_eq!(started(false).kind(), "campaign-started");
        assert_eq!(
            CampaignEvent::OutageStruck {
                site: "hpc".into(),
                at: SimTime::ZERO,
                rerouted: 0
            }
            .kind(),
            "outage-struck"
        );
        assert!(started(false).is_campaign_scoped());
        assert!(!CampaignEvent::CheckpointTaken {
            committed: 0,
            total: 1
        }
        .is_campaign_scoped());
    }

    /// The eager librarian the sink's log must reproduce: the pairing
    /// rule (FIFO proposals while recording, dropped at iteration end)
    /// with every matched result recorded as it arrives.
    fn eager_stores(events: &[CampaignEvent]) -> (KnowledgeGraph, ProvenanceStore) {
        let mut librarian = LibrarianAgent::new();
        let mut pending = VecDeque::new();
        let (mut threshold, mut enabled) = (0.0, false);
        for event in events {
            match event {
                CampaignEvent::CampaignStarted {
                    threshold: t,
                    records_knowledge,
                    ..
                } => {
                    threshold = *t;
                    enabled = *records_knowledge;
                }
                CampaignEvent::CandidateProposed {
                    rationale,
                    hallucinated,
                    ..
                } if enabled => pending.push_back((rationale.clone(), *hallucinated)),
                CampaignEvent::ResultObserved {
                    score,
                    tokens_in,
                    tokens_out,
                    ..
                } if enabled => {
                    if let Some((rationale, hallucinated)) = pending.pop_front() {
                        let usage = TokenUsage {
                            input_tokens: *tokens_in,
                            output_tokens: *tokens_out,
                        };
                        librarian.record_iteration(
                            &rationale,
                            hallucinated,
                            *score,
                            usage,
                            threshold,
                        );
                    }
                }
                CampaignEvent::IterationEnded { .. } => pending.clear(),
                _ => {}
            }
        }
        (librarian.kg, librarian.prov)
    }

    /// The four event kinds the sink reads; proposals and results are
    /// listed twice so streams hold more of them.
    fn arb_sink_event() -> impl proptest::strategy::Strategy<Value = CampaignEvent> {
        use proptest::prelude::*;
        let started = (any::<bool>(), 0.0..1.0f64).prop_map(|(records_knowledge, threshold)| {
            CampaignEvent::CampaignStarted {
                cell_label: "prop".into(),
                seed: 3,
                planner: "agentic".into(),
                lanes: 1,
                horizon: SimDuration::from_days(1),
                threshold,
                max_experiments: 100,
                records_knowledge,
            }
        });
        let proposed = || {
            (
                prop::collection::vec(0.0..1.0f64, 1..4),
                "[a-z ]{0,40}",
                0.0..1.0f64,
                any::<bool>(),
            )
                .prop_map(|(params, rationale, confidence, hallucinated)| {
                    CampaignEvent::CandidateProposed {
                        lane: 0,
                        params,
                        rationale: rationale.into(),
                        confidence,
                        hallucinated,
                    }
                })
        };
        let observed = || {
            (0.0..1.0f64, 0u64..1_000, 0u64..1_000).prop_map(|(score, tokens_in, tokens_out)| {
                CampaignEvent::ResultObserved {
                    lane: 0,
                    experiment: 1,
                    score,
                    hit: false,
                    peak: None,
                    tokens_in,
                    tokens_out,
                }
            })
        };
        let ended = Just(CampaignEvent::IterationEnded {
            lane: 0,
            proposed: 1,
            hits: 0,
            tokens_total: 0,
        });
        prop_oneof![
            started,
            proposed(),
            proposed(),
            observed(),
            observed(),
            ended
        ]
    }

    proptest::proptest! {
        /// The sink's counts are those of the stores it builds, and those
        /// stores are the ones an eager librarian builds from the same
        /// matched pairs, by value and by serialized bytes. A fleet
        /// replay's count-only log pairs the same proposals.
        #[test]
        fn knowledge_sink_builds_the_eager_librarians_stores(
            events in proptest::collection::vec(arb_sink_event(), 0..80)
        ) {
            let mut sink = KnowledgeSink::new();
            sink.on_batch(&events);
            let mut counted = Pairing::<Counts>::default();
            for event in &events {
                counted.on_event(event);
            }
            proptest::prop_assert_eq!(
                (counted.node_count(), counted.activity_count()),
                (sink.node_count(), sink.activity_count())
            );
            let counts = (sink.node_count(), sink.activity_count(), sink.entity_count());
            let (kg, prov) = sink.into_stores();
            proptest::prop_assert_eq!(
                counts,
                (kg.node_count(), prov.activity_count(), prov.entity_count())
            );
            let (eager_kg, eager_prov) = eager_stores(&events);
            proptest::prop_assert_eq!(
                serde_json::to_string(&kg).expect("serializes"),
                serde_json::to_string(&eager_kg).expect("serializes")
            );
            proptest::prop_assert_eq!(
                serde_json::to_string(&prov).expect("serializes"),
                serde_json::to_string(&eager_prov).expect("serializes")
            );
            proptest::prop_assert_eq!(kg, eager_kg);
            proptest::prop_assert_eq!(prov, eager_prov);
        }
    }
}
