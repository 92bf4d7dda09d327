//! # evoflow-core — the evolution framework itself
//!
//! The paper's primary contribution, executable:
//!
//! * [`matrix`] — the 5×5 evolution matrix (Table 3): cell taxonomy with
//!   the paper's representative systems, a descriptive [`matrix::classify`]
//!   placing real systems in cells, and the prescriptive
//!   [`matrix::TrajectoryPlanner`] (intelligence-first, then composition,
//!   §3.4) with per-transition infrastructure requirements.
//! * [`runtime`] — the six-layer architecture of Figure 2 assembled as a
//!   [`runtime::LabRuntime`] with component inventory and inter-layer
//!   smoke paths.
//! * [`federation`] — Figure 3's deployment: autonomous facilities,
//!   capability discovery, authenticated cross-facility handshakes, fabric
//!   transfers.
//! * [`domain`] — the synthetic materials landscape (seeded peaks +
//!   measurement noise) standing in for A-lab-style campaigns.
//! * [`campaign`] — the Figure 4 discovery loop, runnable at *any* matrix
//!   cell under human-gated or autonomous coordination — the engine behind
//!   the 10–100× acceleration measurement.
//! * [`planner`] — the pluggable decide step: every Table 1 intelligence
//!   level as a swappable [`planner::Planner`], plus `evoflow-learn`-backed
//!   bandit/swarm/meta policies any cell can opt into.
//! * [`fleet`] — the fleet executor: M campaigns sharded across N worker
//!   threads with derived per-shard seeds, work-stealing over
//!   heterogeneous cells, and deterministic aggregation — byte-identical
//!   results at any thread count, including across a coordinator crash
//!   ([`fleet::FleetCheckpoint`] / [`fleet::resume_campaign_fleet`]).
//!   Every fleet, federated and service run, kill and resume goes through
//!   its one commit-slot driver and one resume handshake.
//! * [`federated`] — facility-aware fleet scheduling: a
//!   [`federated::PlacementPolicyKind`] (round-robin, queue-aware
//!   least-wait, data-locality) places each campaign onto a federation
//!   facility, charging simulated batch-queue wait and fabric data
//!   movement, with a seeded facility-outage drain + deterministic
//!   re-routing, aggregated into a thread-count-invariant
//!   [`federated::FederatedReport`].
//! * [`ledger`] — the event-sourced audit substrate: one deterministic
//!   [`ledger::CampaignEvent`] stream through campaign → fleet →
//!   federated, pluggable [`ledger::LedgerObserver`] sinks (knowledge
//!   ingestion, metrics bridge, bounded live telemetry), and
//!   [`ledger::replay_ledger`], which reconstructs a byte-identical
//!   [`campaign::CampaignReport`] (plus the provenance and knowledge
//!   stores) purely from the serialized events. [`ledger::wire`] adds
//!   the compact checksummed binary encoding (≥5× smaller than JSON,
//!   segment-granular tamper refusal, streaming bounded-memory replay
//!   via [`ledger::wire::replay_ledger_bytes`]) behind
//!   [`ledger::LedgerEncoding`], with legacy JSON decoding pinned
//!   forever.
//! * [`service`] — the multi-tenant front door: a long-lived scheduler
//!   that admits campaign submissions under per-tenant quotas
//!   ([`service::TenantSpec`]), dispatches by stride fair-share, and
//!   multiplexes admitted campaigns onto the fleet executor — with the
//!   whole schedule planned as a pure function of the config
//!   ([`service::plan_service`]), so sessions are byte-identical across
//!   thread counts and kill/resume
//!   ([`service::ServiceCheckpoint`] / [`service::resume_service`], on
//!   the fleet's commit-slot driver and resume handshake).
//! * [`profile`] — hot-path phase profiling: near-zero-overhead scoped
//!   counters (propose / execute / observe / emit / steal) threaded
//!   through the campaign loop and fleet executor, aggregated into a
//!   [`profile::PhaseBreakdown`] whose counts are deterministic.
//! * [`governance`] — §4's policy enforcement, guardrails, and
//!   accountability: sample budgets, human approval for irreversible
//!   actions, rate limits, audit trails.
//! * [`ide`] — the Science-IDE text renderer (§5.2's new human-interface
//!   category): campaign status, evolution-plane position, trajectory,
//!   and intervention panels.

pub mod campaign;
pub mod domain;
pub mod federated;
pub mod federation;
pub mod fleet;
pub mod governance;
pub mod ide;
pub mod ledger;
pub mod matrix;
pub mod planner;
pub mod profile;
pub mod runtime;
pub mod service;

pub use campaign::{
    run_campaign, run_campaign_observed, run_campaign_profiled, run_campaign_recorded,
    CampaignConfig, CampaignReport, CoordinationMode,
};
pub use domain::MaterialsSpace;
pub use federated::{
    campaign_demand, resume_campaign_fleet_federated, run_campaign_fleet_federated,
    run_campaign_fleet_federated_recorded, run_campaign_fleet_federated_until, CampaignDemand,
    FacilityUsage, FederatedCheckpoint, FederatedConfig, FederatedError, FederatedReport,
    FederatedResumeError, PlacementPolicyKind, PlacementRecord, SiteSpec,
};
pub use federation::{Federation, FederationError, Handshake};
pub use fleet::{
    fleet_death_point, resume_campaign_fleet, resume_campaign_fleet_recorded, run_campaign_fleet,
    run_campaign_fleet_profiled, run_campaign_fleet_recorded, run_campaign_fleet_recorded_until,
    run_campaign_fleet_until, CellSummary, DistSummary, FleetCheckpoint, FleetConfig,
    FleetLedgerCheckpoint, FleetReport, FleetResumeError,
};
pub use governance::{Action, AuditRecord, GovernanceEngine, Policy, Verdict};
pub use ide::{panel, render_campaign, render_interventions, render_plane, render_trajectory};
pub use ledger::wire::{replay_fleet_ledger_bytes, replay_ledger_bytes, WireEncodeStats};
pub use ledger::{
    replay_fleet_ledger, replay_ledger, CampaignEvent, CampaignLedger, EventBatch, FleetLedger,
    KnowledgeSink, LedgerEncoding, LedgerObserver, MetricsSink, ReplayError, ReplayOutcome,
    RingTelemetry, WireError,
};
pub use matrix::{
    all_cells, classify, transition_requirement, Cell, SystemDescriptor, TrajectoryPlanner,
};
pub use planner::{
    BanditKind, EnsemblePlanner, Observation, PlanCtx, Planner, PlannerBuild, PlannerKind,
    PlannerTelemetry, DEFAULT_SPECIALISTS,
};
pub use profile::{Phase, PhaseBreakdown, PhaseProfiler, PhaseStat};
pub use runtime::{ComponentStatus, LabRuntime};
pub use service::{
    plan_service, resume_service, run_service, run_service_observed, run_service_until,
    AdmittedCampaign, RejectReason, RejectedSubmission, ServiceCheckpoint, ServiceConfig,
    ServiceError, ServicePlan, ServiceReport, ServiceResumeError, Submission, TenantReport,
    TenantSchedule, TenantSpec, DEFAULT_DISPATCH_PER_ROUND, DEFAULT_INGEST_PER_ROUND,
    SERVICE_SHARD_LABEL,
};
