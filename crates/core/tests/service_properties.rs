//! Property tests for the multi-tenant service layer's contracts, over
//! arbitrary tenant mixes (ISSUE 6):
//!
//! 1. **Plan purity** — for arbitrary tenants, weights, quotas, pacing,
//!    and arrival traces, [`plan_service`] is deterministic, conserves
//!    submissions (admitted + rejected = submitted), dispatches every
//!    admission exactly once, and never exceeds any queue quota at any
//!    round.
//! 2. **Seed derivation** — admitted campaigns get distinct seeds,
//!    derived from the master seed by admission index.
//! 3. **Thread invariance** — the executed [`ServiceReport`] and merged
//!    ledger are identical at 1, 2, and 3 worker threads.
//! 4. **Crash transparency** — a service killed after any number of
//!    commits and resumed from its [`ServiceCheckpoint`] reproduces the
//!    uninterrupted report and merged ledger exactly.
//! 5. **Round-trip** — configs, plans, reports, and checkpoints survive
//!    serde.
//! 6. **Live stream** — the event stream an observer receives from
//!    [`run_service_observed`] at 1, 2, and 3 worker threads equals a
//!    reference stream rebuilt from the plan and the returned ledger by
//!    filtering the schedule round by round.

use evoflow_core::{
    plan_service, resume_service, run_service, run_service_observed, run_service_until,
    CampaignConfig, CampaignEvent, CampaignLedger, Cell, FleetLedger, MaterialsSpace,
    ServiceCheckpoint, ServiceConfig, ServicePlan, ServiceReport, TenantSpec, SERVICE_SHARD_LABEL,
};
use evoflow_sim::{RngRegistry, SimDuration};
use proptest::prelude::*;

fn space() -> MaterialsSpace {
    MaterialsSpace::generate(3, 6, 9191)
}

/// Arbitrary service configs: 1..=4 tenants with arbitrary weights and
/// quotas (0 = "not declared" everywhere), a trace of up to 14
/// submissions over matrix corner cells — some naming a tenant that
/// does not exist — and arbitrary scheduler pacing.
fn arb_config() -> impl Strategy<Value = ServiceConfig> {
    (
        any::<u64>(),
        prop::collection::vec((0u32..4, 0usize..4, 0usize..6), 1..5),
        prop::collection::vec((0usize..5, 0usize..2), 0..15),
        0usize..6,
        0usize..4,
    )
        .prop_map(
            |(master_seed, tenant_knobs, submission_picks, ingest, dispatch)| {
                let mut cfg = ServiceConfig::new(master_seed);
                cfg.threads = 1;
                cfg.ingest_per_round = ingest;
                cfg.dispatch_per_round = dispatch;
                for (i, (weight, max_queued, max_admitted)) in tenant_knobs.iter().enumerate() {
                    cfg.push_tenant(
                        TenantSpec::new(format!("tenant-{i}"))
                            .with_weight(*weight)
                            .with_max_queued(*max_queued)
                            .with_max_admitted(*max_admitted),
                    );
                }
                let cells = [Cell::traditional_wms(), Cell::autonomous_science()];
                for (tenant_pick, cell_pick) in submission_picks {
                    // tenant_pick may exceed the tenant count: those
                    // submissions must be rejected as unknown, never lost.
                    let mut c = CampaignConfig::for_cell(cells[cell_pick], 0);
                    c.horizon = SimDuration::from_days(1);
                    c.max_experiments = 400;
                    cfg.submit(format!("tenant-{tenant_pick}"), c);
                }
                cfg
            },
        )
}

/// Plan-level invariants that must hold for every config.
fn plan_sanity(cfg: &ServiceConfig) -> ServicePlan {
    let plan = plan_service(cfg).expect("unique tenant names");
    // Conservation: nothing vanishes at the door.
    assert_eq!(
        plan.admitted.len() + plan.rejected.len(),
        cfg.submissions.len()
    );
    // Every admission is dispatched exactly once.
    let mut order = plan.dispatch_order.clone();
    order.sort_unstable();
    assert_eq!(order, (0..plan.admitted.len()).collect::<Vec<_>>());
    // Distinct derived seeds, matching the registry handshake.
    let reg = RngRegistry::new(cfg.master_seed);
    let mut seeds: Vec<u64> = plan.admitted.iter().map(|a| a.seed).collect();
    for (i, a) in plan.admitted.iter().enumerate() {
        assert_eq!(a.admission_index, i);
        assert_eq!(a.seed, reg.shard_seed(SERVICE_SHARD_LABEL, i as u64));
        assert!(a.dispatched_round >= a.admitted_round);
    }
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), plan.admitted.len());
    // Quotas hold at every round, per tenant.
    for tenant in &cfg.tenants {
        let quota = tenant.effective_max_queued();
        let cap = tenant.effective_max_admitted();
        assert!(
            plan.admitted
                .iter()
                .filter(|a| a.tenant == tenant.name)
                .count()
                <= cap,
            "admissions exceeded cap for {}",
            tenant.name
        );
        for round in 0..plan.rounds {
            let depth = plan
                .admitted
                .iter()
                .filter(|a| {
                    a.tenant == tenant.name
                        && a.admitted_round <= round
                        && a.dispatched_round > round
                })
                .count();
            assert!(
                depth <= quota,
                "queue depth {depth} > quota {quota} for {} at round {round}",
                tenant.name
            );
        }
    }
    // Slot accounting: every dispatch slot was received by exactly one
    // tenant, and only ever contended by tenants with backlog.
    let received: usize = plan.tenants.iter().map(|t| t.received_slots).sum();
    assert_eq!(received, plan.dispatch_order.len());
    for t in &plan.tenants {
        assert!(t.received_slots <= t.contended_slots || t.contended_slots == 0);
        assert!(t.admitted + t.rejected <= t.submitted + t.rejected);
    }
    plan
}

/// The reference session stream: for every round, that round's
/// admissions, then its refusals, then its dispatches in slot order, each
/// followed by the dispatched campaign's ledger. Each round filters the
/// whole admitted, rejected and dispatch lists — quadratic, and kept
/// only as the oracle the live stream must match event for event.
fn reference_stream(plan: &ServicePlan, ledger: &FleetLedger) -> Vec<CampaignEvent> {
    let mut events = Vec::new();
    for round in 0..plan.rounds {
        for a in plan.admitted.iter().filter(|a| a.admitted_round == round) {
            events.push(CampaignEvent::SubmissionAdmitted {
                tenant: a.tenant.clone().into(),
                admission_index: a.admission_index,
                round,
            });
        }
        for r in plan.rejected.iter().filter(|r| r.round == round) {
            events.push(CampaignEvent::SubmissionRejected {
                tenant: r.tenant.clone().into(),
                submission_index: r.submission_index,
                round,
                reason: r.reason,
            });
        }
        for &ai in &plan.dispatch_order {
            let a = &plan.admitted[ai];
            if a.dispatched_round != round {
                continue;
            }
            events.push(CampaignEvent::CampaignDispatched {
                tenant: a.tenant.clone().into(),
                admission_index: ai,
                round,
                slot: a.dispatch_slot,
            });
            events.extend_from_slice(&ledger.campaigns[ai].events);
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Planning is pure: rerun identical, conservation, one dispatch per
    /// admission, quota bounds at every round, derived seeds.
    #[test]
    fn plan_is_pure_and_conserving(cfg in arb_config()) {
        let plan = plan_sanity(&cfg);
        prop_assert_eq!(&plan, &plan_service(&cfg).unwrap());
        // The plan round-trips through serde.
        let wire = serde_json::to_string(&plan).unwrap();
        let back: ServicePlan = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(&plan, &back);
    }

    /// Thread count never changes the report or the merged ledger.
    #[test]
    fn service_outputs_are_thread_count_invariant(cfg in arb_config()) {
        let space = space();
        let (baseline_report, baseline_ledger) = run_service(&space, &cfg).unwrap();
        for threads in [2usize, 3] {
            let mut c = cfg.clone();
            c.threads = threads;
            let (r, l) = run_service(&space, &c).unwrap();
            prop_assert_eq!(&r, &baseline_report);
            prop_assert_eq!(&l, &baseline_ledger);
        }
        // The report round-trips through serde.
        let wire = serde_json::to_string(&baseline_report).unwrap();
        let back: ServiceReport = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(&baseline_report, &back);
    }

    /// Killing the service after any number of commits and resuming from
    /// the (serde-round-tripped) checkpoint reproduces the uninterrupted
    /// outputs exactly.
    #[test]
    fn any_kill_point_resumes_to_identical_outputs(
        cfg in arb_config(),
        kill_after in 0usize..15,
    ) {
        let space = space();
        let (report, ledger) = run_service(&space, &cfg).unwrap();
        let ckpt = run_service_until(&space, &cfg, kill_after).unwrap();
        prop_assert!(ckpt.completed_count() <= kill_after.max(ckpt.completed.len()));
        let wire = serde_json::to_string(&ckpt).unwrap();
        let back: ServiceCheckpoint = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(&ckpt, &back);
        let (r, l) = resume_service(&space, &cfg, &back).unwrap();
        prop_assert_eq!(&r, &report);
        prop_assert_eq!(&l, &ledger);
    }

    /// Configs round-trip through serde, including tenants and traces.
    #[test]
    fn service_config_round_trips(cfg in arb_config()) {
        let wire = serde_json::to_string(&cfg).unwrap();
        let back: ServiceConfig = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(&cfg, &back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The live stream is the reference stream, event for event, at any
    /// thread count — including zero pacing, unknown tenants, empty
    /// traces, and sessions that end in rounds that only refuse.
    #[test]
    fn observed_stream_matches_round_filter_oracle(cfg in arb_config()) {
        let space = space();
        let plan = plan_service(&cfg).unwrap();
        let mut serial = None;
        for threads in [1usize, 2, 3] {
            let mut c = cfg.clone();
            c.threads = threads;
            let mut tape = CampaignLedger::new();
            let session = run_service_observed(&space, &c, &mut [&mut tape]).unwrap();
            prop_assert_eq!(&tape.events, &reference_stream(&plan, &session.1));
            let serial = serial.get_or_insert_with(|| session.clone());
            prop_assert_eq!(&session, serial);
        }
    }
}
