//! Property tests for the event-sourced ledger's audit contract:
//!
//! 1. **Replay fidelity** — for *every* planner kind × composition
//!    pattern, `replay_ledger` rebuilds a byte-identical
//!    `CampaignReport` (and identical provenance/knowledge stores) from
//!    the serialized event stream alone.
//! 2. **Observation transparency** — recording never changes a report:
//!    `run_campaign_recorded` and an unobserved run agree byte-for-byte,
//!    and the unobserved run builds no event.
//! 3. **Fleet invariance** — the merged `FleetLedger` is byte-identical
//!    at any thread count, and a coordinator kill + resume reproduces
//!    both the report and the merged ledger exactly, so the crash leaves
//!    no seam in the audit trail.

use evoflow_agents::{LibrarianAgent, Pattern};
use evoflow_core::{
    replay_fleet_ledger, replay_ledger, replay_ledger_bytes, resume_campaign_fleet_recorded,
    run_campaign_fleet, run_campaign_fleet_recorded, run_campaign_fleet_recorded_until,
    run_campaign_profiled, run_campaign_recorded, CampaignConfig, CampaignEvent, CampaignLedger,
    CampaignReport, Cell, FleetConfig, LedgerEncoding, MaterialsSpace, PhaseProfiler, PlannerKind,
    ReplayError,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use proptest::prelude::*;

fn space() -> MaterialsSpace {
    MaterialsSpace::generate(3, 8, 20260610)
}

fn all_planners() -> Vec<PlannerKind> {
    let mut kinds = PlannerKind::all_concrete();
    kinds.push(PlannerKind::meta());
    kinds
}

fn planned_config(planner: PlannerKind, pattern: Pattern, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, pattern), seed)
        .with_planner(planner);
    cfg.horizon = SimDuration::from_days(1);
    cfg.coordination = Some(evoflow_core::CoordinationMode::Autonomous);
    cfg.max_experiments = 2_000;
    cfg
}

/// Exhaustive over the planner vocabulary: the serialized ledger
/// round-trips, and its replay reconstructs the live report
/// byte-for-byte — including the agentic planner, whose knowledge-graph
/// and provenance counts must also survive the round trip.
#[test]
fn every_planner_replays_to_the_live_report() {
    let space = space();
    for planner in all_planners() {
        let cfg = planned_config(planner.clone(), Pattern::Mesh, 17);
        let (live, ledger) = run_campaign_recorded(&space, &cfg);

        let json = serde_json::to_string(&ledger).expect("ledger serializes");
        let decoded: CampaignLedger = serde_json::from_str(&json).expect("ledger decodes");
        assert_eq!(decoded, ledger, "{} ledger round-trip", planner.label());

        let replayed = replay_ledger(&decoded).expect("fresh ledger replays");
        assert_eq!(
            serde_json::to_string(&replayed.report).expect("serialize"),
            serde_json::to_string(&live).expect("serialize"),
            "{} replay diverged from live report",
            planner.label()
        );
        assert_eq!(replayed.provenance.activity_count(), live.prov_activities);
        assert_eq!(replayed.knowledge.node_count(), live.kg_nodes);
    }
}

/// The intelligent cell's stores are rebuilt *identically*, not just to
/// equal counts: graph and provenance compare structurally equal, and
/// the streaming replay of the EVWL bytes, which decodes every proposal's
/// `params` and rationale over the previous one's, builds the same
/// stores as the replay of the events.
#[test]
fn replay_rebuilds_identical_knowledge_stores() {
    let space = space();
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 7);
    cfg.horizon = SimDuration::from_days(1);
    let (live, ledger) = run_campaign_recorded(&space, &cfg);
    assert!(live.kg_nodes > 0, "intelligent cell must record knowledge");

    let a = replay_ledger(&ledger).expect("replays");
    let b = replay_ledger(&ledger).expect("replays again");
    assert_eq!(a.knowledge, b.knowledge);
    assert_eq!(a.provenance, b.provenance);
    assert_eq!(
        serde_json::to_string(&a.knowledge).expect("serialize"),
        serde_json::to_string(&b.knowledge).expect("serialize")
    );

    let streamed =
        replay_ledger_bytes(&ledger.to_bytes(LedgerEncoding::Binary)).expect("bytes replay");
    assert_eq!(streamed, a);
    assert_eq!(
        serde_json::to_string(&streamed.knowledge).expect("serialize"),
        serde_json::to_string(&a.knowledge).expect("serialize")
    );
    assert_eq!(
        serde_json::to_string(&streamed.provenance).expect("serialize"),
        serde_json::to_string(&a.provenance).expect("serialize")
    );
}

/// Recording is a pure observer: the recorded run's report equals the
/// unobserved run's byte-for-byte, and replay rebuilds it, for every
/// intelligence level, for every planner with the sample budget running
/// out mid-batch, and for a campaign that runs no iteration. The live
/// knowledge counts follow the rule replay checks them against: one
/// librarian record per executed experiment whenever the ledger says
/// knowledge is recorded. An unobserved run builds no event.
#[test]
fn recording_never_perturbs_the_campaign() {
    let space = space();
    let mut configs = Vec::new();
    for level in IntelligenceLevel::ALL {
        let mut cfg = CampaignConfig::for_cell(Cell::new(level, Pattern::Pipeline), 23);
        cfg.horizon = SimDuration::from_days(1);
        configs.push(cfg);
    }
    let mut planners = PlannerKind::all_concrete();
    planners.push(PlannerKind::meta());
    planners.push(PlannerKind::ensemble());
    for planner in planners {
        // Batches of 4: the third iteration runs 2 of its proposals.
        let mut capped = planned_config(planner.clone(), Pattern::Mesh, 29);
        capped.max_experiments = 10;
        configs.push(capped);
        let mut idle = planned_config(planner, Pattern::Swarm { k: 4 }, 31);
        idle.horizon = SimDuration::ZERO;
        configs.push(idle);
    }
    for cfg in &configs {
        let label = format!(
            "{} for {:?}",
            cfg.effective_planner().descriptor(),
            cfg.horizon
        );
        let mut prof = PhaseProfiler::enabled();
        let plain = run_campaign_profiled(&space, cfg, &mut [], &mut prof);
        assert_eq!(
            prof.breakdown().events_emitted,
            0,
            "{label}: unobserved run built events"
        );
        let (recorded, ledger) = run_campaign_recorded(&space, cfg);
        let replayed = replay_ledger(&ledger).expect("fresh ledger replays").report;
        let json = |r: &CampaignReport| serde_json::to_string(r).expect("serialize");
        assert_eq!(
            json(&plain),
            json(&recorded),
            "{label}: report changed under observation"
        );
        assert_eq!(json(&replayed), json(&recorded), "{label}: replay diverged");

        let Some(CampaignEvent::CampaignStarted {
            records_knowledge, ..
        }) = ledger.events.first()
        else {
            panic!("{label}: ledger does not open with CampaignStarted");
        };
        let records = if *records_knowledge {
            plain.experiments as usize
        } else {
            0
        };
        assert_eq!(
            (plain.kg_nodes, plain.prov_activities),
            (
                records * LibrarianAgent::NODES_PER_ITERATION,
                records * LibrarianAgent::ACTIVITIES_PER_ITERATION
            ),
            "{label}: knowledge counts"
        );
        if cfg.max_experiments == 10 {
            let proposed = ledger
                .events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::CandidateProposed { .. }))
                .count();
            assert_eq!(plain.experiments, 10, "{label}: budget");
            assert!(proposed > 10, "{label}: budget did not cut a batch");
        }
        if cfg.horizon == SimDuration::ZERO {
            assert_eq!(plain.experiments, 0, "{label}: zero horizon");
            assert_eq!(ledger.len(), 2, "{label}: zero horizon");
        }
    }
}

/// A ledger with an edited event no longer replays: flipping one
/// observed result breaks the integrity cross-check.
#[test]
fn tampered_ledgers_fail_the_audit() {
    let space = space();
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 3);
    cfg.horizon = SimDuration::from_hours(12);
    let (_, mut ledger) = run_campaign_recorded(&space, &cfg);
    let flipped = ledger
        .events
        .iter_mut()
        .find_map(|e| match e {
            evoflow_core::CampaignEvent::ResultObserved { hit, peak, .. } if !*hit => {
                *hit = true;
                *peak = Some(999);
                Some(())
            }
            _ => None,
        })
        .is_some();
    assert!(flipped, "campaign should have at least one miss to tamper");
    assert!(matches!(
        replay_ledger(&ledger),
        Err(ReplayError::IntegrityMismatch { .. })
    ));
}

fn arb_recorded_fleet() -> impl Strategy<Value = FleetConfig> {
    (
        any::<u64>(),
        prop::collection::vec(0usize..9, 1..5),
        1u64..3,
    )
        .prop_map(|(master_seed, picks, days)| {
            let kinds = all_planners();
            let mut cfg = FleetConfig::new(master_seed);
            cfg.horizon = SimDuration::from_days(days);
            cfg.max_experiments = 1_500;
            for pick in picks {
                let mut c = CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Learning, Pattern::Mesh),
                    0,
                );
                c.horizon = cfg.horizon;
                c.max_experiments = cfg.max_experiments;
                c.planner = Some(kinds[pick % kinds.len()].clone());
                cfg.push_campaign(c);
            }
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The merged fleet ledger (and its replayed report) is byte-identical
    /// at any thread count, and replaying it rebuilds the fleet report the
    /// plain executor produces.
    #[test]
    fn fleet_ledger_is_thread_count_invariant(mut cfg in arb_recorded_fleet()) {
        let space = space();
        cfg.threads = 1;
        let (serial_report, serial_ledger) = run_campaign_fleet_recorded(&space, &cfg);
        cfg.threads = 3;
        let (_, parallel_ledger) = run_campaign_fleet_recorded(&space, &cfg);
        prop_assert_eq!(
            serde_json::to_string(&serial_ledger).expect("serialize"),
            serde_json::to_string(&parallel_ledger).expect("serialize")
        );
        let replayed = replay_fleet_ledger(&serial_ledger).expect("fleet ledger replays");
        prop_assert_eq!(
            serde_json::to_string(&replayed).expect("serialize"),
            serde_json::to_string(&serial_report).expect("serialize")
        );
        prop_assert_eq!(
            serde_json::to_string(&run_campaign_fleet(&space, &cfg)).expect("serialize"),
            serde_json::to_string(&serial_report).expect("serialize")
        );
    }

    /// Kill + resume reproduces both the fleet report and the merged
    /// ledger byte-for-byte at any thread count on either side of the
    /// crash — the crash is invisible to a downstream replay audit.
    #[test]
    fn fleet_ledger_survives_kill_and_resume(
        mut cfg in arb_recorded_fleet(),
        kill_after in 0usize..4,
        threads in 1usize..4,
    ) {
        let space = space();
        cfg.threads = threads;
        let (report, ledger) = run_campaign_fleet_recorded(&space, &cfg);
        let ckpt = run_campaign_fleet_recorded_until(&space, &cfg, kill_after);
        let (resumed_report, resumed_ledger) =
            resume_campaign_fleet_recorded(&space, &cfg, &ckpt).expect("same fleet");
        prop_assert_eq!(
            serde_json::to_string(&report).expect("serialize"),
            serde_json::to_string(&resumed_report).expect("serialize")
        );
        prop_assert_eq!(
            serde_json::to_string(&ledger).expect("serialize"),
            serde_json::to_string(&resumed_ledger).expect("serialize")
        );
        let replayed = replay_fleet_ledger(&resumed_ledger).expect("resumed ledger replays");
        prop_assert_eq!(
            serde_json::to_string(&replayed).expect("serialize"),
            serde_json::to_string(&report).expect("serialize")
        );
    }
}
