//! Property tests for the Planner layer's determinism contract:
//!
//! 1. **Replay determinism** — every planner kind × composition pattern
//!    yields a byte-identical serialized [`CampaignReport`] when rerun
//!    with the same seed.
//! 2. **Default-planner equivalence** — an explicit
//!    `PlannerKind::for_level(cell)` override runs the same decision
//!    trace as the `None` default (only the label differs).
//! 3. **Fleet resume invariance** — fleets of planner-configured
//!    campaigns killed after any number of commits resume to the
//!    uninterrupted report, byte-for-byte, at several thread counts on
//!    both sides of the crash.

use evoflow_agents::Pattern;
use evoflow_core::{
    resume_campaign_fleet, run_campaign, run_campaign_fleet, run_campaign_fleet_until, run_service,
    CampaignConfig, Cell, FleetConfig, MaterialsSpace, PlannerKind, ServiceConfig, TenantSpec,
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
    kinds.push(PlannerKind::ensemble());
    kinds
}

fn patterns() -> [Pattern; 5] {
    [
        Pattern::Single,
        Pattern::Pipeline,
        Pattern::Hierarchical,
        Pattern::Mesh,
        Pattern::Swarm { k: 4 },
    ]
}

fn planned_config(planner: PlannerKind, pattern: Pattern, seed: u64, days: u64) -> CampaignConfig {
    // Intelligence level is arbitrary once a planner is pinned; use the
    // frontier's autonomous coordination so campaigns iterate densely.
    let mut cfg = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, pattern), seed)
        .with_planner(planner);
    cfg.horizon = SimDuration::from_days(days);
    cfg.coordination = Some(evoflow_core::CoordinationMode::Autonomous);
    cfg.max_experiments = 3_000;
    cfg
}

/// Non-finite scores rank without a panic: on a 0-d space every latent
/// score is 0/0, and under NaN noise every measured score is NaN. Every
/// planner kind runs a simulated day on each space alone and within one
/// service session.
#[test]
fn every_planner_survives_non_finite_scores() {
    let mut noisy = space();
    noisy.noise_sd = f64::NAN;
    for space in [MaterialsSpace::generate(0, 8, 1), noisy] {
        let mut service = ServiceConfig::new(5);
        service.threads = 2;
        service.push_tenant(TenantSpec::new("lab"));
        for planner in all_planners() {
            let cfg = planned_config(planner, Pattern::Mesh, 11, 1);
            let label = cfg.effective_planner().descriptor();
            let report = run_campaign(&space, &cfg);
            assert!(report.experiments > 0, "{label} on {} dims", space.dim());
            service.submit("lab", cfg);
        }
        let (report, _) = run_service(&space, &service).expect("valid service config");
        assert_eq!(report.fleet.reports.len(), all_planners().len());
    }
}

/// Exhaustive (not sampled): every planner × every composition pattern
/// replays byte-identically. Cheap enough to enumerate outright.
#[test]
fn every_planner_times_pattern_replays_byte_identically() {
    let space = space();
    for planner in all_planners() {
        for pattern in patterns() {
            let cfg = planned_config(planner.clone(), pattern, 11, 1);
            let a = serde_json::to_string(&run_campaign(&space, &cfg)).expect("serialize");
            let b = serde_json::to_string(&run_campaign(&space, &cfg)).expect("serialize");
            assert_eq!(a, b, "{} × {pattern:?} diverged on replay", planner.label());
        }
    }
}

/// The planner label lands in the cell label, so fleet aggregation never
/// folds differently-planned campaigns into one summary row.
#[test]
fn overridden_planner_is_visible_in_the_cell_label() {
    let space = space();
    let cfg = planned_config(PlannerKind::bandit(), Pattern::Single, 5, 1);
    let r = run_campaign(&space, &cfg);
    assert!(
        r.cell_label.contains("bandit-ucb1"),
        "label {:?} should name the planner",
        r.cell_label
    );
    let default = {
        let mut c =
            CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, Pattern::Single), 5);
        c.horizon = SimDuration::from_days(1);
        run_campaign(&space, &c)
    };
    assert!(!default.cell_label.contains('·'));
}

/// An explicit `for_level` override replays the very trace the `None`
/// default produces — the refactor's no-behavior-change guarantee,
/// checked for all five levels.
#[test]
fn explicit_default_planner_matches_implicit_default() {
    let space = space();
    for level in IntelligenceLevel::ALL {
        let mut base = CampaignConfig::for_cell(Cell::new(level, Pattern::Pipeline), 23);
        base.horizon = SimDuration::from_days(1);
        let implicit = run_campaign(&space, &base);
        let explicit = run_campaign(
            &space,
            &base.clone().with_planner(PlannerKind::for_level(level)),
        );
        // Labels differ (override is surfaced); the decision trace must not.
        assert_eq!(implicit.experiments, explicit.experiments, "{level:?}");
        assert_eq!(implicit.total_hits, explicit.total_hits, "{level:?}");
        assert_eq!(
            implicit.best_score.to_bits(),
            explicit.best_score.to_bits(),
            "{level:?}"
        );
        assert_eq!(implicit.tokens, explicit.tokens, "{level:?}");
    }
}

fn arb_planned_fleet() -> impl Strategy<Value = FleetConfig> {
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

    /// Planner-configured fleets are thread-count invariant.
    #[test]
    fn planned_fleet_is_thread_count_invariant(mut cfg in arb_planned_fleet()) {
        let space = space();
        cfg.threads = 1;
        let serial = run_campaign_fleet(&space, &cfg);
        cfg.threads = 3;
        let parallel = run_campaign_fleet(&space, &cfg);
        prop_assert_eq!(
            serde_json::to_string(&serial).expect("serialize"),
            serde_json::to_string(&parallel).expect("serialize")
        );
    }

    /// Kill-and-resume stays byte-identical when every campaign carries a
    /// planner override.
    #[test]
    fn planned_fleet_resume_is_byte_identical(
        mut cfg in arb_planned_fleet(),
        kill_after in 0usize..4,
        threads in 1usize..4,
    ) {
        let space = space();
        cfg.threads = threads;
        let uninterrupted = run_campaign_fleet(&space, &cfg);
        let ckpt = run_campaign_fleet_until(&space, &cfg, kill_after);
        let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).expect("same fleet");
        prop_assert_eq!(
            serde_json::to_string(&uninterrupted).expect("serialize"),
            serde_json::to_string(&resumed).expect("serialize")
        );
    }
}
