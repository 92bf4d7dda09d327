//! **Planner arena — every decision policy on one landscape.**
//!
//! Runs each [`PlannerKind`] (the five Table 1 defaults plus the
//! `evoflow-learn`-backed bandit/swarm/meta policies) over the *same*
//! materials landscape with the *same* seed and composition, and reports
//! time-to-first-hit, distinct discoveries, and sample efficiency.
//!
//! Acceptance bar (ISSUE 3):
//!
//! 1. **Determinism** — a full rerun of the arena produces byte-identical
//!    serialized reports for every planner.
//! 2. **Intelligence pays** — at least the surrogate and one bandit
//!    planner must beat the Static grid baseline on time-to-first-hit
//!    (the paper's axis: smarter decide steps find materials sooner).
//! 3. **Cooperation pays** (ISSUE 9) — the cooperative ensemble must
//!    beat the best *single* planner on distinct discoveries at the
//!    same experiment budget: specialist roles (generate / reflect /
//!    rank / evolve / meta-review) exchanging typed messages should
//!    cover more of the landscape than any one policy alone.

use evoflow_agents::Pattern;
use evoflow_bench::{print_table, write_bench_summary, Gates};
use evoflow_core::{
    run_campaign, CampaignConfig, CampaignReport, Cell, CoordinationMode, MaterialsSpace,
    PlannerKind,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;

const SEED: u64 = 4242;

fn arena_planners() -> Vec<PlannerKind> {
    let mut kinds = PlannerKind::all_concrete();
    kinds.push(PlannerKind::meta());
    kinds.push(PlannerKind::ensemble());
    kinds
}

fn arena_config(planner: PlannerKind) -> CampaignConfig {
    // One lane, autonomous coordination, modest horizon: differences in
    // time-to-first-hit are then purely the decision policy's doing.
    let mut cfg = CampaignConfig::for_cell(
        Cell::new(IntelligenceLevel::Learning, Pattern::Single),
        SEED,
    )
    .with_planner(planner);
    cfg.horizon = SimDuration::from_days(10);
    cfg.coordination = Some(CoordinationMode::Autonomous);
    cfg.max_experiments = 30_000;
    cfg
}

fn run_arena(space: &MaterialsSpace) -> Vec<(String, CampaignReport)> {
    arena_planners()
        .into_iter()
        .map(|kind| {
            let label = kind.label().to_string();
            (label, run_campaign(space, &arena_config(kind)))
        })
        .collect()
}

#[derive(Serialize)]
struct Row {
    planner: String,
    time_to_first_hours: Option<f64>,
    distinct_discoveries: usize,
    experiments: u64,
    best_score: f64,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 555);

    let first = run_arena(&space);
    let rerun = run_arena(&space);

    let rows: Vec<Row> = first
        .iter()
        .map(|(label, r)| Row {
            planner: label.clone(),
            time_to_first_hours: r.time_to_first_hours,
            distinct_discoveries: r.distinct_discoveries,
            experiments: r.experiments,
            best_score: r.best_score,
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.planner.clone(),
                r.time_to_first_hours
                    .map(|h| format!("{h:.1}"))
                    .unwrap_or_else(|| "—".into()),
                r.distinct_discoveries.to_string(),
                r.experiments.to_string(),
                format!("{:.3}", r.best_score),
            ]
        })
        .collect();
    print_table(
        &format!("Planner arena (same landscape, seed {SEED})"),
        &[
            "planner",
            "first hit (h)",
            "discoveries",
            "experiments",
            "best",
        ],
        &table,
    );

    // Gate 1: byte-identical reruns, planner by planner.
    println!();
    let mut gates = Gates::new();
    gates.check(
        format!("all {} planners byte-identical on rerun", first.len()),
        first.iter().zip(&rerun).all(|((_, a), (_, b))| {
            serde_json::to_string(a).expect("report serializes")
                == serde_json::to_string(b).expect("report serializes")
        }),
    );

    // Gate 2: surrogate and a bandit beat the Static grid on
    // time-to-first-hit.
    let ttf = |label: &str| -> f64 {
        rows.iter()
            .find(|r| r.planner == label)
            .and_then(|r| r.time_to_first_hours)
            .unwrap_or(f64::INFINITY)
    };
    let grid = ttf("grid");
    let surrogate = ttf("surrogate");
    let bandit = ttf("bandit-ucb1").min(ttf("bandit-thompson"));
    println!("  first hit: surrogate {surrogate:.1}h, best bandit {bandit:.1}h, grid {grid:.1}h");
    gates.check("surrogate first hit sooner than grid", surrogate < grid);
    gates.check("best bandit first hit sooner than grid", bandit < grid);

    // Gate 3: the cooperative ensemble beats the best single planner on
    // distinct discoveries at the same experiment budget.
    let ensemble_distinct = rows
        .iter()
        .find(|r| r.planner == "ensemble")
        .map(|r| r.distinct_discoveries)
        .unwrap_or(0);
    let (best_single, best_single_distinct) = rows
        .iter()
        .filter(|r| r.planner != "ensemble")
        .map(|r| (r.planner.clone(), r.distinct_discoveries))
        .max_by_key(|&(_, d)| d)
        .unwrap_or(("—".into(), 0));
    println!(
        "  distinct discoveries: ensemble {ensemble_distinct}, best single \
         ({best_single}) {best_single_distinct}"
    );
    gates.check(
        "ensemble finds more distinct discoveries than the best single planner",
        ensemble_distinct > best_single_distinct,
    );

    #[derive(Serialize)]
    struct Out {
        seed: u64,
        rows: Vec<Row>,
        grid_first_hit_hours: f64,
        ensemble_distinct: usize,
        best_single_planner: String,
        best_single_distinct: usize,
        gates: Gates,
    }
    let out = Out {
        seed: SEED,
        rows,
        grid_first_hit_hours: grid,
        ensemble_distinct,
        best_single_planner: best_single,
        best_single_distinct,
        gates,
    };
    // Machine-readable per-PR summary: the perf trajectory CI tracks.
    write_bench_summary("planner_arena", &out);
    out.gates.exit_code()
}
