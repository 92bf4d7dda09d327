//! **Claim C4 — the prescribed evolution trajectory (§3.4).**
//!
//! "The framework prescribes an evolutionary systematic progression in
//! enhancing intelligence … within existing composition, then expanding
//! coordination." This experiment walks that exact path from
//! [Static × Pipeline] to [Intelligent × Swarm], runs a campaign at every
//! intermediate cell, and shows each transition buying measurable
//! capability — evolution, not revolution.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::{
    run_campaign, CampaignConfig, Cell, CoordinationMode, MaterialsSpace, TrajectoryPlanner,
};
use evoflow_facility::HumanModel;
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;

const DAYS: u64 = 21;
const SEEDS: u64 = 4;

#[derive(Serialize)]
struct Step {
    step: usize,
    cell: String,
    requirement: String,
    discoveries_per_week: f64,
    samples_per_day: f64,
    best_score: f64,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 10, 3407);
    let planner = TrajectoryPlanner;
    let path = planner.plan(Cell::traditional_wms(), Cell::autonomous_science());
    let reqs = planner.requirements(&path);

    let mut steps = Vec::new();
    for (i, cell) in path.iter().enumerate() {
        let reports: Vec<_> = (0..SEEDS)
            .map(|seed| {
                let mut cfg = CampaignConfig::for_cell(*cell, seed * 13 + 3);
                cfg.horizon = SimDuration::from_days(DAYS);
                // Coordination follows intelligence, as §5.2 envisions:
                // human-in-the-loop until reasoning engines take over.
                cfg.coordination = Some(match cell.intelligence {
                    IntelligenceLevel::Intelligent => CoordinationMode::Autonomous,
                    IntelligenceLevel::Optimizing | IntelligenceLevel::Learning => {
                        CoordinationMode::HumanGated(HumanModel::attentive_operator())
                    }
                    _ => CoordinationMode::HumanGated(HumanModel::typical_pi()),
                });
                run_campaign(&space, &cfg)
            })
            .collect();
        let n = reports.len() as f64;
        steps.push(Step {
            step: i,
            cell: cell.to_string(),
            requirement: if i == 0 {
                "(starting point)".into()
            } else {
                reqs[i - 1].clone()
            },
            discoveries_per_week: reports.iter().map(|r| r.discoveries_per_week).sum::<f64>() / n,
            samples_per_day: reports.iter().map(|r| r.samples_per_day).sum::<f64>() / n,
            best_score: reports.iter().map(|r| r.best_score).sum::<f64>() / n,
        });
    }

    let rows: Vec<Vec<String>> = steps
        .iter()
        .map(|s| {
            vec![
                s.step.to_string(),
                s.cell.clone(),
                fmt(s.discoveries_per_week),
                fmt(s.samples_per_day),
                fmt(s.best_score),
                s.requirement.clone(),
            ]
        })
        .collect();
    print_table(
        "Claim C4: the §3.4 trajectory, one campaign per cell",
        &[
            "step",
            "cell",
            "disc/week",
            "samples/day",
            "best",
            "transition requirement",
        ],
        &rows,
    );

    let first = &steps[0];
    let last = &steps[steps.len() - 1];
    let monotone_end = last.discoveries_per_week
        >= steps
            .iter()
            .take(steps.len() - 1)
            .map(|s| s.discoveries_per_week)
            .fold(0.0, f64::max)
            * 0.8;
    println!("\nHeadline:");
    println!(
        "  endpoint vs start: {} -> {} disc/week",
        fmt(first.discoveries_per_week),
        fmt(last.discoveries_per_week)
    );
    let improved = last.discoveries_per_week > first.discoveries_per_week;
    let mut gates = Gates::new();
    gates.check(
        "the prescribed path ends far above its start (evolution pays)",
        improved && monotone_end,
    );

    write_results("claim_trajectory", &steps);
    gates.exit_code()
}
