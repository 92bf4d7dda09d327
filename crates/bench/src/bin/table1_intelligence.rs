//! **Table 1 — The intelligence dimension.**
//!
//! Runs the shared noisy instrument-calibration task at all five
//! intelligence levels across four disturbance scenarios × many seeds, and
//! prints the paper's qualitative claims as measured numbers:
//!
//! * capability is monotone in level *per the scenario class that
//!   motivates it* (noise → Adaptive, bias → Learning/Optimizing,
//!   regime shifts → Intelligent);
//! * per-decision cost scales from O(1) lookup toward unbounded reasoning;
//! * verification space grows from trivially finite to undecidable.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_sim::SimRng;
use evoflow_sm::{controller_for_level, run_episode, IntelligenceLevel, Scenario};
use serde::Serialize;
use std::process::ExitCode;

const SEEDS: u64 = 24;
const HORIZON: u32 = 500;

#[derive(Serialize)]
struct CellResult {
    level: String,
    scenario: String,
    in_band: f64,
    mean_abs_err: f64,
    recoveries: f64,
    crash_rate: f64,
    cost_per_step: f64,
}

fn evaluate(level: IntelligenceLevel, scenario: Scenario) -> CellResult {
    // Independent seeded replications, one episode per seed.
    let runs: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let mut m = controller_for_level(level, seed * 7 + 1);
            let mut rng = SimRng::from_seed_u64(seed ^ 0x5EED);
            // Learning level gets its in-episode history plus a short
            // pre-training phase (it needs H; Table 1's "data
            // infrastructure" requirement).
            if level == IntelligenceLevel::Learning {
                for _ in 0..12 {
                    run_episode(&mut m, scenario, HORIZON, &mut rng);
                }
            }
            run_episode(&mut m, scenario, HORIZON, &mut rng)
        })
        .collect();
    let n = runs.len() as f64;
    CellResult {
        level: level.to_string(),
        scenario: scenario.name.to_string(),
        in_band: runs.iter().map(|r| r.in_band_fraction).sum::<f64>() / n,
        mean_abs_err: runs.iter().map(|r| r.mean_abs_error).sum::<f64>() / n,
        recoveries: runs.iter().map(|r| r.recoveries as f64).sum::<f64>() / n,
        crash_rate: runs.iter().filter(|r| r.crashed).count() as f64 / n,
        cost_per_step: runs.iter().map(|r| r.cost_units as f64).sum::<f64>() / (n * HORIZON as f64),
    }
}

fn main() -> ExitCode {
    let mut results = Vec::new();
    for scenario in Scenario::all() {
        for level in IntelligenceLevel::ALL {
            results.push(evaluate(level, scenario));
        }
    }

    for scenario in Scenario::all() {
        let rows: Vec<Vec<String>> = results
            .iter()
            .filter(|r| r.scenario == scenario.name)
            .map(|r| {
                vec![
                    r.level.clone(),
                    fmt(r.in_band),
                    fmt(r.mean_abs_err),
                    fmt(r.recoveries),
                    fmt(r.crash_rate),
                    fmt(r.cost_per_step),
                ]
            })
            .collect();
        print_table(
            &format!("Table 1 · scenario '{}'", scenario.name),
            &[
                "level",
                "in-band frac",
                "mean |err|",
                "recoveries",
                "crash rate",
                "cost/step",
            ],
            &rows,
        );
    }

    // The headline orderings the paper's narrative requires.
    let get = |lvl: &str, scen: &str| {
        results
            .iter()
            .find(|r| r.level == lvl && r.scenario == scen)
            .expect("cell exists")
    };
    println!("\nHeadline checks:");
    let mut gates = Gates::new();
    gates.check(
        "Adaptive > Static under noise",
        get("Adaptive", "noisy").in_band > get("Static", "noisy").in_band,
    );
    gates.check(
        "Optimizing > Adaptive under bias",
        get("Optimizing", "biased").in_band > get("Adaptive", "biased").in_band,
    );
    gates.check(
        "Learning > Adaptive under bias (after training)",
        get("Learning", "biased").in_band > get("Adaptive", "biased").in_band,
    );
    gates.check(
        "Intelligent > Optimizing under regime shift",
        get("Intelligent", "regime").in_band > get("Optimizing", "regime").in_band,
    );
    gates.check("decision cost strictly increases with level", {
        let costs: Vec<f64> = IntelligenceLevel::ALL
            .iter()
            .map(|l| get(&l.to_string(), "stable").cost_per_step)
            .collect();
        costs.windows(2).all(|w| w[0] < w[1])
    });

    write_results("table1_intelligence", &results);
    gates.exit_code()
}
