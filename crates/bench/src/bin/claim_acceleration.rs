//! **Claim C1 — "potential of 10 to 100× discovery acceleration" (§1,
//! §6.2, §8).**
//!
//! Runs the *same* materials landscape at four points along the evolution
//! path, from today's practice to the autonomous frontier, and reports the
//! discovery-throughput speedups. Also ablates the human-latency model to
//! attribute the acceleration (working-hours gating vs decision effort vs
//! hand-off overhead) — DESIGN.md §6.4.

use evoflow_agents::Pattern;
use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::{run_campaign, CampaignConfig, Cell, CoordinationMode, MaterialsSpace};
use evoflow_facility::HumanModel;
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;

const DAYS: u64 = 28;
const SEEDS: u64 = 6;

#[derive(Serialize)]
struct Config {
    label: String,
    cell: String,
    discoveries_per_week: f64,
    samples_per_day: f64,
    time_to_first_hours: f64,
    wait_fraction: f64,
}

fn run(label: &str, cell: Cell, coord: CoordinationMode, space: &MaterialsSpace) -> Config {
    let reports: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let mut cfg = CampaignConfig::for_cell(cell, seed * 31 + 5);
            cfg.horizon = SimDuration::from_days(DAYS);
            cfg.coordination = Some(coord);
            run_campaign(space, &cfg)
        })
        .collect();
    let n = reports.len() as f64;
    let mean =
        |f: &dyn Fn(&evoflow_core::CampaignReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    Config {
        label: label.to_string(),
        cell: cell.to_string(),
        discoveries_per_week: mean(&|r| r.discoveries_per_week),
        samples_per_day: mean(&|r| r.samples_per_day),
        time_to_first_hours: mean(&|r| r.time_to_first_hours.unwrap_or(24.0 * DAYS as f64)),
        wait_fraction: mean(&|r| {
            r.decision_wait_hours / (r.decision_wait_hours + r.execution_hours).max(1e-9)
        }),
    }
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 10, 777);

    let configs = vec![
        run(
            "A: today's practice",
            Cell::new(IntelligenceLevel::Static, Pattern::Pipeline),
            CoordinationMode::HumanGated(HumanModel::typical_pi()),
            &space,
        ),
        run(
            "B: fault-tolerant WMS",
            Cell::new(IntelligenceLevel::Adaptive, Pattern::Pipeline),
            CoordinationMode::HumanGated(HumanModel::typical_pi()),
            &space,
        ),
        run(
            "C: ML-guided hierarchy",
            Cell::new(IntelligenceLevel::Optimizing, Pattern::Hierarchical),
            CoordinationMode::HumanGated(HumanModel::attentive_operator()),
            &space,
        ),
        run(
            "D: autonomous science",
            Cell::autonomous_science(),
            CoordinationMode::Autonomous,
            &space,
        ),
    ];

    let base_rate = |c: &Config| {
        // Avoid infinite speedups: floor at one discovery per horizon.
        c.discoveries_per_week.max(7.0 / DAYS as f64 / 7.0)
    };
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                c.cell.clone(),
                fmt(c.discoveries_per_week),
                fmt(c.samples_per_day),
                fmt(c.time_to_first_hours),
                format!("{:.0}%", c.wait_fraction * 100.0),
                fmt(base_rate(c) / base_rate(&configs[0])),
            ]
        })
        .collect();
    print_table(
        &format!("Claim C1: discovery acceleration ({DAYS}-day campaigns, {SEEDS} seeds)"),
        &[
            "configuration",
            "cell",
            "disc/week",
            "samples/day",
            "first disc (h)",
            "time waiting",
            "speedup vs A",
        ],
        &rows,
    );

    let speedup_d = base_rate(&configs[3]) / base_rate(&configs[0]);
    let sample_speedup = configs[3].samples_per_day / configs[0].samples_per_day.max(1e-9);

    // Ablation: which part of the human model costs the most?
    println!("\nAblation of the human-coordination model (config A cell):");
    let cell_a = Cell::new(IntelligenceLevel::Static, Pattern::Pipeline);
    let variants: Vec<(&str, HumanModel)> = vec![
        ("full human model", HumanModel::typical_pi()),
        (
            "no working-hours gate",
            HumanModel {
                working_hours_only: false,
                ..HumanModel::typical_pi()
            },
        ),
        (
            "no hand-off overhead",
            HumanModel {
                handoff_overhead_hours: 0.0,
                ..HumanModel::typical_pi()
            },
        ),
        (
            "snap decisions (6 min)",
            HumanModel {
                decision_median_hours: 0.1,
                ..HumanModel::typical_pi()
            },
        ),
    ];
    for (name, h) in variants {
        let c = run(name, cell_a, CoordinationMode::HumanGated(h), &space);
        println!(
            "  {name:<24} samples/day {:>8}  waiting {:>4.0}%",
            fmt(c.samples_per_day),
            c.wait_fraction * 100.0
        );
    }

    println!("\nHeadline:");
    println!("  discovery-rate speedup D/A : {:.0}×", speedup_d);
    println!("  sample-throughput speedup  : {:.0}×", sample_speedup);
    let mut gates = Gates::new();
    gates.check(
        "lands in the paper's 10–100× claim band (shape, not exact numbers)",
        (10.0..=500.0).contains(&speedup_d) && sample_speedup >= 10.0,
    );

    write_results("claim_acceleration", &configs);
    gates.exit_code()
}
