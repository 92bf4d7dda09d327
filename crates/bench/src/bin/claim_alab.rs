//! **Claim C2 — "Berkeley A-lab processes 50–100 times more samples than
//! humans daily, synthesizing 41 novel materials in 17 days" (§2.3).**
//!
//! Reproduces the A-lab shape on the simulated substrate: a human-run lab
//! (one shift, manual decisions between samples) versus an autonomous lab
//! (robotic lanes, agent decisions, 24/7), on the same landscape, measuring
//! samples/day and novel materials over a 17-day window.

use evoflow_agents::Pattern;
use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::{run_campaign, CampaignConfig, Cell, CoordinationMode, MaterialsSpace};
use evoflow_facility::HumanModel;
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct LabRun {
    lab: String,
    samples_per_day: f64,
    novel_materials_17d: usize,
    total_hits: u64,
}

fn main() -> ExitCode {
    // A rich landscape: the A-lab screened a large candidate space with
    // many viable targets (58 attempted, 41 synthesized).
    let space = MaterialsSpace::generate(4, 45, 4141);

    // Human lab: one lane, batches of 2, decisions by an attentive
    // operator during working hours.
    let mut human_cfg =
        CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Adaptive, Pattern::Single), 17);
    human_cfg.horizon = SimDuration::from_days(17);
    human_cfg.batch_per_lane = 2;
    human_cfg.coordination = Some(CoordinationMode::HumanGated(
        HumanModel::attentive_operator(),
    ));
    let human = run_campaign(&space, &human_cfg);

    // Autonomous lab: robotic swarm lanes, agent decisions, around the clock.
    let mut auto_cfg = CampaignConfig::for_cell(
        Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
        17,
    );
    auto_cfg.horizon = SimDuration::from_days(17);
    auto_cfg.batch_per_lane = 4;
    auto_cfg.lanes = Some(10);
    auto_cfg.coordination = Some(CoordinationMode::Autonomous);
    let auto = run_campaign(&space, &auto_cfg);

    let runs = vec![
        LabRun {
            lab: "human-run lab".into(),
            samples_per_day: human.samples_per_day,
            novel_materials_17d: human.distinct_discoveries,
            total_hits: human.total_hits,
        },
        LabRun {
            lab: "autonomous lab (A-lab class)".into(),
            samples_per_day: auto.samples_per_day,
            novel_materials_17d: auto.distinct_discoveries,
            total_hits: auto.total_hits,
        },
    ];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.lab.clone(),
                fmt(r.samples_per_day),
                r.novel_materials_17d.to_string(),
                r.total_hits.to_string(),
            ]
        })
        .collect();
    print_table(
        "Claim C2: A-lab throughput shape (17 simulated days)",
        &["lab", "samples/day", "novel materials", "total hits"],
        &rows,
    );

    let ratio = runs[1].samples_per_day / runs[0].samples_per_day.max(1e-9);
    println!("\nHeadline:");
    println!("  throughput ratio autonomous/human : {ratio:.0}× (paper: 50–100×)");
    println!(
        "  novel materials in 17 days        : {} (paper: 41)",
        runs[1].novel_materials_17d
    );
    let mut gates = Gates::new();
    gates.check(
        "reproduces the A-lab shape (order of magnitude + dozens of materials)",
        (25.0..=400.0).contains(&ratio) && runs[1].novel_materials_17d >= 20,
    );

    write_results("claim_alab", &runs);
    gates.exit_code()
}
