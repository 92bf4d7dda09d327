//! **Figure 4 — Federated autonomous scientific discovery.**
//!
//! Runs the full materials campaign "with no manually defined DAGs":
//! hypothesis agents propose, the design agent validates, synthesis and
//! characterization execute across lanes, analysis assimilates, the
//! librarian maintains the knowledge graph + provenance, and the
//! meta-optimization agent rewrites strategy when yield stalls. Prints the
//! discovery timeline and the knowledge artifacts the loop produced.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::{run_campaign, CampaignConfig, Cell, CoordinationMode, MaterialsSpace};
use evoflow_sim::SimDuration;
use std::process::ExitCode;

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 10, 0xF164u64);
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 41);
    cfg.horizon = SimDuration::from_days(14);
    cfg.coordination = Some(CoordinationMode::Autonomous);
    let report = run_campaign(&space, &cfg);

    let rows = vec![
        vec!["cell".into(), report.cell_label.clone()],
        vec![
            "campaign length".into(),
            format!("{} simulated days", fmt(report.sim_days)),
        ],
        vec![
            "experiments executed".into(),
            report.experiments.to_string(),
        ],
        vec!["samples / day".into(), fmt(report.samples_per_day)],
        vec![
            "distinct materials discovered".into(),
            format!(
                "{} (of {} latent peaks)",
                report.distinct_discoveries,
                space.peak_count()
            ),
        ],
        vec![
            "total above-threshold hits".into(),
            report.total_hits.to_string(),
        ],
        vec![
            "time to first discovery".into(),
            report
                .time_to_first_hours
                .map(|h| format!("{} h", fmt(h)))
                .unwrap_or_else(|| "none".into()),
        ],
        vec!["best measured score".into(), fmt(report.best_score)],
        vec![
            "decision wait (all lanes)".into(),
            format!("{} h", fmt(report.decision_wait_hours)),
        ],
        vec![
            "execution time (all lanes)".into(),
            format!("{} h", fmt(report.execution_hours)),
        ],
        vec![
            "hallucinated proposals rejected".into(),
            report.rejected_proposals.to_string(),
        ],
        vec![
            "Ω strategy rewrites".into(),
            report.omega_rewrites.to_string(),
        ],
        vec!["knowledge-graph nodes".into(), report.kg_nodes.to_string()],
        vec![
            "provenance activities".into(),
            report.prov_activities.to_string(),
        ],
        vec!["inference tokens".into(), report.tokens.to_string()],
    ];
    print_table(
        "Figure 4: autonomous materials-discovery campaign (no manual DAGs)",
        &["metric", "value"],
        &rows,
    );

    println!();
    let mut gates = Gates::new();
    gates.check(
        "loop ran autonomously (decision wait ≪ execution)",
        report.decision_wait_hours < 0.1 * report.execution_hours,
    );
    gates.check("discoveries were made", report.distinct_discoveries > 0);
    gates.check("knowledge graph populated", report.kg_nodes > 0);
    gates.check(
        "provenance captured AI reasoning",
        report.prov_activities > 0,
    );
    gates.check("validation gate exercised", report.rejected_proposals > 0);

    write_results("fig4_campaign", &report);
    gates.exit_code()
}
