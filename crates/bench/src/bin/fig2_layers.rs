//! **Figure 2 — Architectural layers and components.**
//!
//! Assembles the six-layer `LabRuntime`, prints the full component
//! inventory with health status, and drives the canonical inter-layer
//! smoke cycle (agent decision → coordination → facility → data layer →
//! dashboard) to show the layers actually talk to each other.

use evoflow_bench::{print_table, write_results, Gates};
use evoflow_core::LabRuntime;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct LayerSummary {
    layer: String,
    components: usize,
    healthy: usize,
}

fn main() -> ExitCode {
    let mut rt = LabRuntime::standard(2026);
    let inventory = rt.inventory();

    let rows: Vec<Vec<String>> = inventory
        .iter()
        .map(|c| {
            vec![
                c.layer.to_string(),
                c.component.clone(),
                if c.healthy { "healthy" } else { "DOWN" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 2: six-layer architecture inventory",
        &["layer", "component", "status"],
        &rows,
    );

    // Aggregate per layer.
    let mut summary: Vec<LayerSummary> = Vec::new();
    for c in &inventory {
        match summary.iter_mut().find(|s| s.layer == c.layer) {
            Some(s) => {
                s.components += 1;
                s.healthy += c.healthy as usize;
            }
            None => summary.push(LayerSummary {
                layer: c.layer.to_string(),
                components: 1,
                healthy: c.healthy as usize,
            }),
        }
    }

    // Inter-layer smoke cycle.
    let layers_touched = rt.smoke_cycle();
    println!("\nInter-layer smoke cycle touched {layers_touched}/6 layers");
    println!(
        "  orchestration: {} task(s) scheduled, phase = {:?}",
        rt.orchestration.scheduled_tasks, rt.orchestration.phase
    );
    println!(
        "  data layer: {} provenance activities, {} KG nodes",
        rt.data.provenance.activity_count(),
        rt.data.knowledge_graph.node_count()
    );
    println!(
        "  human interface: {} dashboard entries, {} pending interventions",
        rt.human.dashboard.len(),
        rt.human.interventions.len()
    );

    // Human-on-the-loop demonstration: an agent escalates, a human resolves.
    rt.human
        .request_intervention("agent approaching decision boundary: sample budget 5%");
    let resolved = rt.human.resolve_intervention();
    println!("  intervention resolved: {resolved:?}");

    println!();
    let mut gates = Gates::new();
    gates.check(
        "all six layers assembled, healthy, and interoperating",
        layers_touched == 6 && inventory.iter().all(|c| c.healthy),
    );

    write_results("fig2_layers", &summary);
    gates.exit_code()
}
