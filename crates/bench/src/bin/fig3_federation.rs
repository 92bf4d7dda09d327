//! **Figure 3 — Deployment in a federated environment.**
//!
//! Assembles the five-facility federation (edge lab, lightsource, HPC
//! center, cloud, AI hub), exercises capability discovery across
//! administrative boundaries, authenticated cross-facility handshakes, and
//! data-fabric transfers at the paper's §5.3 bandwidth classes.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::Federation;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct TransferRow {
    from: String,
    to: String,
    gb: f64,
    seconds: f64,
    bottleneck_gbps: f64,
    route: String,
}

fn main() -> ExitCode {
    let mut fed = Federation::standard();

    // Facility inventory.
    let rows: Vec<Vec<String>> = fed
        .facilities()
        .iter()
        .map(|f| {
            vec![
                f.name.clone(),
                format!("{:?}", f.kind),
                f.instruments
                    .iter()
                    .map(|i| i.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    print_table(
        "Figure 3: federated facilities",
        &["facility", "kind", "instruments"],
        &rows,
    );

    // Capability discovery across boundaries.
    println!("\nCapability discovery:");
    for cap in [
        "synthesis/thin-film",
        "characterization/xrd",
        "simulation/dft",
        "inference/llm",
        "analysis/statistics",
    ] {
        let hits = fed.discover(cap);
        println!("  {cap:<26} -> {}", hits.join(", "));
    }

    // Authenticated handshakes (capability negotiation with non-human
    // access, §5.5).
    println!("\nCross-facility handshakes:");
    let mut all_auth = true;
    for (from, cap) in [
        ("ai-hub", "synthesis/thin-film"),
        ("autonomous-lab", "characterization/xrd"),
        ("lightsource", "simulation/dft"),
        ("hpc-center", "inference/llm"),
    ] {
        match fed.handshake(from, cap) {
            Ok(h) => println!(
                "  {from} -> {} [{}] authenticated={}",
                h.to, h.capability, h.authenticated
            ),
            Err(e) => {
                all_auth = false;
                println!("  {from} -> FAILED: {e}");
            }
        }
    }

    // Data-fabric transfers (Globus-style, §5.2) at multimodal sizes.
    let mut transfers = Vec::new();
    for (from, to, gb) in [
        ("autonomous-lab", "ai-hub", 2.0),     // edge sensor burst
        ("lightsource", "hpc-center", 500.0),  // detector frames
        ("hpc-center", "ai-hub", 1_000.0),     // simulation output to hub
        ("cloud-east", "autonomous-lab", 0.1), // steering command
    ] {
        let plan = fed
            .transfer(from, to, gb)
            .expect("standard fabric connected");
        transfers.push(TransferRow {
            from: from.into(),
            to: to.into(),
            gb,
            seconds: plan.duration.as_secs_f64(),
            bottleneck_gbps: plan.bottleneck_gbps,
            route: plan.route.join(" → "),
        });
    }
    let rows: Vec<Vec<String>> = transfers
        .iter()
        .map(|t| {
            vec![
                t.from.clone(),
                t.to.clone(),
                fmt(t.gb),
                fmt(t.seconds),
                fmt(t.bottleneck_gbps),
                t.route.clone(),
            ]
        })
        .collect();
    print_table(
        "Data-fabric transfers (§5.3 bandwidth classes)",
        &["from", "to", "GB", "seconds", "bottleneck Gbps", "route"],
        &rows,
    );

    // Shape check: hub line (400 Gbps) beats WAN for bulk movement.
    let hub = transfers
        .iter()
        .find(|t| t.to == "ai-hub" && t.from == "hpc-center")
        .expect("row");
    println!();
    let mut gates = Gates::new();
    gates.check(
        "federation deployed: discovery + auth + fabric operational",
        all_auth && hub.bottleneck_gbps >= 400.0,
    );

    write_results("fig3_federation", &transfers);
    gates.exit_code()
}
