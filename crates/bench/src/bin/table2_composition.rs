//! **Table 2 — The composition dimension.**
//!
//! Builds real agent ensembles at n ∈ {2..512} for each pattern, counts
//! their channels and per-round messages, and confirms the paper's scaling
//! claims: pipeline O(n), hierarchical O(n), mesh O(n²), swarm O(k·n)
//! total — i.e. O(k) per member, independent of n.

use evoflow_agents::{Agent, AgentMsg, AveragingAgent, Ensemble, MapAgent, Pattern};
use evoflow_bench::{fmt, print_table, write_results, Gates};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct ScalingRow {
    pattern: String,
    n: usize,
    channels: u64,
    messages_per_round: u64,
    channels_per_member: f64,
}

fn agents_for(pattern: Pattern, n: usize) -> Vec<Box<dyn Agent>> {
    match pattern {
        Pattern::Mesh | Pattern::Swarm { .. } => (0..n)
            .map(|i| Box::new(AveragingAgent::new(format!("a{i}"), i as f64)) as Box<dyn Agent>)
            .collect(),
        _ => (0..n)
            .map(|i| Box::new(MapAgent::new(format!("m{i}"), 1.01, 0.0)) as Box<dyn Agent>)
            .collect(),
    }
}

fn main() -> ExitCode {
    let sizes = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];
    let k = 6;
    let mut rows = Vec::new();

    for pattern in [
        Pattern::Single,
        Pattern::Pipeline,
        Pattern::Hierarchical,
        Pattern::Mesh,
        Pattern::Swarm { k },
    ] {
        for &n in &sizes {
            if matches!(pattern, Pattern::Single) && n > 2 {
                continue; // Single is size-independent by definition.
            }
            let mut e = Ensemble::new(agents_for(pattern, n), pattern, 42);
            let before = e.stats().messages;
            e.run_round(&AgentMsg::task(vec![1.0]));
            let per_round = e.stats().messages - before;
            rows.push(ScalingRow {
                pattern: format!("{pattern:?}"),
                n,
                channels: e.channel_count(),
                messages_per_round: per_round,
                channels_per_member: e.channel_count() as f64 * 2.0 / n as f64,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pattern.clone(),
                r.n.to_string(),
                r.channels.to_string(),
                r.messages_per_round.to_string(),
                fmt(r.channels_per_member),
            ]
        })
        .collect();
    print_table(
        "Table 2: channel/message scaling per composition pattern",
        &["pattern", "n", "channels", "msgs/round", "channels/member"],
        &table,
    );

    // Scaling-law checks at the largest size.
    let at = |p: &str, n: usize| {
        rows.iter()
            .find(|r| r.pattern == p && r.n == n)
            .expect("row exists")
    };
    let n = 512u64;
    println!("\nHeadline checks (n = {n}, k = {k}):");
    let mesh = at("Mesh", 512).channels;
    let swarm = at(&format!("{:?}", Pattern::Swarm { k }), 512).channels;
    let pipe = at("Pipeline", 512).channels;
    let hier = at("Hierarchical", 512).channels;
    let mut gates = Gates::new();
    gates.check("pipeline channels = n-1 (O(n))", pipe == n - 1);
    gates.check("hierarchical channels = n-1 (O(n))", hier == n - 1);
    gates.check("mesh channels = n(n-1)/2 (O(n²))", mesh == n * (n - 1) / 2);
    gates.check(
        "swarm channels = n·k/2 (O(k) per member)",
        swarm == n * k as u64 / 2,
    );
    gates.check("mesh/swarm channel ratio ≈ (n-1)/k", {
        let ratio = mesh as f64 / swarm as f64;
        (ratio - (n as f64 - 1.0) / k as f64).abs() < 1.0
    });
    gates.check("swarm channels/member constant across n", {
        let a = at(&format!("{:?}", Pattern::Swarm { k }), 64).channels_per_member;
        let b = at(&format!("{:?}", Pattern::Swarm { k }), 512).channels_per_member;
        (a - b).abs() < 1e-9
    });

    write_results("table2_composition", &rows);
    gates.exit_code()
}
