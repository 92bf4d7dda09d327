//! **Claim C6 — swarm coordination scales to "hundreds or thousands of
//! agents" where mesh coordination cannot (§5.3, §5.5).**
//!
//! Sweeps n ∈ {10..2000} agents and compares: (1) channel counts for mesh
//! vs swarm wiring, (2) consensus cost — broadcast quorum voting vs
//! push-pull gossip — in messages and rounds, and (3) the neighborhood-size
//! ablation k ∈ {2..16} (DESIGN.md §6.2): larger k converges faster but
//! costs proportionally more channels.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_coord::consensus::topology;
use evoflow_coord::{gossip_consensus, run_quorum, QuorumConfig};
use evoflow_core::{run_campaign_fleet, Cell, FleetConfig, MaterialsSpace};
use evoflow_sim::{SimDuration, SimRng};
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct ScaleRow {
    n: u64,
    mesh_channels: u64,
    swarm_channels: u64,
    quorum_messages: u64,
    gossip_messages: u64,
    gossip_rounds: u32,
}

#[derive(Serialize)]
struct KRow {
    k: usize,
    channels: u64,
    rounds: u32,
    messages: u64,
}

#[derive(Serialize)]
struct FleetRow {
    k: usize,
    campaigns: usize,
    experiments: u64,
    distinct: u64,
    samples_per_day_mean: f64,
    wall_secs: f64,
}

fn main() -> ExitCode {
    let k = 8usize;
    let mut rows = Vec::new();
    for n in [10u64, 50, 100, 250, 500, 1000, 2000] {
        let mut rng = SimRng::from_seed_u64(n);
        let quorum = run_quorum(
            n as u32,
            0.95,
            0.8,
            QuorumConfig {
                threshold: 0.6,
                max_rounds: 6,
            },
            &mut rng,
        );
        let mut opinions: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
        let gossip = gossip_consensus(&mut opinions, k, 0.1, 200, &mut rng);
        assert!(gossip.converged, "gossip failed to converge at n={n}");
        rows.push(ScaleRow {
            n,
            mesh_channels: topology::mesh_channels(n),
            swarm_channels: topology::swarm_channels(n, k as u64),
            quorum_messages: quorum.messages,
            gossip_messages: gossip.messages,
            gossip_rounds: gossip.rounds,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.mesh_channels.to_string(),
                r.swarm_channels.to_string(),
                r.quorum_messages.to_string(),
                r.gossip_messages.to_string(),
                r.gossip_rounds.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Claim C6: coordination scaling, k = {k}"),
        &[
            "n agents",
            "mesh channels O(n²)",
            "swarm channels O(kn)",
            "quorum msgs",
            "gossip msgs",
            "gossip rounds",
        ],
        &table,
    );

    // Neighborhood-size ablation at n = 500.
    let n = 500usize;
    let mut krows = Vec::new();
    for k in [2usize, 4, 8, 16] {
        let mut rng = SimRng::from_seed_u64(k as u64);
        let mut opinions: Vec<f64> = (0..n).map(|i| (i % 23) as f64).collect();
        let g = gossip_consensus(&mut opinions, k, 0.1, 400, &mut rng);
        krows.push(KRow {
            k,
            channels: topology::swarm_channels(n as u64, k as u64),
            rounds: g.rounds,
            messages: g.messages,
        });
    }
    let table: Vec<Vec<String>> = krows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.channels.to_string(),
                r.rounds.to_string(),
                r.messages.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Neighborhood-size ablation (n = {n})"),
        &["k", "channels", "rounds to consensus", "messages"],
        &table,
    );

    // End-to-end via the fleet executor: actual swarm *campaigns* at each
    // neighborhood size, run in parallel through `run_campaign_fleet` so
    // the topology claim is tied to delivered discovery throughput.
    let space = MaterialsSpace::generate(3, 8, 606);
    let mut fleet_rows = Vec::new();
    for k in [2usize, 4, 8] {
        let mut cfg = FleetConfig::new(k as u64 ^ 0xF1EE7);
        cfg.horizon = SimDuration::from_days(5);
        // Pinned so the run shape never depends on the host's core count
        // (threads = 0 would mean "one per host core"); results are
        // thread-invariant either way.
        cfg.threads = 4;
        cfg.push_cell(
            Cell::new(
                IntelligenceLevel::Intelligent,
                evoflow_agents::Pattern::Swarm { k },
            ),
            4,
        );
        let started = Instant::now();
        let report = run_campaign_fleet(&space, &cfg);
        let wall_secs = started.elapsed().as_secs_f64();
        let cell = &report.per_cell[0];
        fleet_rows.push(FleetRow {
            k,
            campaigns: cell.campaigns,
            experiments: cell.experiments,
            distinct: cell.distinct_discoveries,
            samples_per_day_mean: cell.samples_per_day.mean,
            wall_secs,
        });
    }
    let table: Vec<Vec<String>> = fleet_rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.campaigns.to_string(),
                r.experiments.to_string(),
                r.distinct.to_string(),
                fmt(r.samples_per_day_mean),
                format!("{:.2}", r.wall_secs),
            ]
        })
        .collect();
    print_table(
        "Swarm campaigns through the fleet executor (4 campaigns per k)",
        &[
            "k",
            "campaigns",
            "experiments",
            "distinct",
            "samples/day",
            "wall s",
        ],
        &table,
    );

    let first = &rows[0];
    let last = rows.last().expect("rows");
    let mesh_growth = last.mesh_channels as f64 / first.mesh_channels as f64;
    let swarm_growth = last.swarm_channels as f64 / first.swarm_channels as f64;
    let n_growth = last.n as f64 / first.n as f64;
    println!("\nHeadline (n: {} → {}):", first.n, last.n);
    println!("  mesh channels grew {}× (quadratic)", fmt(mesh_growth));
    println!(
        "  swarm channels grew {}× (linear, = n growth {})",
        fmt(swarm_growth),
        fmt(n_growth)
    );
    let mut gates = Gates::new();
    gates.check(
        "swarm channel growth is linear in n",
        (swarm_growth - n_growth).abs() < 1.0,
    );
    gates.check(
        "mesh channel growth is ~quadratic",
        mesh_growth > n_growth * n_growth * 0.5,
    );
    gates.check(
        "gossip rounds stay ~flat to n = 2000",
        rows.iter().map(|r| r.gossip_rounds).max().unwrap() <= 2 * rows[0].gossip_rounds.max(4),
    );
    gates.check(
        "larger k converges in fewer rounds",
        krows.first().unwrap().rounds >= krows.last().unwrap().rounds,
    );

    #[derive(Serialize)]
    struct Out {
        scaling: Vec<ScaleRow>,
        k_ablation: Vec<KRow>,
        fleet_campaigns: Vec<FleetRow>,
    }
    write_results(
        "claim_swarm_scale",
        &Out {
            scaling: rows,
            k_ablation: krows,
            fleet_campaigns: fleet_rows,
        },
    );
    gates.exit_code()
}
