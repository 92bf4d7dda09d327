//! **Federation placement race — every policy, one federation.**
//!
//! Runs the same campaign fleet through the same heterogeneous
//! federation under each [`PlacementPolicyKind`] and gates the federated
//! scheduling layer (ISSUE 4):
//!
//! 1. **Determinism** — every policy's [`FederatedReport`] is
//!    byte-identical on rerun and at 1/2/4 worker threads, and an
//!    outage + coordinator-kill + resume reproduces the uninterrupted
//!    report exactly. CI runs this binary twice and byte-diffs the
//!    emitted artifacts on top.
//! 2. **Queue-awareness pays** — the least-wait policy's makespan must
//!    not exceed round-robin's on the contended reference federation.
//!
//! Artifacts: a machine-readable `BENCH_federation.json` summary (every
//! gate under `gates`) lands in `results/`; with `BENCH_SUMMARY_DIR` set,
//! it lands there instead, next to every emitted report, for CI's
//! byte-diff.

use evoflow_bench::{fmt, print_table, write_artifact, write_bench_summary, Gates};
use evoflow_core::{
    resume_campaign_fleet_federated, run_campaign_fleet_federated,
    run_campaign_fleet_federated_until, Cell, FederatedConfig, FederatedReport, FleetConfig,
    MaterialsSpace, PlacementPolicyKind, SiteSpec,
};
use evoflow_facility::FacilityKind;
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;

const SEED: u64 = 20260726;
const OUTAGE_SEED: u64 = 1;
const KILL_AFTER: usize = 4;

/// A contended reference federation: one large site and two small ones,
/// so placement quality actually moves the makespan.
fn federation_config(policy: PlacementPolicyKind) -> FederatedConfig {
    let mut fleet = FleetConfig::new(SEED);
    fleet.horizon = SimDuration::from_days(1);
    fleet.threads = 1;
    fleet.push_cell(
        Cell::new(IntelligenceLevel::Static, evoflow_agents::Pattern::Mesh),
        12,
    );
    let sites = vec![
        SiteSpec::new("fed-hpc", FacilityKind::Hpc).with_nodes(96),
        SiteSpec::new("fed-mid", FacilityKind::Cloud).with_nodes(24),
        SiteSpec::new("fed-edge", FacilityKind::Instrument).with_nodes(24),
    ];
    let mut cfg = FederatedConfig::new(fleet, policy, sites);
    cfg.inter_arrival = SimDuration::ZERO;
    cfg
}

fn report_bytes(report: &FederatedReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

#[derive(Serialize)]
struct Row {
    policy: String,
    makespan_hours: f64,
    mean_wait_hours: f64,
    transfers: u64,
    bytes_moved: u128,
    rerouted: usize,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 555);

    let mut rows: Vec<Row> = Vec::new();
    let mut gates = Gates::new();
    let mut makespans: Vec<(PlacementPolicyKind, f64)> = Vec::new();

    for policy in PlacementPolicyKind::all() {
        let cfg = federation_config(policy);
        let baseline = run_campaign_fleet_federated(&space, &cfg).expect("capacity exists");
        let baseline_bytes = report_bytes(&baseline);
        write_artifact(&format!("report_{}.json", policy.label()), &baseline_bytes);

        // Gate 1a: byte-identical rerun.
        let rerun = run_campaign_fleet_federated(&space, &cfg).expect("capacity exists");
        gates.check(
            format!("{}: rerun report byte-identical", policy.label()),
            report_bytes(&rerun) == baseline_bytes,
        );

        // Gate 1b: byte-identical at 2 and 4 worker threads.
        let threads_identical = [2usize, 4].into_iter().all(|threads| {
            let mut c = cfg.clone();
            c.fleet.threads = threads;
            let r = run_campaign_fleet_federated(&space, &c).expect("capacity exists");
            report_bytes(&r) == baseline_bytes
        });
        gates.check(
            format!(
                "{}: 2- and 4-thread reports byte-identical to serial",
                policy.label()
            ),
            threads_identical,
        );

        // Gate 1c: outage + kill + resume reproduces the uninterrupted
        // outage run byte-for-byte.
        let chaotic = cfg.clone().with_outage_seed(OUTAGE_SEED);
        let uninterrupted =
            run_campaign_fleet_federated(&space, &chaotic).expect("capacity exists");
        let uninterrupted_bytes = report_bytes(&uninterrupted);
        write_artifact(
            &format!("report_{}_outage.json", policy.label()),
            &uninterrupted_bytes,
        );
        let ckpt = run_campaign_fleet_federated_until(&space, &chaotic, KILL_AFTER)
            .expect("capacity exists");
        let resumed =
            resume_campaign_fleet_federated(&space, &chaotic, &ckpt).expect("checkpoint matches");
        gates.check(
            format!(
                "{}: outage kill@{KILL_AFTER} + resume byte-identical",
                policy.label()
            ),
            report_bytes(&resumed) == uninterrupted_bytes,
        );

        makespans.push((policy, baseline.makespan_hours));
        rows.push(Row {
            policy: policy.label().to_string(),
            makespan_hours: baseline.makespan_hours,
            mean_wait_hours: baseline.mean_wait_hours,
            transfers: baseline.transfers,
            bytes_moved: baseline.bytes_moved,
            rerouted: uninterrupted
                .placements
                .iter()
                .filter(|p| p.rerouted)
                .count(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt(r.makespan_hours),
                fmt(r.mean_wait_hours),
                r.transfers.to_string(),
                format!("{:.1} GB", r.bytes_moved as f64 / 1e9),
                r.rerouted.to_string(),
            ]
        })
        .collect();
    print_table(
        "Placement policy race (12 campaigns, 3 heterogeneous sites)",
        &[
            "policy",
            "makespan h",
            "mean wait h",
            "transfers",
            "moved",
            "rerouted",
        ],
        &table,
    );

    // The outage arm must have teeth: at least one policy's run must
    // actually re-route queued work, or the resume gate is vacuous.
    println!();
    gates.check(
        "the outage re-routes queued work under at least one policy",
        rows.iter().any(|r| r.rerouted > 0),
    );

    // Gate 2: queue-awareness must not lose to blind rotation.
    let makespan_of = |kind: PlacementPolicyKind| -> f64 {
        makespans
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| *m)
            .expect("policy ran")
    };
    let rr = makespan_of(PlacementPolicyKind::RoundRobin);
    let lw = makespan_of(PlacementPolicyKind::LeastWait);
    println!(
        "  least-wait makespan {}h vs round-robin {}h",
        fmt(lw),
        fmt(rr)
    );
    gates.check("least-wait makespan ≤ round-robin makespan", lw <= rr);

    // Deterministic summary only (no wall-clock): CI byte-diffs it.
    #[derive(Serialize)]
    struct Out {
        seed: u64,
        outage_seed: u64,
        kill_after: usize,
        rows: Vec<Row>,
        gates: Gates,
    }
    let out = Out {
        seed: SEED,
        outage_seed: OUTAGE_SEED,
        kill_after: KILL_AFTER,
        rows,
        gates,
    };
    write_bench_summary("federation", &out);
    out.gates.exit_code()
}
