//! **Hot-path profiling harness — where does a recorded campaign spend
//! its time?**
//!
//! Runs a recorded fleet under [`run_campaign_fleet_profiled`] and
//! prints the phase breakdown (propose / execute / observe / emit /
//! steal — see `evoflow_core::profile`), then gates the properties that
//! make the profile trustworthy:
//!
//! * **Counts are deterministic.** Every phase count, the batch-flush
//!   count, and the emitted-event count are pure functions of
//!   `(space, config)` — gated by profiling the same fleet twice and
//!   at 1 and 2 threads. Only these counts land in
//!   `BENCH_profile.json`, so CI can byte-diff two runs of this binary.
//! * **Profiling observes, never perturbs.** The profiled fleet's
//!   report and ledger are byte-identical to the unprofiled recorded
//!   fleet's.
//! * **Disabled probes are free-ish.** Wall-clock comparisons live on
//!   stdout, not in the artifact (they are host noise, not trajectory).
//!
//! Read `BENCH_profile.json` as: `phases[*].count` = units of work per
//! phase (propose calls, experiments measured, observations fed, events
//! emitted, chunks claimed); `batches_flushed` / `events_emitted` = the
//! allocation-proxy counters of the batched emission path; `nanos` is
//! always 0 in the artifact by design; `gates` = every check above.
//! The share column on stdout divides each phase's wall time by the
//! top-level phases' total, so a `propose.*` sub-phase reads as a part
//! of propose's share, not an addition to it.

use evoflow_bench::{fmt, print_table, write_bench_summary, Gates};
use evoflow_core::{
    run_campaign_fleet_profiled, run_campaign_fleet_recorded, Cell, FleetConfig, MaterialsSpace,
    Phase, PhaseBreakdown,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

fn build_fleet(campaigns: usize, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(4321);
    cfg.horizon = SimDuration::from_days(6);
    cfg.threads = threads;
    let light = Cell::traditional_wms();
    let heavy = Cell::autonomous_science();
    let learn = Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh);
    for i in 0..campaigns {
        cfg.push_cell([light, heavy, learn][i % 3], 1);
    }
    cfg
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 777);
    let campaigns = 9usize;
    let cfg = build_fleet(campaigns, 1);

    // ---- Profile the fleet (serial: steal phase is empty by design) ----
    let started = Instant::now();
    let (report, ledger, profile) = run_campaign_fleet_profiled(&space, &cfg);
    let wall = started.elapsed();
    let total_nanos = profile.total_nanos().max(1);

    let table: Vec<Vec<String>> = profile
        .phases
        .iter()
        .map(|s| {
            vec![
                s.phase.to_string(),
                s.count.to_string(),
                format!("{:.3}", s.nanos as f64 / 1e6),
                format!("{:.1}%", 100.0 * s.nanos as f64 / total_nanos as f64),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Phase breakdown, {campaigns} recorded campaigns ({:.3}s wall)",
            wall.as_secs_f64()
        ),
        &["phase", "count", "ms", "share"],
        &table,
    );
    println!(
        "  emission: {} events in {} batches ({} events/batch)",
        profile.events_emitted,
        profile.batches_flushed,
        fmt(profile.events_emitted as f64 / profile.batches_flushed.max(1) as f64),
    );

    println!();
    let mut gates = Gates::new();

    // ---- Gate: profiling observes, never perturbs ----------------------
    let (plain_report, plain_ledger) = run_campaign_fleet_recorded(&space, &cfg);
    gates.check(
        "profiled report + ledger byte-identical to unprofiled",
        serde_json::to_string(&report).expect("report serializes")
            == serde_json::to_string(&plain_report).expect("report serializes")
            && ledger == plain_ledger,
    );

    // ---- Gate: counts are deterministic (rerun + thread count) ---------
    // Chunk claims exist only on the threaded path, so the steal count is
    // left out of the thread-count comparison.
    let (_, _, rerun) = run_campaign_fleet_profiled(&space, &cfg);
    let threaded_cfg = build_fleet(campaigns, 2);
    let (_, _, threaded) = run_campaign_fleet_profiled(&space, &threaded_cfg);
    let serial_counts = profile.counts_only();
    let threaded_counts = threaded.counts_only();
    let without_steal = |b: &PhaseBreakdown| {
        let mut b = b.clone();
        b.phases.retain(|s| s.phase != Phase::Steal.name());
        b
    };
    gates.check(
        "phase counts identical across rerun and thread counts",
        serial_counts == rerun.counts_only()
            && without_steal(&serial_counts) == without_steal(&threaded_counts),
    );

    // ---- Sanity: counts line up with the report ------------------------
    gates.check(
        "execute/observe counts match experiments; emitted events match the ledger",
        profile.count_of(Phase::Execute) == report.total_experiments
            && profile.count_of(Phase::Observe) == report.total_experiments
            && profile.events_emitted == ledger.total_events() as u64,
    );

    // ---- Sanity: propose sub-phases (anchor / model / score) -----------
    // Every proposal times exactly one model call; anchors are computed
    // only for planners that want one; score counts candidates, so it
    // can exceed the umbrella count but must be live on a fleet that
    // includes surrogate-backed planners.
    gates.check(
        "propose sub-phase counts consistent with the umbrella count",
        profile.count_of(Phase::ProposeModel) == profile.count_of(Phase::Propose)
            && profile.count_of(Phase::ProposeAnchor) <= profile.count_of(Phase::Propose)
            && profile.count_of(Phase::ProposeScore) > 0,
    );

    // ---- Artifact: deterministic counts only ---------------------------
    #[derive(Serialize)]
    struct Out {
        campaigns: usize,
        total_experiments: u64,
        ledger_events: usize,
        profile: PhaseBreakdown,
        threaded_steal_claims: u64,
        gates: Gates,
    }
    let out = Out {
        campaigns,
        total_experiments: report.total_experiments,
        ledger_events: ledger.total_events(),
        profile: serial_counts,
        threaded_steal_claims: threaded_counts.count_of(Phase::Steal),
        gates,
    };
    write_bench_summary("profile", &out);
    out.gates.exit_code()
}
