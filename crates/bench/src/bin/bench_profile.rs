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
//!   `(space, config)` — asserted by profiling the same fleet twice and
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
//! always 0 in the artifact by design.

use evoflow_bench::{fmt, print_table, write_bench_summary};
use evoflow_core::{
    run_campaign_fleet_profiled, run_campaign_fleet_recorded, Cell, FleetConfig, MaterialsSpace,
    Phase, PhaseBreakdown,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
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

fn main() {
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

    // ---- Gate: profiling observes, never perturbs ----------------------
    let (plain_report, plain_ledger) = run_campaign_fleet_recorded(&space, &cfg);
    let profiled_json = serde_json::to_string(&report).expect("report serializes");
    let plain_json = serde_json::to_string(&plain_report).expect("report serializes");
    assert_eq!(
        profiled_json, plain_json,
        "profiling changed the FleetReport"
    );
    assert_eq!(ledger, plain_ledger, "profiling changed the FleetLedger");
    println!("  [PASS] profiled report + ledger byte-identical to unprofiled");

    // ---- Gate: counts are deterministic (rerun + thread count) ---------
    let (_, _, rerun) = run_campaign_fleet_profiled(&space, &cfg);
    assert_eq!(
        profile.counts_only(),
        rerun.counts_only(),
        "phase counts changed on rerun"
    );
    let threaded_cfg = build_fleet(campaigns, 2);
    let (_, _, threaded) = run_campaign_fleet_profiled(&space, &threaded_cfg);
    let serial_counts = profile.counts_only();
    let threaded_counts = threaded.counts_only();
    for (s, t) in serial_counts
        .phases
        .iter()
        .zip(threaded_counts.phases.iter())
    {
        if s.phase == Phase::Steal.name() {
            continue; // claims exist only on the threaded path
        }
        assert_eq!(
            (s.phase.clone(), s.count),
            (t.phase.clone(), t.count),
            "campaign phase counts changed with thread count"
        );
    }
    assert_eq!(
        serial_counts.batches_flushed,
        threaded_counts.batches_flushed
    );
    assert_eq!(serial_counts.events_emitted, threaded_counts.events_emitted);
    println!("  [PASS] phase counts identical across rerun and thread counts");

    // ---- Sanity: counts line up with the report ------------------------
    assert_eq!(
        profile.count_of(Phase::Execute),
        report.total_experiments,
        "execute count must equal experiments run"
    );
    assert_eq!(
        profile.count_of(Phase::Observe),
        report.total_experiments,
        "observe count must equal experiments run"
    );
    assert_eq!(
        profile.events_emitted,
        ledger.total_events() as u64,
        "every emitted event must land in the ledger"
    );
    println!("  [PASS] phase counts cross-check against report + ledger");

    // ---- Sanity: propose sub-phases (anchor / model / score) -----------
    // Every proposal times exactly one model call; anchors are computed
    // only for planners that want one; score counts candidates, so it
    // can exceed the umbrella count but must be live on a fleet that
    // includes surrogate-backed planners.
    assert_eq!(
        profile.count_of(Phase::ProposeModel),
        profile.count_of(Phase::Propose),
        "every propose call must time one model sub-phase"
    );
    assert!(
        profile.count_of(Phase::ProposeAnchor) <= profile.count_of(Phase::Propose),
        "at most one anchor computation per proposal"
    );
    assert!(
        profile.count_of(Phase::ProposeScore) > 0,
        "surrogate-backed planners must report scored candidates"
    );
    println!("  [PASS] propose sub-phase counts cross-check against umbrella");

    // ---- Artifact: deterministic counts only ---------------------------
    #[derive(Serialize)]
    struct Out {
        campaigns: usize,
        total_experiments: u64,
        ledger_events: usize,
        profile: PhaseBreakdown,
        threaded_steal_claims: u64,
        /// Umbrella propose count over the sum of all phase counts —
        /// a pure function of `(space, config)` like every other field.
        propose_count_share: f64,
        deterministic_counts: bool,
        non_perturbing: bool,
    }
    let total_counts: u64 = profile.phases.iter().map(|s| s.count).sum();
    let out = Out {
        campaigns,
        total_experiments: report.total_experiments,
        ledger_events: ledger.total_events(),
        profile: profile.counts_only(),
        threaded_steal_claims: threaded_counts.count_of(Phase::Steal),
        propose_count_share: profile.count_of(Phase::Propose) as f64 / total_counts.max(1) as f64,
        deterministic_counts: true,
        non_perturbing: true,
    };
    write_bench_summary("profile", &out);
}
