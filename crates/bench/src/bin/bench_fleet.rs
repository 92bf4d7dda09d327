//! **Fleet executor benchmark — parallel campaign throughput.**
//!
//! Runs the same M-campaign fleet at increasing thread counts and
//! measures wall-clock speedup over the serial baseline, while gating
//! that every configuration produces the identical [`FleetReport`](evoflow_core::FleetReport)
//! (determinism is not allowed to cost correctness, and parallelism is
//! not allowed to cost determinism). Every configuration of the thread
//! sweep runs [`REPS`] times and keeps the minimum — the standard noise
//! filter for shared runners.
//!
//! Three gates (ISSUE 8), each scaled to what the host can actually show:
//!
//! 1. **Self-calibrated speedup.** The bench first measures the host's
//!    *embarrassingly parallel* speedup on synthetic busy-work (no
//!    queue, no coordination — a pure upper bound). A host that
//!    parallelizes the calibration ≥ [`CALIBRATION_PARALLEL_MIN`]× must
//!    show fleet speedup ≥ [`RELATIVE_SPEEDUP_FRACTION`] of that
//!    calibrated ceiling — so multi-core hosts must demonstrate real
//!    scaling, while a single-core host (calibration ≈ 1×) falls back to
//!    the overhead gate instead of a physically impossible bar.
//! 2. **Overhead per task.** The 2-thread work-stealing path may cost at
//!    most [`OVERHEAD_BUDGET_MS`] more than the serial fast path, per
//!    campaign — the chunked claim queue keeps the machinery near-free
//!    even where parallelism cannot pay.
//! 3. **Recording tax.** A recorded fleet (every event batched through
//!    the ledger observers) must keep ≥ [`RECORDED_RATIO_FLOOR`] of the
//!    unobserved fleet's throughput, and its report must be
//!    byte-identical to the unobserved one. Both sides are timed in
//!    [`TAX_PAIRS`] back-to-back (unobserved, recorded) pairs at one
//!    thread, alternating which runs first, and the gate reads the
//!    median per-pair ratio: host speed drifts between the thread sweep
//!    and a later recorded run, but not within a pair.
//!
//! Every gate lands in `BENCH_fleet.json` under `gates`, next to the
//! host timings it was judged on; the summary is therefore the one
//! bench artifact that differs between runs.

use evoflow_bench::{alternating_pairs, fmt, median, print_table, write_bench_summary, Gates};
use evoflow_core::{
    run_campaign_fleet, run_campaign_fleet_profiled, Cell, FleetConfig, MaterialsSpace,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Per-campaign budget for the work-stealing machinery itself (chunked
/// claim cursor, thread spawn/join), measured as the 2-thread path's
/// excess wall time over the serial fast path on a host where
/// parallelism cannot pay. Tightened from 10 ms with the batched-claim
/// executor and min-of-[`REPS`] timing.
const OVERHEAD_BUDGET_MS: f64 = 1.5;

/// Recorded-fleet throughput must stay within this fraction of the
/// unobserved fleet's (the cost of full event emission + ledgers).
const RECORDED_RATIO_FLOOR: f64 = 0.8;

/// Fleet speedup must reach this fraction of the calibrated
/// embarrassingly-parallel ceiling (the fleet does real, imbalanced
/// work; the calibration is perfectly balanced spin).
const RELATIVE_SPEEDUP_FRACTION: f64 = 0.6;

/// Calibration speedup below which the host counts as effectively
/// serial and only the overhead gate applies.
const CALIBRATION_PARALLEL_MIN: f64 = 1.2;

/// Thread-sweep configurations run this many times; the minimum wall
/// time wins.
const REPS: usize = 3;

/// Back-to-back (unobserved, recorded) pairs the recording-tax gate
/// times; even, so each side runs first equally often.
const TAX_PAIRS: usize = 6;

#[derive(Serialize)]
struct Row {
    threads: usize,
    campaigns: usize,
    wall_secs: f64,
    speedup: f64,
    experiments: u64,
}

#[derive(Serialize)]
struct CalibrationRow {
    threads: usize,
    wall_secs: f64,
    speedup: f64,
}

fn build_fleet(campaigns: usize, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(1234);
    cfg.horizon = SimDuration::from_days(10);
    cfg.threads = threads;
    // Heterogeneous load: alternate light and heavy cells so the
    // work-stealing queue has real imbalance to absorb.
    let light = Cell::traditional_wms();
    let heavy = Cell::autonomous_science();
    let learn = Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh);
    for i in 0..campaigns {
        cfg.push_cell([light, heavy, learn][i % 3], 1);
    }
    cfg
}

/// Deterministic CPU spin — the calibration workload. Returns a value
/// the caller black-boxes so the loop cannot be optimized away.
fn busy_work(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    x
}

/// Wall seconds to run `tasks` spins of `iters` across `threads` OS
/// threads with a static even split — no queue, no shared state: the
/// host's embarrassingly-parallel ceiling for this shape of work.
fn calibration_secs(tasks: usize, iters: u64, threads: usize) -> f64 {
    let started = Instant::now();
    if threads <= 1 {
        for _ in 0..tasks {
            std::hint::black_box(busy_work(iters));
        }
    } else {
        std::thread::scope(|scope| {
            for w in 0..threads {
                let mine = (tasks / threads) + usize::from(w < tasks % threads);
                scope.spawn(move || {
                    for _ in 0..mine {
                        std::hint::black_box(busy_work(iters));
                    }
                });
            }
        });
    }
    started.elapsed().as_secs_f64()
}

/// Minimum wall seconds over [`REPS`] runs of `f`.
fn min_secs(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 555);
    let campaigns = 12usize;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!("fleet benchmark: {campaigns} campaigns, host has {cores} cores, min of {REPS} runs");

    let thread_sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores.max(2))
        .collect();

    // ---- Calibration: the host's embarrassingly-parallel ceiling ----
    // Size the spin so one task lands near a campaign's run time (~40 ms
    // on the reference host) without depending on the host's exact speed.
    let spin_iters = 30_000_000u64;
    let calib_serial = min_secs(|| calibration_secs(campaigns, spin_iters, 1));
    let calibration: Vec<CalibrationRow> = thread_sweep
        .iter()
        .map(|&threads| {
            let wall = if threads == 1 {
                calib_serial
            } else {
                min_secs(|| calibration_secs(campaigns, spin_iters, threads))
            };
            CalibrationRow {
                threads,
                wall_secs: wall,
                speedup: calib_serial / wall.max(1e-12),
            }
        })
        .collect();
    let calibration_best = calibration
        .iter()
        .map(|r| r.speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "calibration: embarrassingly-parallel busy-work peaks at {}× on this host",
        fmt(calibration_best)
    );

    // ---- Fleet sweep (reports gated identical at every count) -------
    let mut rows: Vec<Row> = Vec::new();
    let mut baseline_secs = 0.0f64;
    let mut baseline_json = String::new();
    let mut baseline_experiments = 0u64;
    let mut thread_invariant = true;
    for &threads in &thread_sweep {
        let cfg = build_fleet(campaigns, threads);
        let mut json = String::new();
        let mut experiments = 0u64;
        let wall = min_secs(|| {
            let started = Instant::now();
            let report = run_campaign_fleet(&space, &cfg);
            let wall = started.elapsed().as_secs_f64();
            json = serde_json::to_string(&report).expect("report serializes");
            experiments = report.total_experiments;
            wall
        });
        if threads == 1 {
            baseline_secs = wall;
            baseline_json = json;
            baseline_experiments = experiments;
        } else {
            thread_invariant &= json == baseline_json;
        }
        rows.push(Row {
            threads,
            campaigns,
            wall_secs: wall,
            speedup: baseline_secs / wall.max(1e-12),
            experiments,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.3}", r.wall_secs),
                format!("{}×", fmt(r.speedup)),
                r.experiments.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Fleet speedup, {campaigns} campaigns"),
        &["threads", "wall s", "speedup", "experiments"],
        &table,
    );

    let best = rows
        .iter()
        .map(|r| r.speedup)
        .fold(f64::NEG_INFINITY, f64::max);

    // ---- Recording tax: recorded vs unobserved throughput -----------
    // Back-to-back pairs at one thread, alternating which side runs
    // first; each pair's ratio sees one host speed.
    let serial_cfg = build_fleet(campaigns, 1);
    let unobserved = || {
        let started = Instant::now();
        let report = run_campaign_fleet(&space, &serial_cfg);
        let wall = started.elapsed().as_secs_f64();
        (
            wall,
            serde_json::to_string(&report).expect("report serializes"),
        )
    };
    let recorded = || {
        let started = Instant::now();
        let (report, _ledger, prof) = run_campaign_fleet_profiled(&space, &serial_cfg);
        let wall = started.elapsed().as_secs_f64();
        let json = serde_json::to_string(&report).expect("report serializes");
        (wall, json, prof)
    };
    let pairs = alternating_pairs(TAX_PAIRS, unobserved, recorded);
    let recorded_identical = pairs
        .iter()
        .all(|((_, u_json), (_, r_json, _))| *u_json == baseline_json && *r_json == baseline_json);
    let unobserved_walls: Vec<f64> = pairs.iter().map(|((u, _), _)| *u).collect();
    let recorded_walls: Vec<f64> = pairs.iter().map(|(_, (r, _, _))| *r).collect();
    let pair_ratios: Vec<f64> = pairs
        .iter()
        .map(|((u, _), (r, _, _))| u / r.max(1e-12))
        .collect();
    let (_, (_, _, breakdown)) = pairs.last().expect("at least one recorded run");
    let recorded_secs = median(&recorded_walls);
    let recorded_ratio = median(&pair_ratios);
    let events_per_sec = breakdown.events_emitted as f64 / recorded_secs.max(1e-12);
    let experiments_per_sec_recorded = baseline_experiments as f64 / recorded_secs.max(1e-12);

    // ---- Gates -------------------------------------------------------
    // Work-stealing overhead per task: how much the 2-thread path (chunk
    // claims + thread spawn/join) costs over the serial fast path,
    // amortized per campaign. Negative excess (parallelism paid off) is
    // clamped to 0 — the gate measures machinery cost, not scheduling
    // luck.
    let two_thread_secs = rows
        .iter()
        .find(|r| r.threads == 2)
        .map(|r| r.wall_secs)
        .unwrap_or(baseline_secs);
    let overhead_ms_per_task =
        ((two_thread_secs - baseline_secs).max(0.0) * 1e3) / campaigns as f64;

    // The speedup bar is relative to what this host proved it can do on
    // perfectly parallel work: a host that cannot parallelize the
    // calibration is in the serial regime and only the overhead gate
    // applies.
    let host_parallel = calibration_best >= CALIBRATION_PARALLEL_MIN;
    let speedup_floor = RELATIVE_SPEEDUP_FRACTION * calibration_best;
    println!(
        "\n  best fleet speedup {}× (calibration ceiling {}×)",
        fmt(best),
        fmt(calibration_best)
    );
    println!(
        "  work-stealing overhead {}ms/task",
        fmt(overhead_ms_per_task)
    );
    println!(
        "  recorded fleet keeps {}× of unobserved throughput (median of {TAX_PAIRS} pairs: {}): {} events/s, {} experiments/s\n",
        fmt(recorded_ratio),
        pair_ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        fmt(events_per_sec),
        fmt(experiments_per_sec_recorded),
    );

    let mut gates = Gates::new();
    gates.check(
        "fleet report byte-identical at every thread count",
        thread_invariant,
    );
    gates.check(
        "recorded fleet report byte-identical to the unobserved one",
        recorded_identical,
    );
    if host_parallel {
        gates.check(
            format!(
                "best fleet speedup ≥ {RELATIVE_SPEEDUP_FRACTION} of the calibrated parallel ceiling"
            ),
            best >= speedup_floor,
        );
    } else {
        println!(
            "  [----] serial host (calibration < {CALIBRATION_PARALLEL_MIN}×): speedup unmeasurable, gating overhead instead"
        );
    }
    gates.check(
        format!("work-stealing overhead ≤ {OVERHEAD_BUDGET_MS}ms per task"),
        overhead_ms_per_task <= OVERHEAD_BUDGET_MS,
    );
    gates.check(
        format!("recorded fleet keeps ≥ {RECORDED_RATIO_FLOOR}× of unobserved throughput"),
        recorded_ratio >= RECORDED_RATIO_FLOOR,
    );

    #[derive(Serialize)]
    struct Recorded {
        wall_secs: f64,
        unobserved_wall_secs: f64,
        ratio: f64,
        pair_ratios: Vec<f64>,
        ratio_floor: f64,
        events_emitted: u64,
        batches_flushed: u64,
        events_per_sec: f64,
        experiments_per_sec: f64,
    }
    #[derive(Serialize)]
    struct Out {
        cores: usize,
        reps: usize,
        calibration: Vec<CalibrationRow>,
        calibration_best_speedup: f64,
        host_parallel: bool,
        rows: Vec<Row>,
        best_speedup: f64,
        speedup_floor: f64,
        relative_speedup_fraction: f64,
        overhead_ms_per_task: f64,
        overhead_budget_ms: f64,
        recorded: Recorded,
        gates: Gates,
    }
    let out = Out {
        cores,
        reps: REPS,
        calibration,
        calibration_best_speedup: calibration_best,
        host_parallel,
        rows,
        best_speedup: best,
        speedup_floor,
        relative_speedup_fraction: RELATIVE_SPEEDUP_FRACTION,
        overhead_ms_per_task,
        overhead_budget_ms: OVERHEAD_BUDGET_MS,
        recorded: Recorded {
            wall_secs: recorded_secs,
            unobserved_wall_secs: median(&unobserved_walls),
            ratio: recorded_ratio,
            pair_ratios,
            ratio_floor: RECORDED_RATIO_FLOOR,
            events_emitted: breakdown.events_emitted,
            batches_flushed: breakdown.batches_flushed,
            events_per_sec,
            experiments_per_sec: experiments_per_sec_recorded,
        },
        gates,
    };
    // Machine-readable per-PR summary: the perf trajectory CI tracks.
    write_bench_summary("fleet", &out);
    out.gates.exit_code()
}
