//! **Chaos benchmark — what does surviving a crash cost?**
//!
//! Two measurements, both under seeded, replayable fault schedules
//! (ISSUE 2):
//!
//! 1. **Task level** — a 20-task workflow under degraded/hostile chaos:
//!    simulated-makespan inflation from injected faults, and outcome
//!    equality with the undisturbed run after coordinator death +
//!    checkpoint + resume.
//! 2. **Fleet level** — an M-campaign fleet killed mid-run at a seeded
//!    crash point and resumed from its `FleetCheckpoint`: wall-clock
//!    resume overhead versus the uninterrupted run, timed in
//!    back-to-back alternating pairs per seed (the gate reads the worst
//!    seed's median per-pair ratio), with every resumed `FleetReport`
//!    gated byte-identical to the baseline.
//!
//! Acceptance bar: every resumed fleet report is byte-identical to the
//! uninterrupted one, and resume overhead stays below 2× — a crash costs
//! at most re-running what was in flight, never the committed work. Each
//! bar is a gate in `BENCH_chaos.json`; any failed gate exits non-zero.

use evoflow_bench::{alternating_pairs, fmt, median, print_table, write_bench_summary, Gates};
use evoflow_core::{
    fleet_death_point, resume_campaign_fleet, run_campaign_fleet, run_campaign_fleet_until, Cell,
    FleetConfig, MaterialsSpace,
};
use evoflow_sim::{ChaosSchedule, ChaosSpec, RngRegistry, SimDuration};
use evoflow_sm::IntelligenceLevel;
use evoflow_wms::{
    execute, execute_under_chaos, resume, Checkpoint, FaultPolicy, TaskSpec, Workflow,
};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct WmsRow {
    chaos_seed: u64,
    injected_faults: u32,
    died: bool,
    clean_makespan_h: f64,
    chaos_makespan_h: f64,
    inflation: f64,
    outcome_equal: bool,
}

#[derive(Serialize)]
struct FleetRow {
    chaos_seed: u64,
    kill_after: usize,
    committed_at_kill: usize,
    kill_wall_s: f64,
    resume_wall_s: f64,
    overhead: f64,
    byte_identical: bool,
}

fn wms_battery() -> Vec<WmsRow> {
    let dag = evoflow_sm::dag::shapes::layered(5, 4);
    let specs = (0..dag.len())
        .map(|i| TaskSpec::reliable(format!("t{i}"), SimDuration::from_hours(1)))
        .collect();
    let wf = Workflow::new(dag, specs);
    let mut rows = Vec::new();
    for chaos_seed in [1u64, 2, 3, 4, 5] {
        let schedule = ChaosSchedule::derive(
            &RngRegistry::new(chaos_seed),
            &ChaosSpec::hostile(),
            wf.len(),
        );
        let clean = execute(&wf, 4, FaultPolicy::Retry, 9);
        let chaotic = execute_under_chaos(&wf, 4, FaultPolicy::Retry, 9, &schedule);
        let injected =
            chaotic.injected_crashes + chaotic.injected_delays + chaotic.injected_io_errors;
        let died = chaotic.died;
        let final_report = if died {
            let ckpt = Checkpoint::from_report(&chaotic.report);
            resume(&wf, &ckpt, 4, FaultPolicy::Retry, 13).expect("engine checkpoints resume")
        } else {
            chaotic.report
        };
        rows.push(WmsRow {
            chaos_seed,
            injected_faults: injected,
            died,
            clean_makespan_h: clean.makespan.as_hours(),
            chaos_makespan_h: final_report.makespan.as_hours(),
            inflation: final_report.makespan.as_hours() / clean.makespan.as_hours(),
            outcome_equal: final_report.same_outcome(&clean),
        });
    }
    rows
}

fn build_fleet(threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(1234);
    cfg.horizon = SimDuration::from_days(4);
    cfg.threads = threads;
    let light = Cell::traditional_wms();
    let heavy = Cell::autonomous_science();
    let learn = Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh);
    for i in 0..9 {
        cfg.push_cell([light, heavy, learn][i % 3], 1);
    }
    cfg
}

/// Back-to-back (uninterrupted, kill+resume) pairs timed per chaos seed.
const OVERHEAD_PAIRS: usize = 5;

/// Per chaos seed, time [`OVERHEAD_PAIRS`] alternating (uninterrupted,
/// kill+resume) pairs; a row's overhead is the median per-pair ratio, so
/// host-speed drift between runs cannot fail the gate on its own. Also
/// returns the median uninterrupted wall time over every pair.
fn fleet_battery(threads: usize) -> (Vec<FleetRow>, f64) {
    let space = MaterialsSpace::generate(3, 8, 555);
    let cfg = build_fleet(threads);
    let report_json = |report| serde_json::to_string(&report).expect("report serializes");
    let baseline_json = report_json(run_campaign_fleet(&space, &cfg));
    let uninterrupted = || {
        let started = Instant::now();
        let report = run_campaign_fleet(&space, &cfg);
        (started.elapsed().as_secs_f64(), report_json(report))
    };

    let mut rows = Vec::new();
    let mut clean_walls = Vec::new();
    for chaos_seed in [101u64, 202, 303] {
        let kill_after = fleet_death_point(chaos_seed, cfg.campaigns.len());
        let kill_and_resume = || {
            let t0 = Instant::now();
            let ckpt = run_campaign_fleet_until(&space, &cfg, kill_after);
            let kill_wall = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).expect("seeds match");
            let resume_wall = t1.elapsed().as_secs_f64();
            let committed = ckpt.completed_count();
            (kill_wall, resume_wall, committed, report_json(resumed))
        };
        let pairs = alternating_pairs(OVERHEAD_PAIRS, uninterrupted, kill_and_resume);
        let ratios: Vec<f64> = pairs
            .iter()
            .map(|((clean, _), (kill, resume, _, _))| (kill + resume) / clean.max(1e-9))
            .collect();
        let kill_walls: Vec<f64> = pairs.iter().map(|(_, (kill, ..))| *kill).collect();
        let resume_walls: Vec<f64> = pairs.iter().map(|(_, (_, resume, ..))| *resume).collect();
        clean_walls.extend(pairs.iter().map(|((clean, _), _)| *clean));
        let (_, (_, _, committed_at_kill, _)) = pairs[0];
        rows.push(FleetRow {
            chaos_seed,
            kill_after,
            committed_at_kill,
            kill_wall_s: median(&kill_walls),
            resume_wall_s: median(&resume_walls),
            overhead: median(&ratios),
            byte_identical: pairs.iter().all(|((_, clean), (.., resumed))| {
                *clean == baseline_json && *resumed == baseline_json
            }),
        });
    }
    (rows, median(&clean_walls))
}

fn main() -> ExitCode {
    println!("chaos benchmark: seeded fault schedules, checkpointed resume");

    let wms_rows = wms_battery();
    print_table(
        "Task-level chaos: 20-task workflow, hostile schedule, resume on death",
        &[
            "seed",
            "faults",
            "died",
            "clean h",
            "chaos h",
            "inflation",
            "outcome",
        ],
        &wms_rows
            .iter()
            .map(|r| {
                vec![
                    r.chaos_seed.to_string(),
                    r.injected_faults.to_string(),
                    r.died.to_string(),
                    fmt(r.clean_makespan_h),
                    fmt(r.chaos_makespan_h),
                    format!("{}×", fmt(r.inflation)),
                    if r.outcome_equal { "equal" } else { "DIVERGED" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let (fleet_rows, clean_wall) = fleet_battery(threads);
    print_table(
        &format!(
            "Fleet-level crash + resume, 9 campaigns, {threads} threads \
             (median uninterrupted run {} s; each row the median of {OVERHEAD_PAIRS} alternating pairs)",
            fmt(clean_wall)
        ),
        &[
            "seed",
            "kill@",
            "committed",
            "kill s",
            "resume s",
            "overhead",
            "report",
        ],
        &fleet_rows
            .iter()
            .map(|r| {
                vec![
                    r.chaos_seed.to_string(),
                    r.kill_after.to_string(),
                    r.committed_at_kill.to_string(),
                    fmt(r.kill_wall_s),
                    fmt(r.resume_wall_s),
                    format!("{}×", fmt(r.overhead)),
                    if r.byte_identical {
                        "byte-identical"
                    } else {
                        "DIVERGED"
                    }
                    .to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let worst_overhead = fleet_rows.iter().map(|r| r.overhead).fold(0.0, f64::max);
    println!(
        "\n  wall: clean {clean_wall:.3}s (median) at {threads} threads, worst seed's median resume overhead {:.2}x\n",
        worst_overhead
    );

    // Wall-clock numbers are printed above and never serialized, so CI
    // can byte-diff BENCH_chaos.json between runs.
    let mut gates = Gates::new();
    gates.check(
        "task-level resume reproduces the undisturbed outcome (5 hostile schedules)",
        wms_rows.iter().all(|r| r.outcome_equal),
    );
    gates.check(
        "fleet kill+resume report byte-identical to the uninterrupted run (3 seeds)",
        fleet_rows.iter().all(|r| r.byte_identical),
    );
    // Wall-clock overhead only gates on hosts fast enough to measure it:
    // kill+resume re-runs at most the in-flight work, so the worst seed's
    // median per-pair ratio must stay under 2× (plus scheduling slack).
    gates.check(
        "fleet kill+resume wall time within 2x the uninterrupted run",
        worst_overhead <= 2.0 || clean_wall < 0.05,
    );

    #[derive(Serialize)]
    struct Summary {
        gates: Gates,
    }
    let summary = Summary { gates };
    write_bench_summary("chaos", &summary);
    summary.gates.exit_code()
}
