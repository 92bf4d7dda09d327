//! The resilience acceptance battery (ISSUE 2): a fleet killed mid-run
//! and resumed from its [`FleetCheckpoint`] must produce a
//! [`FleetReport`] **byte-identical** to the uninterrupted run — at 1, 2,
//! and 4 threads, under several distinct seeded chaos schedules — plus
//! the task-level chaos → checkpoint → resume path through the whole
//! public stack.
//!
//! When `CHAOS_DETERMINISM_DIR` is set, every resumed fleet report is
//! also written there as JSON; CI's `gates` job runs this test twice with
//! the same seeds, next to `bench_chaos`, and diffs the two directories
//! byte-for-byte.

use evoflow::core::{
    fleet_death_point, resume_campaign_fleet, run_campaign_fleet, run_campaign_fleet_until, Cell,
    FleetCheckpoint, FleetConfig, MaterialsSpace,
};
use evoflow::sim::{ChaosSchedule, ChaosSpec, RngRegistry, SimDuration};
use evoflow::testbed::{certify_resilience, ResilienceGrade};
use evoflow::wms::{execute_under_chaos, resume, Checkpoint, FaultPolicy, TaskSpec, Workflow};

fn heterogeneous_fleet(master_seed: u64, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(master_seed);
    cfg.horizon = SimDuration::from_days(1);
    cfg.threads = threads;
    cfg.push_cell(Cell::traditional_wms(), 3);
    cfg.push_cell(Cell::autonomous_science(), 2);
    cfg.push_cell(
        Cell::new(
            evoflow::sm::IntelligenceLevel::Learning,
            evoflow::agents::Pattern::Mesh,
        ),
        2,
    );
    cfg
}

/// Write a determinism artifact when the CI diff harness asks for one.
fn emit_artifact(name: &str, json: &str) {
    if let Ok(dir) = std::env::var("CHAOS_DETERMINISM_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create artifact dir");
        std::fs::write(dir.join(name), json).expect("write artifact");
    }
}

/// The acceptance criterion, verbatim: kill mid-run, resume from the
/// checkpoint, byte-identical `FleetReport` at 1, 2, and 4 threads,
/// under at least 3 distinct seeded chaos schedules.
#[test]
fn killed_fleet_resumes_byte_identically_at_all_thread_counts() {
    let space = MaterialsSpace::generate(3, 8, 4242);
    let baseline =
        serde_json::to_string(&run_campaign_fleet(&space, &heterogeneous_fleet(7, 1))).unwrap();

    for chaos_seed in [101u64, 202, 303] {
        let cfg_probe = heterogeneous_fleet(7, 1);
        // The crash point comes from a seeded chaos schedule, so each
        // seed exercises a different amount of lost work.
        let kill_after = fleet_death_point(chaos_seed, cfg_probe.campaigns.len());
        assert!(kill_after >= 1);

        for threads in [1usize, 2, 4] {
            let cfg = heterogeneous_fleet(7, threads);
            let ckpt = run_campaign_fleet_until(&space, &cfg, kill_after);
            assert!(
                ckpt.completed_count() <= kill_after,
                "crash must lose in-flight work"
            );

            // The checkpoint survives serialization (it would live on
            // disk across the real coordinator restart)...
            let json = serde_json::to_string(&ckpt).unwrap();
            let restored: FleetCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, ckpt);

            // ...and the resumed fleet is indistinguishable, to the byte,
            // from one that never crashed.
            let resumed = resume_campaign_fleet(&space, &cfg, &restored).unwrap();
            let resumed_json = serde_json::to_string(&resumed).unwrap();
            assert_eq!(
                resumed_json, baseline,
                "chaos_seed={chaos_seed} threads={threads}"
            );
            emit_artifact(
                &format!("fleet-seed{chaos_seed}-t{threads}.json"),
                &resumed_json,
            );
        }
    }
}

/// Task-level chaos through the facade: a workflow disturbed by a seeded
/// hostile schedule, killed by the scheduled coordinator death, reaches
/// the undisturbed outcome after checkpoint + resume.
#[test]
fn workflow_chaos_checkpoint_resume_through_facade() {
    let dag = evoflow::sm::dag::shapes::layered(4, 3);
    let specs = (0..dag.len())
        .map(|i| TaskSpec::reliable(format!("t{i}"), SimDuration::from_hours(1)))
        .collect();
    let wf = Workflow::new(dag, specs);

    for chaos_seed in [11u64, 22, 33] {
        let schedule = ChaosSchedule::derive(
            &RngRegistry::new(chaos_seed),
            &ChaosSpec::hostile(),
            wf.len(),
        );
        let reference =
            execute_under_chaos(&wf, 3, FaultPolicy::Retry, 9, &schedule.without_death());
        assert!(reference.report.completed);

        let killed = execute_under_chaos(&wf, 3, FaultPolicy::Retry, 9, &schedule);
        let final_report = if killed.died {
            let ckpt = Checkpoint::from_report(&killed.report);
            resume(&wf, &ckpt, 3, FaultPolicy::Retry, 13).unwrap()
        } else {
            killed.report
        };
        assert!(
            final_report.same_outcome(&reference.report),
            "chaos_seed={chaos_seed}"
        );
        emit_artifact(
            &format!("wms-seed{chaos_seed}.json"),
            &serde_json::to_string(&final_report.statuses).unwrap(),
        );
    }
}

/// The certification rung, end to end through the facade: the adaptive
/// stack earns R3, the static baseline stalls at R1.
#[test]
fn resilience_certification_separates_the_policies() {
    let dag = evoflow::sm::dag::shapes::layered(3, 3);
    let specs = (0..dag.len())
        .map(|i| TaskSpec::reliable(format!("t{i}"), SimDuration::from_hours(1)))
        .collect();
    let wf = Workflow::new(dag, specs);
    let adaptive = certify_resilience("adaptive", &wf, 2, FaultPolicy::Retry, 2026);
    let static_ = certify_resilience("static", &wf, 2, FaultPolicy::Abort, 2026);
    assert_eq!(adaptive.achieved, Some(ResilienceGrade::R3CrashSurvivor));
    assert_eq!(static_.achieved, Some(ResilienceGrade::R1Transient));
    emit_artifact(
        "certificates.json",
        &serde_json::to_string(&(&adaptive, &static_)).unwrap(),
    );
}
