//! **Multi-tenant service under load — admission, fairness, survival.**
//!
//! Runs the long-lived campaign service through a steady multi-tenant
//! session and a hostile-flood session and gates the service layer
//! (ISSUE 6):
//!
//! 1. **Determinism** — the steady session's [`ServiceReport`] and
//!    merged ledger are byte-identical on rerun and at 1/2/4 worker
//!    threads, and a mid-stream kill + resume from the
//!    [`ServiceCheckpoint`](evoflow_core::ServiceCheckpoint) reproduces
//!    both byte-for-byte at every thread count. CI runs this binary
//!    twice and byte-diffs the emitted artifacts on top.
//! 2. **Fairness** — with a hostile tenant submitting at
//!    [`HOSTILE_MULTIPLIER`]× the well-behaved rate, no well-behaved
//!    tenant's share of contended dispatch slots falls below
//!    [`FAIRNESS_FLOOR`] of its weighted fair share.
//! 3. **Responsiveness** — p99 queue wait (rounds from admission to
//!    dispatch, the deterministic time-to-first-iteration proxy) stays
//!    within [`MAX_P99_WAIT_ROUNDS`] in the steady session.
//! 4. **Certification** — `testbed::certify_service` must award
//!    **S3 (restart-survivable)**, the top of the S0–S3 ladder.
//! 5. **Throughput** — sustained submissions/sec through plan + execute
//!    must clear a generous floor (wall-clock; the rate is printed, and
//!    only the verdict reaches the JSON summary, so CI's byte-diff sees
//!    deterministic fields).
//!
//! Artifacts: a machine-readable `BENCH_service.json` summary (every
//! gate under `gates`) lands in `results/`; with `BENCH_SUMMARY_DIR`
//! set, it lands there instead, next to the steady report and merged
//! ledger, for CI's byte-diff.

use evoflow_bench::{fmt, print_table, write_artifact, write_bench_summary, Gates};
use evoflow_core::{
    resume_service, run_service, run_service_until, CampaignConfig, Cell, FleetLedger,
    MaterialsSpace, ServiceConfig, ServiceReport, TenantSpec,
};
use evoflow_sim::SimDuration;
use evoflow_testbed::{certify_service, service_ladder, ServiceGrade};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 20260808;
const WELL_BEHAVED: usize = 3;
const SUBMISSIONS_PER_TENANT: usize = 6;
/// Hostile tenant submits at this multiple of the well-behaved rate.
const HOSTILE_MULTIPLIER: usize = 10;
/// No well-behaved tenant's fairness ratio may fall below this.
const FAIRNESS_FLOOR: f64 = 0.9;
/// p99 admission→dispatch wait budget for the steady session.
const MAX_P99_WAIT_ROUNDS: usize = 10;
/// Commit count at which the kill+resume gate murders the service.
const KILL_AFTER: usize = 5;
/// Sustained submissions/sec floor (wall-clock, generous: the simulated
/// campaigns are micro-scale, so anything slower signals a scheduler
/// pathology, not a slow machine).
const MIN_SUBMISSIONS_PER_SEC: f64 = 20.0;

fn campaign() -> CampaignConfig {
    let mut c = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    c.horizon = SimDuration::from_days(1);
    c
}

/// The steady reference session: weighted tenants, interleaved arrivals.
fn steady_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(SEED);
    cfg.threads = 1;
    for t in 0..WELL_BEHAVED {
        cfg.push_tenant(TenantSpec::new(format!("tenant-{t}")).with_weight(1 + t as u32 % 2));
    }
    for _ in 0..SUBMISSIONS_PER_TENANT {
        for t in 0..WELL_BEHAVED {
            cfg.submit(format!("tenant-{t}"), campaign());
        }
    }
    cfg
}

/// The flood session: same well-behaved tenants plus a hostile one
/// submitting at `HOSTILE_MULTIPLIER`× their rate, everyone weight 1.
fn flood_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(SEED);
    cfg.threads = 1;
    for t in 0..WELL_BEHAVED {
        cfg.push_tenant(TenantSpec::new(format!("tenant-{t}")));
    }
    cfg.push_tenant(TenantSpec::new("hostile"));
    for _ in 0..SUBMISSIONS_PER_TENANT {
        for t in 0..WELL_BEHAVED {
            cfg.submit(format!("tenant-{t}"), campaign());
        }
        for _ in 0..HOSTILE_MULTIPLIER {
            cfg.submit("hostile", campaign());
        }
    }
    cfg
}

#[derive(Serialize)]
struct TenantRow {
    tenant: String,
    weight: u32,
    submitted: usize,
    admitted: usize,
    completed: usize,
    mean_wait_rounds: f64,
    fairness_ratio: f64,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 555);

    // ---- steady session: determinism + responsiveness -------------------
    let steady = steady_config();
    let started = Instant::now();
    let (report, ledger) = run_service(&space, &steady).expect("steady session plans");
    let report_bytes = serde_json::to_string(&report).expect("report serializes");
    let ledger_bytes = serde_json::to_string(&ledger).expect("ledger serializes");
    write_artifact("service_report.json", &report_bytes);
    write_artifact("service_ledger.json", &ledger_bytes);
    let identical = |r: &ServiceReport, l: &FleetLedger| {
        serde_json::to_string(r).expect("report serializes") == report_bytes
            && serde_json::to_string(l).expect("ledger serializes") == ledger_bytes
    };

    // Gate 1a: byte-identical rerun.
    let (rerun_report, rerun_ledger) = run_service(&space, &steady).expect("steady session plans");
    let rerun_identical = identical(&rerun_report, &rerun_ledger);

    // Gate 1b: byte-identical at 2 and 4 worker threads.
    let threads_identical = [2usize, 4].into_iter().all(|threads| {
        let mut c = steady.clone();
        c.threads = threads;
        let (r, l) = run_service(&space, &c).expect("steady session plans");
        identical(&r, &l)
    });

    // Gate 1c: kill mid-stream, resume, byte-identity — at every thread
    // count on both sides of the kill.
    let resume_identical = [1usize, 2, 4].into_iter().all(|threads| {
        let mut c = steady.clone();
        c.threads = threads;
        run_service_until(&space, &c, KILL_AFTER)
            .ok()
            .and_then(|ckpt| resume_service(&space, &c, &ckpt).ok())
            .is_some_and(|(r, l)| identical(&r, &l))
    });

    // ---- flood session: fairness under hostility ------------------------
    let flood = flood_config();
    let (flood_report, _) = run_service(&space, &flood).expect("flood session plans");
    let well_behaved = || flood_report.tenants.iter().filter(|t| t.name != "hostile");
    let mut min_fairness = well_behaved()
        .map(|t| t.fairness_ratio)
        .fold(f64::INFINITY, f64::min);
    if !min_fairness.is_finite() {
        min_fairness = 0.0;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // ---- certification: the S0–S3 ladder --------------------------------
    let cert = certify_service(&space, &service_ladder());

    // ---- throughput (wall-clock; gated, never serialized) ---------------
    let sessions_submissions = (steady.submissions.len() * 7 + flood.submissions.len()) as f64;
    let submissions_per_sec = sessions_submissions / elapsed.max(1e-9);

    // ---- report ---------------------------------------------------------
    let rows: Vec<TenantRow> = flood_report
        .tenants
        .iter()
        .map(|t| TenantRow {
            tenant: t.name.clone(),
            weight: t.weight,
            submitted: t.submitted,
            admitted: t.admitted,
            completed: t.completed,
            mean_wait_rounds: t.mean_wait_rounds,
            fairness_ratio: t.fairness_ratio,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tenant.clone(),
                r.weight.to_string(),
                r.submitted.to_string(),
                r.admitted.to_string(),
                r.completed.to_string(),
                fmt(r.mean_wait_rounds),
                fmt(r.fairness_ratio),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Service under a {HOSTILE_MULTIPLIER}x hostile flood ({} submissions)",
            flood.submissions.len()
        ),
        &[
            "tenant",
            "weight",
            "submitted",
            "admitted",
            "completed",
            "mean wait",
            "fairness",
        ],
        &table,
    );

    println!(
        "\n  min well-behaved fairness {}, steady p99 wait {} rounds, ladder {}, \
         {} submissions/sec sustained\n",
        fmt(min_fairness),
        report.p99_wait_rounds,
        cert.grade,
        fmt(submissions_per_sec),
    );
    let mut gates = Gates::new();
    gates.check("steady session byte-identical on rerun", rerun_identical);
    gates.check(
        "steady session byte-identical at 2 and 4 threads",
        threads_identical,
    );
    gates.check(
        format!("kill@{KILL_AFTER} + resume byte-identical at 1, 2 and 4 threads"),
        resume_identical,
    );
    gates.check(
        format!("steady p99 wait ≤ {MAX_P99_WAIT_ROUNDS} rounds"),
        report.p99_wait_rounds <= MAX_P99_WAIT_ROUNDS,
    );
    gates.check(
        format!(
            "every well-behaved tenant keeps ≥ {FAIRNESS_FLOOR} of its fair share under a \
             {HOSTILE_MULTIPLIER}x flood"
        ),
        well_behaved().all(|t| t.fairness_ratio >= FAIRNESS_FLOOR),
    );
    gates.check(
        "every well-behaved tenant completes all admitted campaigns under the flood",
        well_behaved().all(|t| t.completed == t.admitted),
    );
    gates.check(
        "service ladder certifies S3 (restart-survivable)",
        cert.grade == ServiceGrade::S3RestartSurvivable,
    );
    gates.check(
        format!("sustained throughput ≥ {MIN_SUBMISSIONS_PER_SEC} submissions/sec"),
        submissions_per_sec >= MIN_SUBMISSIONS_PER_SEC,
    );

    // Deterministic summary only (no wall-clock): CI byte-diffs it.
    #[derive(Serialize)]
    struct Out {
        seed: u64,
        kill_after: usize,
        hostile_multiplier: usize,
        fairness_floor: f64,
        steady_campaigns: usize,
        flood_submissions: usize,
        p99_wait_rounds: usize,
        mean_wait_rounds: f64,
        min_well_behaved_fairness: f64,
        ladder_grade: String,
        tenants: Vec<TenantRow>,
        gates: Gates,
    }
    let out = Out {
        seed: SEED,
        kill_after: KILL_AFTER,
        hostile_multiplier: HOSTILE_MULTIPLIER,
        fairness_floor: FAIRNESS_FLOOR,
        steady_campaigns: steady.submissions.len(),
        flood_submissions: flood.submissions.len(),
        p99_wait_rounds: report.p99_wait_rounds,
        mean_wait_rounds: report.mean_wait_rounds,
        min_well_behaved_fairness: min_fairness,
        ladder_grade: cert.grade.to_string(),
        tenants: rows,
        gates,
    };
    write_bench_summary("service", &out);
    out.gates.exit_code()
}
