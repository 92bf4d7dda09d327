//! **Claim C5 — verification complexity "increases from tractable for
//! static δ to undecidable for meta-optimization Ω" (§3.2).**
//!
//! Two measurements:
//! 1. State-space growth: frontier machines compiled from DAGs of growing
//!    width — verification cost explodes exponentially even while the
//!    *workflow* grows linearly.
//! 2. Behaviour-space verification per intelligence level: exhaustive
//!    enumeration succeeds for Static/Adaptive, exhausts realistic budgets
//!    at Learning/Optimizing, and never terminates for Ω (unbounded).

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_sm::dag::shapes;
use evoflow_sm::{controller_for_level, verify_behaviour_space, verify_fsm, IntelligenceLevel};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct GrowthRow {
    dag_width: usize,
    dag_tasks: usize,
    frontier_states: usize,
    verify_micros: f64,
}

#[derive(Serialize)]
struct LevelRow {
    level: String,
    space: String,
    budget: u64,
    spent: u64,
    verified: bool,
}

fn main() -> ExitCode {
    // Part 1: exponential frontier growth vs linear workflow size.
    let mut growth = Vec::new();
    for width in [2usize, 4, 6, 8, 10, 12, 14] {
        let dag = shapes::fork_join(width);
        let m = dag.to_fsm(1_000_000).expect("fits the probe budget");
        let t = Instant::now();
        let report = verify_fsm(&m, 1_000_000);
        let us = t.elapsed().as_secs_f64() * 1e6;
        assert!(report.complete && report.goal_reachable);
        growth.push(GrowthRow {
            dag_width: width,
            dag_tasks: dag.len(),
            frontier_states: report.states_explored,
            verify_micros: us,
        });
    }
    let rows: Vec<Vec<String>> = growth
        .iter()
        .map(|g| {
            vec![
                g.dag_width.to_string(),
                g.dag_tasks.to_string(),
                g.frontier_states.to_string(),
                fmt(g.verify_micros),
            ]
        })
        .collect();
    print_table(
        "C5a: frontier state-space growth (fork-join DAGs)",
        &[
            "parallel width",
            "workflow tasks",
            "frontier states",
            "verify µs",
        ],
        &rows,
    );
    let ratio =
        growth.last().expect("rows").frontier_states as f64 / growth[0].frontier_states as f64;
    println!(
        "  tasks grew {}×, verification state space grew {}×",
        fmt(growth.last().unwrap().dag_tasks as f64 / growth[0].dag_tasks as f64),
        fmt(ratio)
    );

    // Part 2: behaviour-space verification per intelligence level.
    let budget = 10_000_000u64;
    let mut levels = Vec::new();
    for level in IntelligenceLevel::ALL {
        let m = controller_for_level(level, 0);
        let space = m.transition.verification_space();
        let (spent, verified) = verify_behaviour_space(space, budget);
        levels.push(LevelRow {
            level: level.to_string(),
            space: match space.size() {
                Some(n) => format!("finite({n})"),
                None => "unbounded".into(),
            },
            budget,
            spent,
            verified,
        });
    }
    let rows: Vec<Vec<String>> = levels
        .iter()
        .map(|l| {
            vec![
                l.level.clone(),
                l.space.clone(),
                l.budget.to_string(),
                l.spent.to_string(),
                l.verified.to_string(),
            ]
        })
        .collect();
    print_table(
        "C5b: behaviour-space verification per intelligence level",
        &[
            "level",
            "behaviour space",
            "budget",
            "units spent",
            "verified",
        ],
        &rows,
    );

    println!();
    let mut gates = Gates::new();
    gates.check(
        "Static & Adaptive verify within budget",
        levels[0].verified && levels[1].verified,
    );
    gates.check("Learning exceeds a 10M-unit budget", !levels[2].verified);
    gates.check(
        "Ω is unbounded (undecidable proxy)",
        levels[4].space == "unbounded" && !levels[4].verified,
    );
    gates.check("frontier growth is super-linear", ratio > 100.0);

    #[derive(Serialize)]
    struct Out {
        growth: Vec<GrowthRow>,
        levels: Vec<LevelRow>,
    }
    write_results("claim_verification", &Out { growth, levels });
    gates.exit_code()
}
