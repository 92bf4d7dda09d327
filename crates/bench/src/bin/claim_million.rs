//! **Claim C3 — "Autonomous materials discovery campaigns have evaluated
//! over one million candidate compounds" (§6.1).**
//!
//! Screens 1,000,000 synthetic candidates with a swarm of surrogate-guided
//! screening agents: a cheap learned filter triages the full space, the
//! promising fraction is "synthesized" (expensively measured), and the hit
//! yield is compared against blind screening of the same budget.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_core::MaterialsSpace;
use evoflow_learn::RbfSurrogate;
use evoflow_sim::{RngRegistry, SimRng};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

const TOTAL: usize = 1_000_000;
const DIM: usize = 4;
const EXPENSIVE_BUDGET: usize = 2_000;

#[derive(Serialize)]
struct Screen {
    strategy: String,
    candidates_screened: usize,
    expensive_measurements: usize,
    hits: usize,
    distinct_materials: usize,
    wall_seconds: f64,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(DIM, 60, 1_000_000);
    let reg = RngRegistry::new(9_000_000);

    // Generate the 1M candidate pool deterministically.
    let t0 = Instant::now();
    let pool: Vec<Vec<f64>> = (0..TOTAL)
        .map(|i| {
            let mut rng = reg.stream_indexed("candidate", i as u64);
            (0..DIM).map(|_| rng.uniform()).collect()
        })
        .collect();
    println!(
        "candidate pool: {} points in {:.2}s",
        pool.len(),
        t0.elapsed().as_secs_f64()
    );

    // Train the screening surrogate on a small seed set of measurements.
    let mut surrogate = RbfSurrogate::new(0.12);
    let mut seed_rng = reg.stream("seed-measurements");
    for _ in 0..400 {
        let x: Vec<f64> = (0..DIM).map(|_| seed_rng.uniform()).collect();
        let y = space.measure(&x, &mut seed_rng);
        surrogate.observe(&x, -y); // surrogate minimizes
    }

    // Swarm screening: score all 1M candidates, take the top
    // EXPENSIVE_BUDGET for real measurement.
    let t1 = Instant::now();
    let mut scored: Vec<(usize, f64)> = pool
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let (neg_pred, unc) = surrogate.predict(x);
            (i, -neg_pred + 0.2 * unc)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    let guided_time = t1.elapsed().as_secs_f64();

    let measure_set = |indices: &[usize], stream: &str| -> (usize, usize) {
        let hits_and_peaks: Vec<(bool, Option<usize>)> = indices
            .iter()
            .map(|&i| {
                let mut rng: SimRng = reg.stream_indexed(stream, i as u64);
                let score = space.measure(&pool[i], &mut rng);
                (space.is_discovery(score), space.peak_of(&pool[i]))
            })
            .collect();
        let hits = hits_and_peaks.iter().filter(|(h, _)| *h).count();
        let distinct: std::collections::BTreeSet<usize> = hits_and_peaks
            .iter()
            .filter(|(h, _)| *h)
            .filter_map(|(_, p)| *p)
            .collect();
        (hits, distinct.len())
    };

    // Diversity-aware batch selection: walking the ranking greedily while
    // skipping near-duplicates, so the expensive budget covers *distinct*
    // candidate materials instead of re-measuring one basin (the
    // exploitation-collapse failure mode a naive top-k suffers).
    let min_dist = 0.12f64;
    let mut guided_idx: Vec<usize> = Vec::with_capacity(EXPENSIVE_BUDGET);
    for (i, _) in &scored {
        let far_enough = guided_idx.iter().all(|&j| {
            let d2: f64 = pool[*i]
                .iter()
                .zip(&pool[j])
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            d2.sqrt() >= min_dist
        });
        if far_enough {
            guided_idx.push(*i);
            if guided_idx.len() == EXPENSIVE_BUDGET {
                break;
            }
        }
    }
    let (guided_hits, guided_distinct) = measure_set(&guided_idx, "measure-guided");

    // Baseline: same expensive budget, uniformly random picks.
    let mut pick_rng = reg.stream("random-picks");
    let random_idx: Vec<usize> = (0..EXPENSIVE_BUDGET)
        .map(|_| pick_rng.below(TOTAL))
        .collect();
    let (random_hits, random_distinct) = measure_set(&random_idx, "measure-random");

    let runs = vec![
        Screen {
            strategy: "swarm surrogate screening".into(),
            candidates_screened: TOTAL,
            expensive_measurements: EXPENSIVE_BUDGET,
            hits: guided_hits,
            distinct_materials: guided_distinct,
            wall_seconds: guided_time,
        },
        Screen {
            strategy: "blind random screening".into(),
            candidates_screened: EXPENSIVE_BUDGET,
            expensive_measurements: EXPENSIVE_BUDGET,
            hits: random_hits,
            distinct_materials: random_distinct,
            wall_seconds: 0.0,
        },
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.candidates_screened.to_string(),
                r.expensive_measurements.to_string(),
                r.hits.to_string(),
                r.distinct_materials.to_string(),
                fmt(r.wall_seconds),
            ]
        })
        .collect();
    print_table(
        "Claim C3: one-million-candidate screening",
        &[
            "strategy",
            "screened",
            "measured",
            "hits",
            "distinct",
            "screen wall(s)",
        ],
        &rows,
    );

    let enrichment = guided_hits as f64 / (random_hits.max(1)) as f64;
    println!("\nHeadline:");
    println!("  1,000,000 candidates triaged in {guided_time:.1}s wall-clock");
    println!("  hit enrichment over blind screening: {enrichment:.1}×");
    let mut gates = Gates::new();
    gates.check(
        "swarm screening at the million scale beats blind use of the same budget",
        guided_hits > random_hits && guided_distinct >= random_distinct,
    );

    write_results("claim_million", &runs);
    gates.exit_code()
}
