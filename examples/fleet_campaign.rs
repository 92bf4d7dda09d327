//! Fleet execution: a heterogeneous batch of discovery campaigns sharded
//! across every core, reproducibly.
//!
//! Runs the same fleet twice — serially, then on all cores — and shows
//! (1) identical scientific results, (2) the wall-clock speedup, and
//! (3) the per-cell aggregate distributions.
//!
//! ```sh
//! cargo run --release --example fleet_campaign
//! ```

use evoflow::core::{run_campaign_fleet, Cell, FleetConfig, FleetReport, MaterialsSpace};
use evoflow::sim::SimDuration;
use std::time::{Duration, Instant};

fn build_fleet(threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(2026);
    cfg.horizon = SimDuration::from_days(7);
    cfg.threads = threads;
    // Four corners of the evolution matrix, three replications each: the
    // static pipeline finishes in microseconds of CPU while the swarm
    // burns orders of magnitude more — exactly the imbalance the fleet's
    // work-stealing queue exists to absorb.
    cfg.push_cell(Cell::traditional_wms(), 3);
    cfg.push_cell(
        Cell::new(
            evoflow::sm::IntelligenceLevel::Adaptive,
            evoflow::agents::Pattern::Pipeline,
        ),
        3,
    );
    cfg.push_cell(
        Cell::new(
            evoflow::sm::IntelligenceLevel::Learning,
            evoflow::agents::Pattern::Mesh,
        ),
        3,
    );
    cfg.push_cell(Cell::autonomous_science(), 3);
    cfg
}

/// Run the fleet and time it: timing stays outside the report, so the
/// report stays byte-identical across thread counts.
fn timed_fleet(space: &MaterialsSpace, cfg: &FleetConfig) -> (FleetReport, Duration) {
    let started = Instant::now();
    let report = run_campaign_fleet(space, cfg);
    (report, started.elapsed())
}

fn main() {
    let space = MaterialsSpace::generate(4, 10, 31337);

    println!("== fleet: 12 campaigns across the evolution matrix ==\n");

    let (serial, serial_t) = timed_fleet(&space, &build_fleet(1));
    println!(
        "serial    : {} campaigns, {} experiments in {:.2?}",
        serial.reports.len(),
        serial.total_experiments,
        serial_t
    );

    let parallel_cfg = build_fleet(0);
    let (parallel, parallel_t) = timed_fleet(&space, &parallel_cfg);
    println!(
        "parallel  : {} campaigns, {} experiments in {:.2?} ({} threads)",
        parallel.reports.len(),
        parallel.total_experiments,
        parallel_t,
        parallel_cfg.effective_threads()
    );

    let speedup = serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9);
    println!("speedup   : {speedup:.2}×");

    assert_eq!(serial, parallel, "fleet results are thread-count invariant");
    println!("identical : serial and parallel reports match bit-for-bit\n");

    println!(
        "{:<28} {:>5} {:>12} {:>10} {:>14} {:>12}",
        "cell", "runs", "experiments", "distinct", "samples/day", "disc/week"
    );
    for cell in &parallel.per_cell {
        println!(
            "{:<28} {:>5} {:>12} {:>10} {:>10.1}±{:<5.1} {:>7.2}±{:<4.2}",
            cell.cell_label,
            cell.campaigns,
            cell.experiments,
            cell.distinct_discoveries,
            cell.samples_per_day.mean,
            cell.samples_per_day.std_dev,
            cell.discoveries_per_week.mean,
            cell.discoveries_per_week.std_dev,
        );
    }
    println!(
        "\nfleet total: {} experiments, {} distinct discoveries, best score {:.3}",
        parallel.total_experiments, parallel.total_distinct_discoveries, parallel.best_score
    );
}
