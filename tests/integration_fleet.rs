//! Fleet executor integration: determinism across thread counts (down to
//! the serialized bytes), heterogeneous-cell load handling, and agreement
//! between fleet aggregates and the underlying campaign engine.

use evoflow::core::{run_campaign, run_campaign_fleet, Cell, FleetConfig, MaterialsSpace};
use evoflow::sim::SimDuration;

fn heterogeneous_fleet(master_seed: u64, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(master_seed);
    cfg.horizon = SimDuration::from_days(2);
    cfg.threads = threads;
    // Mix the cheapest and the most expensive corners of the matrix so
    // the work-stealing queue actually has imbalance to absorb.
    cfg.push_cell(Cell::traditional_wms(), 3);
    cfg.push_cell(Cell::autonomous_science(), 3);
    cfg.push_cell(
        Cell::new(
            evoflow::sm::IntelligenceLevel::Learning,
            evoflow::agents::Pattern::Mesh,
        ),
        2,
    );
    cfg
}

#[test]
fn fleet_report_is_byte_identical_across_thread_counts() {
    let space = MaterialsSpace::generate(3, 8, 4242);
    let serial = run_campaign_fleet(&space, &heterogeneous_fleet(7, 1));
    let parallel = run_campaign_fleet(&space, &heterogeneous_fleet(7, 4));
    // Identical down to the serialized bytes — the acceptance bar for
    // reproducible fleet science.
    let a = serde_json::to_string(&serial).expect("reports serialize");
    let b = serde_json::to_string(&parallel).expect("reports serialize");
    assert_eq!(a, b);
}

#[test]
fn fleet_seeds_make_campaigns_distinct() {
    let space = MaterialsSpace::generate(3, 8, 4242);
    let report = run_campaign_fleet(&space, &heterogeneous_fleet(7, 2));
    // Replications at the same cell get different derived seeds, so the
    // three autonomous campaigns should not be copies of each other.
    let autos: Vec<_> = report
        .reports
        .iter()
        .filter(|r| r.cell_label.contains("Intelligent"))
        .collect();
    assert_eq!(autos.len(), 3);
    assert!(
        autos
            .windows(2)
            .any(|w| w[0].experiments != w[1].experiments || w[0].best_score != w[1].best_score),
        "replications with distinct seeds should diverge"
    );
}

#[test]
fn different_master_seeds_differ() {
    let space = MaterialsSpace::generate(3, 8, 4242);
    let a = run_campaign_fleet(&space, &heterogeneous_fleet(7, 2));
    let b = run_campaign_fleet(&space, &heterogeneous_fleet(8, 2));
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn fleet_matches_single_campaign_engine() {
    // A fleet of one is exactly one run_campaign with the derived seed.
    let space = MaterialsSpace::generate(3, 8, 4242);
    let mut cfg = FleetConfig::new(11);
    cfg.horizon = SimDuration::from_days(1);
    cfg.push_cell(Cell::autonomous_science(), 1);
    let fleet = run_campaign_fleet(&space, &cfg);

    let shard = cfg.sharded_campaigns().remove(0);
    let solo = run_campaign(&space, &shard);
    assert_eq!(fleet.reports.len(), 1);
    assert_eq!(
        serde_json::to_string(&fleet.reports[0]).unwrap(),
        serde_json::to_string(&solo).unwrap()
    );
    assert_eq!(fleet.total_experiments, solo.experiments);
}
