//! The Figure 4 scenario end-to-end: federated autonomous materials
//! discovery with every architectural piece visible.
//!
//! Walks one full discovery iteration by hand — hypothesis agent →
//! validation gate → facility negotiation → synthesis/characterization →
//! analysis → librarian (knowledge graph + provenance) → meta-optimizer —
//! then hands the loop to the campaign engine for a two-week run and
//! prints what the knowledge layer accumulated.
//!
//! ```text
//! cargo run --example materials_campaign
//! ```

use evoflow::agents::{
    negotiate, AnalysisAgent, DesignAgent, FacilityAgent, HypothesisAgent, LibrarianAgent,
};
use evoflow::cogsim::{CognitiveModel, ModelProfile};
use evoflow::core::{
    run_campaign, CampaignConfig, Cell, CoordinationMode, Federation, MaterialsSpace,
};
use evoflow::sim::{RngRegistry, SimDuration};

fn main() {
    let space = MaterialsSpace::generate(3, 10, 2025);
    let reg = RngRegistry::new(99);
    let mut rng = reg.stream("example");

    // --- One iteration, by hand -------------------------------------------
    println!("== one discovery iteration, step by step ==");

    // Hypothesis agent proposes candidates.
    let mut hypothesis = HypothesisAgent::new(
        CognitiveModel::new(ModelProfile::reasoning_lrm(), 1),
        space.dim(),
    );
    let candidates = hypothesis.propose(&[], 4);
    println!("hypothesis agent proposed {} candidates", candidates.len());

    // Design agent validates (the §4.1 physical-realizability gate).
    let mut design = DesignAgent::new(space.dim());
    let plans: Vec<_> = candidates
        .iter()
        .filter_map(|c| design.design(c).ok())
        .collect();
    println!(
        "design agent validated {}/{} ({} rejected as unphysical)",
        plans.len(),
        candidates.len(),
        design.rejected()
    );

    // Facility agents bid for the synthesis work.
    let facility_agents = vec![
        FacilityAgent {
            facility: "autonomous-lab".into(),
            capability: "synthesis/thin-film".into(),
            backlog_hours: 1.0,
            speed: 1.0,
        },
        FacilityAgent {
            facility: "partner-lab".into(),
            capability: "synthesis/thin-film".into(),
            backlog_hours: 0.0,
            speed: 0.6,
        },
    ];
    let bid = negotiate(&facility_agents, "synthesis/thin-film", 2.0).expect("bids exist");
    println!(
        "negotiation: {} wins at eta {:.1}h",
        bid.facility, bid.eta_hours
    );

    // Execute: measure each validated plan; analysis + librarian record.
    let mut analysis = AnalysisAgent::new(0.12);
    let mut librarian = LibrarianAgent::new();
    for plan in &plans {
        let score = space.measure(&plan.params, &mut rng);
        analysis.assimilate(&plan.params, score);
        let cand = candidates
            .iter()
            .find(|c| c.params == plan.params)
            .expect("plan came from a candidate");
        let key = librarian.record_iteration(
            &cand.rationale,
            cand.hallucinated,
            score,
            hypothesis.usage(),
            space.threshold,
        );
        println!(
            "  measured {:?} -> score {score:.3} recorded as {key}",
            plan.params
                .iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "librarian: {} KG nodes, {} provenance activities, {} supported hypotheses",
        librarian.kg.node_count(),
        librarian.prov.activity_count(),
        librarian.supported_hypotheses()
    );

    // --- The federation underneath ----------------------------------------
    let mut fed = Federation::standard();
    let hs = fed
        .handshake("ai-hub", "characterization/xrd")
        .expect("beamline reachable");
    println!(
        "federation: ai-hub authenticated to {} for {}",
        hs.to, hs.capability
    );

    // --- Now the full autonomous loop, two simulated weeks -----------------
    println!("\n== two-week autonomous campaign ==");
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 77);
    cfg.horizon = SimDuration::from_days(14);
    cfg.coordination = Some(CoordinationMode::Autonomous);
    let report = run_campaign(&space, &cfg);
    println!(
        "experiments={} distinct_materials={}/{} hits={} Ω-rewrites={}",
        report.experiments,
        report.distinct_discoveries,
        space.peak_count(),
        report.total_hits,
        report.omega_rewrites
    );
    println!(
        "knowledge graph: {} nodes; provenance: {} activities; tokens: {}",
        report.kg_nodes, report.prov_activities, report.tokens
    );
    println!(
        "lanes waited {:.1}h on decisions vs {:.1}h executing — the loop, not the humans, is the bottleneck",
        report.decision_wait_hours, report.execution_hours
    );
}
