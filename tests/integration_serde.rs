//! Serialization round-trips: the paper's reproducibility/provenance story
//! requires that workflow definitions, campaign configs, and knowledge
//! artifacts survive persistence byte-for-byte.

use evoflow::core::{CampaignConfig, Cell, MaterialsSpace};
use evoflow::knowledge::{KnowledgeGraph, NodeKind, Relation};
use evoflow::sim::SimDuration;
use evoflow::sm::dag::shapes;
use evoflow::sm::Fsm;
use evoflow::wms::TaskSpec;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn fsm_round_trips_and_behaves_identically() {
    let m = shapes::fork_join(4).to_fsm(10_000).expect("small DAG");
    let m2: Fsm = round_trip(&m);
    assert_eq!(m, m2);
    assert_eq!(m.reachable(), m2.reachable());
    assert_eq!(m.is_live(), m2.is_live());
}

#[test]
fn dag_round_trips() {
    let d = shapes::layered(3, 3);
    let d2: evoflow::sm::Dag = round_trip(&d);
    assert_eq!(d.len(), d2.len());
    assert_eq!(d.topo_order().unwrap(), d2.topo_order().unwrap());
    assert_eq!(
        d.critical_path_len().unwrap(),
        d2.critical_path_len().unwrap()
    );
}

#[test]
fn task_specs_round_trip() {
    let spec = TaskSpec::reliable("anneal", SimDuration::from_hours(2))
        .with_fail_prob(0.1)
        .with_jitter(0.3)
        .with_workers(4);
    let spec2: TaskSpec = round_trip(&spec);
    assert_eq!(spec.duration, spec2.duration);
    assert_eq!(spec.fail_prob, spec2.fail_prob);
    assert_eq!(spec.workers, spec2.workers);
}

#[test]
fn campaign_config_round_trips_and_reruns_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 9);
    cfg.horizon = SimDuration::from_days(1);
    cfg.coordination = Some(evoflow::core::CoordinationMode::Autonomous);
    let cfg2: CampaignConfig = round_trip(&cfg);

    let a = evoflow::core::run_campaign(&space, &cfg);
    let b = evoflow::core::run_campaign(&space, &cfg2);
    assert_eq!(a.experiments, b.experiments);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
}

/// A pre-planner-layer `CampaignConfig` (no `planner` field) must keep
/// decoding — `planner` defaults to `None`, i.e. the cell's Table 1
/// default policy — and a planner override must survive a round trip.
#[test]
fn campaign_config_without_planner_field_still_decodes() {
    let legacy = r#"{
        "cell": {"intelligence": "Learning", "composition": "Mesh"},
        "seed": 9,
        "horizon": 86400000000000,
        "batch_per_lane": 4,
        "lanes": null,
        "coordination": null,
        "max_experiments": 1000,
        "record_knowledge": true
    }"#;
    let cfg: CampaignConfig = serde_json::from_str(legacy).expect("legacy config decodes");
    assert!(cfg.planner.is_none());
    assert_eq!(
        cfg.effective_planner(),
        evoflow::core::PlannerKind::Evidence
    );

    let overridden = cfg.with_planner(evoflow::core::PlannerKind::meta());
    let back: CampaignConfig = round_trip(&overridden);
    assert_eq!(back.planner, overridden.planner);
}

#[test]
fn materials_space_round_trips_exactly() {
    let s = MaterialsSpace::generate(4, 12, 777);
    let s2: MaterialsSpace = round_trip(&s);
    for probe in [[0.1, 0.2, 0.3, 0.4], [0.9, 0.8, 0.7, 0.6]] {
        assert_eq!(s.latent(&probe).to_bits(), s2.latent(&probe).to_bits());
    }
    assert_eq!(s.peak_count(), s2.peak_count());
}

#[test]
fn knowledge_graph_round_trips_with_properties() {
    let mut g = KnowledgeGraph::new();
    g.upsert_node("hyp/1", NodeKind::Hypothesis);
    g.upsert_node("res/1", NodeKind::Result);
    g.set_prop("res/1", "score", "0.93");
    g.link("res/1", Relation::Supports, "hyp/1");
    let g2: KnowledgeGraph = round_trip(&g);
    assert_eq!(g2.node_count(), 2);
    assert_eq!(g2.node("res/1").unwrap().get("score"), Some("0.93"));
    assert_eq!(g2.support_score("hyp/1"), 1);
}

#[test]
fn campaign_report_is_machine_readable() {
    let space = MaterialsSpace::generate(3, 6, 3);
    let mut cfg = CampaignConfig::for_cell(Cell::traditional_wms(), 3);
    cfg.horizon = SimDuration::from_days(1);
    cfg.coordination = Some(evoflow::core::CoordinationMode::Autonomous);
    let report = evoflow::core::run_campaign(&space, &cfg);
    let json = serde_json::to_value(&report).expect("reports serialize");
    assert!(json.get("experiments").is_some());
    assert!(json.get("discoveries_per_week").is_some());
}

// ---- resilience artifacts (ISSUE 2) ----------------------------------------
//
// Checkpoints and chaos schedules are *restart files*: they outlive the
// process that wrote them, so their on-disk format must round-trip and
// must not drift silently. The snapshot tests pin the exact bytes; if a
// change here is intentional, it is a format migration and needs a
// compatibility story (cf. `Checkpoint::retries_used`, which decodes as
// empty when absent from pre-migration checkpoints).

use evoflow::core::{resume_campaign_fleet, FleetCheckpoint, FleetConfig};
use evoflow::sim::{ChaosSchedule, ChaosSpec, RngRegistry};
use evoflow::wms::{execute, execute_under_chaos, resume, Checkpoint, FaultPolicy, Workflow};

#[test]
fn wms_checkpoint_round_trips_and_resumes_identically() {
    let wf = Workflow::pipeline(4, SimDuration::from_hours(1));
    let mut broken = wf.clone();
    broken.specs[2] = broken.specs[2].clone().with_fail_prob(1.0);
    let crashed = execute(&broken, 2, FaultPolicy::Abort, 3);
    let ckpt = Checkpoint::from_report(&crashed);
    let ckpt2: Checkpoint = round_trip(&ckpt);
    assert_eq!(ckpt, ckpt2);
    let a = resume(&wf, &ckpt, 2, FaultPolicy::Retry, 9).unwrap();
    let b = resume(&wf, &ckpt2, 2, FaultPolicy::Retry, 9).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn fleet_checkpoint_round_trips_and_resumes_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let mut cfg = FleetConfig::new(5);
    cfg.horizon = SimDuration::from_days(1);
    cfg.threads = 1;
    cfg.push_cell(Cell::traditional_wms(), 3);
    let ckpt = evoflow::core::run_campaign_fleet_until(&space, &cfg, 1);
    let ckpt2: FleetCheckpoint = round_trip(&ckpt);
    assert_eq!(ckpt, ckpt2);
    let a = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
    let b = resume_campaign_fleet(&space, &cfg, &ckpt2).unwrap();
    assert_eq!(a, b);
}

#[test]
fn chaos_schedule_round_trips_and_replays_identically() {
    let sched = ChaosSchedule::derive(&RngRegistry::new(7), &ChaosSpec::hostile(), 8);
    let sched2: ChaosSchedule = round_trip(&sched);
    assert_eq!(sched, sched2);
    let wf = Workflow::pipeline(8, SimDuration::from_hours(1));
    let a = execute_under_chaos(&wf, 2, FaultPolicy::Retry, 4, &sched);
    let b = execute_under_chaos(&wf, 2, FaultPolicy::Retry, 4, &sched2);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

// ---- federated artifacts (ISSUE 4) -----------------------------------------

use evoflow::core::{
    resume_campaign_fleet_federated, run_campaign_fleet_federated,
    run_campaign_fleet_federated_until, FederatedCheckpoint, FederatedConfig, FederatedReport,
    PlacementPolicyKind,
};

fn small_federated_config() -> FederatedConfig {
    let mut fleet = FleetConfig::new(5);
    fleet.horizon = SimDuration::from_days(1);
    fleet.threads = 1;
    fleet.push_cell(Cell::traditional_wms(), 2);
    FederatedConfig::standard(fleet, PlacementPolicyKind::LeastWait).with_outage_seed(9)
}

#[test]
fn federated_report_round_trips_exactly() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let report = run_campaign_fleet_federated(&space, &small_federated_config()).unwrap();
    let back: FederatedReport = round_trip(&report);
    assert_eq!(back, report);
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&report).unwrap()
    );
}

#[test]
fn federated_checkpoint_round_trips_and_resumes_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let cfg = small_federated_config();
    let ckpt = run_campaign_fleet_federated_until(&space, &cfg, 1).unwrap();
    let ckpt2: FederatedCheckpoint = round_trip(&ckpt);
    assert_eq!(ckpt, ckpt2);
    let a = resume_campaign_fleet_federated(&space, &cfg, &ckpt).unwrap();
    let b = resume_campaign_fleet_federated(&space, &cfg, &ckpt2).unwrap();
    assert_eq!(a, b);
}

/// Format-stability snapshots for the federated restart files: a
/// [`FederatedCheckpoint`]'s exact bytes, and the exact bytes of a
/// zero-campaign [`FederatedReport`] (which pins the field layout of the
/// report, the per-facility usage rows, and the embedded fleet report
/// without pinning campaign content).
#[test]
fn federated_file_formats_are_stable() {
    let space = MaterialsSpace::generate(2, 4, 1);
    let mut fleet = FleetConfig::new(5);
    fleet.push_cell(Cell::traditional_wms(), 2);
    let cfg = FederatedConfig::standard(fleet, PlacementPolicyKind::LeastWait).with_outage_seed(9);
    let ckpt = run_campaign_fleet_federated_until(&space, &cfg, 0).unwrap();
    assert_eq!(
        serde_json::to_string(&ckpt).unwrap(),
        r#"{"placement_signature":1749152393238840823,"fleet":{"master_seed":5,"shard_seeds":[2654648237662476944,7415722410050746708],"completed":[null,null]}}"#
    );

    let empty = FederatedConfig::standard(FleetConfig::new(5), PlacementPolicyKind::RoundRobin);
    let report = run_campaign_fleet_federated(&space, &empty).unwrap();
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        concat!(
            r#"{"master_seed":5,"policy":"round-robin","facilities":["#,
            r#"{"name":"autonomous-lab","nodes":8,"jobs":0,"node_hours":0.0,"utilization":0.0,"mean_wait_hours":0.0,"bytes_in":0,"down":false,"rerouted_away":0},"#,
            r#"{"name":"lightsource","nodes":32,"jobs":0,"node_hours":0.0,"utilization":0.0,"mean_wait_hours":0.0,"bytes_in":0,"down":false,"rerouted_away":0},"#,
            r#"{"name":"hpc-center","nodes":512,"jobs":0,"node_hours":0.0,"utilization":0.0,"mean_wait_hours":0.0,"bytes_in":0,"down":false,"rerouted_away":0},"#,
            r#"{"name":"cloud-east","nodes":256,"jobs":0,"node_hours":0.0,"utilization":0.0,"mean_wait_hours":0.0,"bytes_in":0,"down":false,"rerouted_away":0},"#,
            r#"{"name":"ai-hub","nodes":128,"jobs":0,"node_hours":0.0,"utilization":0.0,"mean_wait_hours":0.0,"bytes_in":0,"down":false,"rerouted_away":0}],"#,
            r#""placements":[],"outage":null,"transfers":0,"bytes_moved":0,"mean_wait_hours":0.0,"makespan_hours":0.0,"#,
            r#""fleet":{"master_seed":5,"reports":[],"per_cell":[],"total_experiments":0,"total_hits":0,"total_distinct_discoveries":0,"best_score":0.0,"tokens":0},"#,
            r#""events":[]}"#
        )
    );
}

/// A pre-ledger `FederatedReport` (no `events` field) must keep
/// decoding — `events` defaults to the empty stream.
#[test]
fn federated_report_without_events_field_still_decodes() {
    let space = MaterialsSpace::generate(2, 4, 1);
    let empty = FederatedConfig::standard(FleetConfig::new(5), PlacementPolicyKind::RoundRobin);
    let report = run_campaign_fleet_federated(&space, &empty).unwrap();
    let mut json = serde_json::to_value(&report).expect("serialize");
    match &mut json {
        serde_json::Value::Object(fields) => {
            let before = fields.len();
            fields.retain(|(k, _)| k != "events");
            assert_eq!(fields.len(), before - 1, "events field present");
        }
        other => panic!("report serialized as {other:?}"),
    }
    let legacy: FederatedReport =
        serde_json::from_str(&serde_json::to_string(&json).expect("re-serialize"))
            .expect("legacy report decodes");
    assert!(legacy.events.is_empty());
    assert_eq!(legacy.fleet, report.fleet);
}

// ---- ledger artifacts (ISSUE 5) ---------------------------------------------

use evoflow::core::{
    replay_ledger, resume_campaign_fleet_recorded, run_campaign_fleet_recorded_until,
    run_campaign_recorded, CampaignEvent, CampaignLedger, FleetLedgerCheckpoint,
};

#[test]
fn campaign_ledger_round_trips_and_replays_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 9);
    cfg.horizon = SimDuration::from_days(1);
    let (live, ledger) = run_campaign_recorded(&space, &cfg);
    let ledger2: CampaignLedger = round_trip(&ledger);
    assert_eq!(ledger, ledger2);
    let a = replay_ledger(&ledger).unwrap();
    let b = replay_ledger(&ledger2).unwrap();
    assert_eq!(a.report, live);
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap()
    );
}

#[test]
fn fleet_ledger_checkpoint_round_trips_and_resumes_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let mut cfg = FleetConfig::new(5);
    cfg.horizon = SimDuration::from_days(1);
    cfg.threads = 1;
    cfg.push_cell(Cell::traditional_wms(), 3);
    let ckpt = run_campaign_fleet_recorded_until(&space, &cfg, 1);
    let ckpt2: FleetLedgerCheckpoint = round_trip(&ckpt);
    assert_eq!(ckpt, ckpt2);
    let (a_report, a_ledger) = resume_campaign_fleet_recorded(&space, &cfg, &ckpt).unwrap();
    let (b_report, b_ledger) = resume_campaign_fleet_recorded(&space, &cfg, &ckpt2).unwrap();
    assert_eq!(a_report, b_report);
    assert_eq!(
        serde_json::to_string(&a_ledger).unwrap(),
        serde_json::to_string(&b_ledger).unwrap()
    );
}

/// The tiny hand-built stream that pins both ledger wire formats (JSON
/// and `EVWL` binary) byte-for-byte.
fn tiny_pinned_ledger() -> CampaignLedger {
    use evoflow::sim::{SimDuration as D, SimTime as T};
    CampaignLedger {
        events: vec![
            CampaignEvent::CampaignStarted {
                cell_label: "Static × Single".into(),
                seed: 7,
                planner: "grid".into(),
                lanes: 1,
                horizon: D::from_hours(1),
                threshold: 0.6,
                max_experiments: 10,
                records_knowledge: false,
            },
            CampaignEvent::IterationStarted {
                lane: 0,
                at: T::ZERO,
                decision_ready: T::from_secs(3),
            },
            CampaignEvent::CandidateProposed {
                lane: 0,
                params: vec![0.5],
                rationale: "grid".into(),
                confidence: 1.0,
                hallucinated: false,
            },
            CampaignEvent::ExecutionScheduled {
                lane: 0,
                batch: 1,
                duration: D::from_secs(60),
                done_at: T::from_secs(63),
            },
            CampaignEvent::ResultObserved {
                lane: 0,
                experiment: 1,
                score: 0.25,
                hit: false,
                peak: None,
                tokens_in: 0,
                tokens_out: 0,
            },
            CampaignEvent::IterationEnded {
                lane: 0,
                proposed: 1,
                hits: 0,
                tokens_total: 0,
            },
            CampaignEvent::CampaignFinished {
                experiments: 1,
                total_hits: 0,
                distinct_discoveries: 0,
                best_score: 0.25,
                time_to_first_hours: None,
                decision_wait_hours: 0.0008333333333333334,
                execution_hours: 0.016666666666666666,
                rejected_proposals: 0,
                omega_rewrites: 0,
                kg_nodes: 0,
                prov_activities: 0,
                tokens: 0,
            },
        ],
    }
}

/// Format-stability snapshot for the ledger wire format: a tiny
/// hand-built stream, pinned byte-for-byte. The ledger is an audit
/// artifact that outlives the process that wrote it — silent drift here
/// would orphan every archived stream.
#[test]
fn ledger_file_format_is_stable() {
    let ledger = tiny_pinned_ledger();
    assert_eq!(
        serde_json::to_string(&ledger).unwrap(),
        concat!(
            r#"{"events":[{"CampaignStarted":{"cell_label":"Static × Single","seed":7,"planner":"grid","lanes":1,"horizon":3600000000000,"threshold":0.6,"max_experiments":10,"records_knowledge":false}},"#,
            r#"{"IterationStarted":{"lane":0,"at":0,"decision_ready":3000000000}},"#,
            r#"{"CandidateProposed":{"lane":0,"params":[0.5],"rationale":"grid","confidence":1.0,"hallucinated":false}},"#,
            r#"{"ExecutionScheduled":{"lane":0,"batch":1,"duration":60000000000,"done_at":63000000000}},"#,
            r#"{"ResultObserved":{"lane":0,"experiment":1,"score":0.25,"hit":false,"peak":null,"tokens_in":0,"tokens_out":0}},"#,
            r#"{"IterationEnded":{"lane":0,"proposed":1,"hits":0,"tokens_total":0}},"#,
            r#"{"CampaignFinished":{"experiments":1,"total_hits":0,"distinct_discoveries":0,"best_score":0.25,"#,
            r#""time_to_first_hours":null,"decision_wait_hours":0.0008333333333333334,"execution_hours":0.016666666666666666,"#,
            r#""rejected_proposals":0,"omega_rewrites":0,"kg_nodes":0,"prov_activities":0,"tokens":0}}]}"#
        )
    );
    // And it replays: one experiment, no hits, best 0.25.
    let outcome = replay_ledger(&ledger).unwrap();
    assert_eq!(outcome.report.experiments, 1);
    assert_eq!(outcome.report.best_score, 0.25);
}

// ---- binary ledger wire format (ISSUE 7) ------------------------------------
//
// The compact `EVWL` encoding is a second on-disk dialect of the same
// audit artifact: its bytes are pinned just like the JSON bytes above,
// and the legacy JSON path must keep replaying byte-identically forever
// — archived streams never need rewriting.

use evoflow::core::{replay_ledger_bytes, LedgerEncoding};

/// The exact `EVWL` bytes of [`tiny_pinned_ledger`]. A failure here
/// means the binary wire format changed; that is a format migration and
/// needs a version bump plus a decode path for the old bytes.
const TINY_LEDGER_EVWL_HEX: &str = concat!(
    "4556574c010001071db6a6c60007000000a3012b00001053746174696320c397",
    "2053696e676c65070004677269640180c0e285e368333333333333e33f0a006c",
    "3c0801000080bcc1960b2fee16020001000000000000e03f0002000000000000",
    "f03f0045f50f03000180b09dc2df0180ecded8ea019ca80f0400010000000000",
    "00d03f00000000d93c0507000100000c832208010000000000000000d03f004f",
    "1be8b4814e4b3f111111111111913f0000000000168690c242b6",
);

fn from_hex(hex: &str) -> Vec<u8> {
    hex.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn binary_ledger_wire_format_is_stable() {
    let ledger = tiny_pinned_ledger();
    let bin = ledger.to_bytes(LedgerEncoding::Binary);
    let hex: String = bin.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, TINY_LEDGER_EVWL_HEX);

    // The pinned bytes decode back to the identical stream and replay.
    let pinned = from_hex(TINY_LEDGER_EVWL_HEX);
    assert_eq!(LedgerEncoding::detect(&pinned), LedgerEncoding::Binary);
    let decoded = CampaignLedger::from_bytes(&pinned).expect("pinned bytes decode");
    assert_eq!(decoded, ledger);
    let outcome = replay_ledger_bytes(&pinned).expect("pinned bytes replay");
    assert_eq!(outcome.report.experiments, 1);
    assert_eq!(outcome.report.best_score, 0.25);
}

/// Like [`tiny_pinned_ledger`], but the stream also carries the
/// cooperative-ensemble transcript events (ISSUE 9): an ACL exchange, a
/// tournament match, and a meta-review. Pure audit trail — the replay
/// totals are unchanged.
fn tiny_pinned_ensemble_ledger() -> CampaignLedger {
    let mut ledger = tiny_pinned_ledger();
    let finished = ledger.events.pop().expect("CampaignFinished");
    ledger.events.push(CampaignEvent::EnsembleMessage {
        lane: 0,
        round: 1,
        performative: "propose".into(),
        sender: "generator".into(),
        receiver: "ranker".into(),
        conversation: 3,
        frame_bytes: 187,
    });
    ledger.events.push(CampaignEvent::TournamentMatch {
        lane: 0,
        round: 1,
        left: 0,
        right: 1,
        winner: 1,
        margin: 0.125,
    });
    ledger.events.push(CampaignEvent::MetaReview {
        lane: 0,
        round: 1,
        generator_weight: 0.625,
        evolver_weight: 0.375,
        critiques: 24,
    });
    ledger.events.push(finished);
    ledger
}

/// The exact `EVWL` bytes of [`tiny_pinned_ensemble_ledger`] — pins the
/// ensemble event tags (17/18/19) the way [`TINY_LEDGER_EVWL_HEX`] pins
/// the original vocabulary.
const TINY_ENSEMBLE_LEDGER_EVWL_HEX: &str = concat!(
    "4556574c0100010aa0ca17b8000a000000f0012b00001053746174696320c397",
    "2053696e676c65070004677269640180c0e285e368333333333333e33f0a006c",
    "3c0801000080bcc1960b2fee16020001000000000000e03f0002000000000000",
    "f03f0045f50f03000180b09dc2df0180ecded8ea019ca80f0400010000000000",
    "00d03f00000000d93c0507000100000c8322110001000770726f706f73650009",
    "67656e657261746f72000672616e6b657203bb0167600e120001000101000000",
    "000000c03f375b14130001000000000000e43f000000000000d83f1852ac2208",
    "010000000000000000d03f004f1be8b4814e4b3f111111111111913f00000000",
    "00a9186c833b5a",
);

/// Streams written *before* the ensemble events existed must keep
/// decoding unchanged, and the ensemble-bearing stream is pinned in both
/// dialects.
#[test]
fn ensemble_ledger_formats_are_stable_and_legacy_streams_still_decode() {
    // Legacy first: the pre-ensemble pinned bytes decode and replay
    // exactly as they did when written.
    let pinned = from_hex(TINY_LEDGER_EVWL_HEX);
    let legacy = CampaignLedger::from_bytes(&pinned).expect("legacy EVWL decodes");
    assert_eq!(legacy, tiny_pinned_ledger());

    let ledger = tiny_pinned_ensemble_ledger();
    let json = serde_json::to_string(&ledger).unwrap();
    assert!(json.contains(
        r#"{"EnsembleMessage":{"lane":0,"round":1,"performative":"propose","sender":"generator","receiver":"ranker","conversation":3,"frame_bytes":187}}"#
    ));
    assert!(json.contains(
        r#"{"TournamentMatch":{"lane":0,"round":1,"left":0,"right":1,"winner":1,"margin":0.125}}"#
    ));
    assert!(json.contains(
        r#"{"MetaReview":{"lane":0,"round":1,"generator_weight":0.625,"evolver_weight":0.375,"critiques":24}}"#
    ));

    let bin = ledger.to_bytes(LedgerEncoding::Binary);
    let hex: String = bin.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, TINY_ENSEMBLE_LEDGER_EVWL_HEX);

    // The pinned bytes decode back to the identical stream and replay
    // with the same totals — the transcript is audit-only.
    let decoded = CampaignLedger::from_bytes(&from_hex(TINY_ENSEMBLE_LEDGER_EVWL_HEX))
        .expect("pinned ensemble bytes decode");
    assert_eq!(decoded, ledger);
    let outcome = replay_ledger_bytes(&bin).expect("ensemble bytes replay");
    assert_eq!(outcome.report.experiments, 1);
    assert_eq!(outcome.report.best_score, 0.25);
}

// ---- every tag and every container kind, pinned ----------------------------
//
// The snapshots above pin the discovery-loop and ensemble tags. These pin
// the rest: one record of every `CampaignEvent` variant (each field codec
// in both of its shapes), and one artifact of each container kind, whose
// scalar sections carry `CampaignReport`'s field order.

use evoflow::core::{CampaignReport, FleetLedger, RejectReason};

fn hex_of(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A stream holding every event variant at least once. Not a replayable
/// campaign (it mixes fleet, federation and service events in); it pins
/// bytes only. It exercises `Some`/`None` peaks and first-discovery
/// times, both `hit` values, a tokenized and a whole-interned rationale,
/// intern hits on a repeated facility and tenant, and every reject
/// reason.
fn every_tag_ledger() -> CampaignLedger {
    use evoflow::sim::{SimDuration as D, SimTime as T};
    let finished = |time_to_first_hours| CampaignEvent::CampaignFinished {
        experiments: 2,
        total_hits: 1,
        distinct_discoveries: 1,
        best_score: 0.875,
        time_to_first_hours,
        decision_wait_hours: 0.5,
        execution_hours: 1.25,
        rejected_proposals: 4,
        omega_rewrites: 3,
        kg_nodes: 6,
        prov_activities: 4,
        tokens: 900,
    };
    let rejected = |submission_index, reason| CampaignEvent::SubmissionRejected {
        tenant: "acme".into(),
        submission_index,
        round: 2,
        reason,
    };
    CampaignLedger {
        events: vec![
            CampaignEvent::CampaignStarted {
                cell_label: "Intelligent × Swarm".into(),
                seed: 11,
                planner: "ensemble(s4)".into(),
                lanes: 2,
                horizon: D::from_hours(6),
                threshold: 0.75,
                max_experiments: 32,
                records_knowledge: true,
            },
            CampaignEvent::IterationStarted {
                lane: 1,
                at: T::from_secs(7),
                decision_ready: T::from_secs(9),
            },
            CampaignEvent::CandidateProposed {
                lane: 1,
                params: vec![0.125, 0.5, 0.875],
                rationale: "widen the search around the incumbent peak".into(),
                confidence: 0.8,
                hallucinated: true,
            },
            CampaignEvent::CandidateProposed {
                lane: 0,
                params: vec![],
                rationale: "grid".into(),
                confidence: 1.0,
                hallucinated: false,
            },
            CampaignEvent::ExecutionScheduled {
                lane: 1,
                batch: 2,
                duration: D::from_secs(90),
                done_at: T::from_secs(99),
            },
            CampaignEvent::ResultObserved {
                lane: 1,
                experiment: 1,
                score: 0.875,
                hit: true,
                peak: Some(2),
                tokens_in: 300,
                tokens_out: 120,
            },
            CampaignEvent::ResultObserved {
                lane: 1,
                experiment: 2,
                score: 0.25,
                hit: false,
                peak: None,
                tokens_in: 600,
                tokens_out: 300,
            },
            CampaignEvent::GateDecision {
                lane: 1,
                rejected_total: 4,
            },
            CampaignEvent::OmegaRewrite {
                lane: 1,
                rewrites_total: 3,
            },
            CampaignEvent::IterationEnded {
                lane: 1,
                proposed: 2,
                hits: 1,
                tokens_total: 900,
            },
            finished(Some(0.0025)),
            finished(None),
            CampaignEvent::CheckpointTaken {
                committed: 1,
                total: 3,
            },
            CampaignEvent::CoordinatorKilled { after_commits: 1 },
            CampaignEvent::CampaignPlaced {
                campaign: 2,
                facility: "polaris".into(),
                nodes: 16,
                arrival: T::from_secs(30),
                evacuation: false,
            },
            CampaignEvent::DataTransferred {
                campaign: 2,
                from: "polaris".into(),
                to: "aurora".into(),
                gigabytes: 12.5,
                duration: D::from_secs(40),
                evacuation: true,
            },
            CampaignEvent::OutageStruck {
                site: "aurora".into(),
                at: T::from_secs(3600),
                rerouted: 5,
            },
            CampaignEvent::SubmissionAdmitted {
                tenant: "acme".into(),
                admission_index: 3,
                round: 1,
            },
            rejected(4, RejectReason::UnknownTenant),
            rejected(5, RejectReason::QueueFull),
            rejected(6, RejectReason::AdmissionCapExhausted),
            CampaignEvent::CampaignDispatched {
                tenant: "acme".into(),
                admission_index: 3,
                round: 2,
                slot: 7,
            },
            CampaignEvent::EnsembleMessage {
                lane: 0,
                round: 2,
                performative: "critique".into(),
                sender: "reflector".into(),
                receiver: "generator".into(),
                conversation: 9,
                frame_bytes: 211,
            },
            CampaignEvent::TournamentMatch {
                lane: 0,
                round: 2,
                left: 3,
                right: 4,
                winner: 3,
                margin: 0.0625,
            },
            CampaignEvent::MetaReview {
                lane: 0,
                round: 2,
                generator_weight: 0.5,
                evolver_weight: 0.5,
                critiques: 7,
            },
        ],
    }
}

/// The exact `EVWL` bytes of [`every_tag_ledger`]: every event tag 0–19
/// in one kind-0 body.
const EVERY_TAG_LEDGER_EVWL_HEX: &str = concat!(
    "4556574c010001197e8ba93c00190000009f0438000014496e74656c6c696765",
    "6e7420c39720537761726d0b000c656e73656d626c6528733429028080cfa2d2",
    "f404000000000000e83f2001f3b80c0101808cee891a80b4c4c321329c540201",
    "03000000000000c03f000000000000e03f000000000000ec3f01070005776964",
    "656e00037468650006736561726368000661726f756e64040009696e63756d62",
    "656e7400047065616b9a9999999999e93f01690e130200000000046772696400",
    "0000000000f03f0060010f0301028088aca3cf0280bcf0e6f002c86910040101",
    "000000000000ec3f0103ac02783f8611040102000000000000d03f0000d804ac",
    "02a638030501044c7a03060103e55506070102018407abbc2b08020101000000",
    "000000ec3f017b14ae47e17a643f000000000000e03f000000000000f43f0403",
    "060484073bdc2308020101000000000000ec3f00000000000000e03f00000000",
    "0000f43f040306048407661903090103fb72020a01f06e120b020007706f6c61",
    "7269731080d88ee16f00e4d51a0c020a00066175726f72610000000000002940",
    "80a0be81950101f350090d0b80c0e285e36805d852090e000461636d65030175",
    "c3050f0c0402008559050f0c050201e515050f0c0602029b4405100c03020785",
    "54261100020008637269746971756500097265666c6563746f72000967656e65",
    "7261746f7209d301c9310e120002030403000000000000b03fe9931413000200",
    "0000000000e03f000000000000e03f07c4ed16ad4b5c",
);

/// A committed report with every field non-zero, so each field's
/// position in a checkpoint section is pinned.
fn pinned_report() -> CampaignReport {
    CampaignReport {
        cell_label: "Static × Single".into(),
        experiments: 40,
        distinct_discoveries: 2,
        total_hits: 5,
        sim_days: 1.5,
        discoveries_per_week: 9.25,
        samples_per_day: 26.5,
        time_to_first_hours: Some(7.75),
        best_score: 0.9375,
        decision_wait_hours: 0.375,
        execution_hours: 26.75,
        rejected_proposals: 3,
        omega_rewrites: 2,
        kg_nodes: 120,
        prov_activities: 80,
        tokens: 4096,
    }
}

/// The kill audit trail both checkpoint kinds carry.
fn kill_events() -> Vec<CampaignEvent> {
    vec![
        CampaignEvent::CoordinatorKilled { after_commits: 1 },
        CampaignEvent::CheckpointTaken {
            committed: 1,
            total: 2,
        },
    ]
}

/// The exact kind-1 `EVWL` bytes of a two-campaign [`FleetLedger`].
const FLEET_LEDGER_EVWL_HEX: &str = concat!(
    "4556574c0101064d02b4018102ad90802701071db6a6c60007000000a3012b00",
    "001053746174696320c3972053696e676c65070004677269640180c0e285e368",
    "333333333333e33f0a006c3c0801000080bcc1960b2fee160200010000000000",
    "00e03f0002000000000000f03f0045f50f03000180b09dc2df0180ecded8ea01",
    "9ca80f040001000000000000d03f00000000d93c0507000100000c8322080100",
    "00000000000000d03f004f1be8b4814e4b3f111111111111913f000000000016",
    "8690c242b6010aa0ca17b8000a000000f0012b00001053746174696320c39720",
    "53696e676c65070004677269640180c0e285e368333333333333e33f0a006c3c",
    "0801000080bcc1960b2fee16020001000000000000e03f0002000000000000f0",
    "3f0045f50f03000180b09dc2df0180ecded8ea019ca80f040001000000000000",
    "d03f00000000d93c0507000100000c8322110001000770726f706f7365000967",
    "656e657261746f72000672616e6b657203bb0167600e12000100010100000000",
    "0000c03f375b14130001000000000000e43f000000000000d83f1852ac220801",
    "0000000000000000d03f004f1be8b4814e4b3f111111111111913f0000000000",
    "a9186c833b5a",
);

/// The exact kind-2 `EVWL` bytes of a [`FleetLedgerCheckpoint`] with one
/// committed and one empty slot.
const FLEET_CHECKPOINT_EVWL_HEX: &str = concat!(
    "4556574c01026e050290b5f4cb9d90cdeb24d4f2e99fde87fcf4660100105374",
    "6174696320c3972053696e676c65280205000000000000f83f00000000008022",
    "400000000000803a40010000000000001f40000000000000ee3f000000000000",
    "d83f0000000000c03a4003027850802000b501001b17d6e7c301071db6a6c600",
    "07000000a3012b00001053746174696320c3972053696e676c65070004677269",
    "640180c0e285e368333333333333e33f0a006c3c0801000080bcc1960b2fee16",
    "020001000000000000e03f0002000000000000f03f0045f50f03000180b09dc2",
    "df0180ecded8ea019ca80f040001000000000000d03f00000000d93c05070001",
    "00000c832208010000000000000000d03f004f1be8b4814e4b3f111111111111",
    "913f0000000000168690c242b601029242ccb600020000000b020a018f730309",
    "0102d4fd353d9726",
);

/// The exact kind-3 `EVWL` bytes of a [`ServiceCheckpoint`] with one
/// committed and one empty slot.
const SERVICE_CHECKPOINT_EVWL_HEX: &str = concat!(
    "4556574c0103670502bf9be6b0f8bcb7a185010c01001053746174696320c397",
    "2053696e676c65280205000000000000f83f0000000000802240000000000080",
    "3a40010000000000001f40000000000000ee3f000000000000d83f0000000000",
    "c03a4003027850802000b501001b9bddbe0201071db6a6c60007000000a3012b",
    "00001053746174696320c3972053696e676c65070004677269640180c0e285e3",
    "68333333333333e33f0a006c3c0801000080bcc1960b2fee1602000100000000",
    "0000e03f0002000000000000f03f0045f50f03000180b09dc2df0180ecded8ea",
    "019ca80f040001000000000000d03f00000000d93c0507000100000c83220801",
    "0000000000000000d03f004f1be8b4814e4b3f111111111111913f0000000000",
    "168690c242b601029242ccb600020000000b020a018f7303090102d4fd353d97",
    "26",
);

#[test]
fn every_event_tag_wire_format_is_stable() {
    let ledger = every_tag_ledger();
    assert_eq!(
        hex_of(&ledger.to_bytes(LedgerEncoding::Binary)),
        EVERY_TAG_LEDGER_EVWL_HEX
    );
    let decoded = CampaignLedger::from_bytes(&from_hex(EVERY_TAG_LEDGER_EVWL_HEX))
        .expect("pinned every-tag bytes decode");
    assert_eq!(decoded, ledger);
}

#[test]
fn container_wire_formats_are_stable() {
    let fleet = FleetLedger {
        master_seed: 77,
        campaigns: vec![tiny_pinned_ledger(), tiny_pinned_ensemble_ledger()],
    };
    assert_eq!(
        hex_of(&fleet.to_bytes(LedgerEncoding::Binary)),
        FLEET_LEDGER_EVWL_HEX
    );
    assert_eq!(
        FleetLedger::from_bytes(&from_hex(FLEET_LEDGER_EVWL_HEX)).expect("fleet decodes"),
        fleet
    );

    let fleet_checkpoint = FleetLedgerCheckpoint {
        fleet: FleetCheckpoint {
            master_seed: 5,
            shard_seeds: vec![2654648237662476944, 7415722410050746708],
            completed: vec![Some(pinned_report()), None],
        },
        ledgers: vec![Some(tiny_pinned_ledger()), None],
        events: kill_events(),
    };
    assert_eq!(
        hex_of(&fleet_checkpoint.to_bytes(LedgerEncoding::Binary)),
        FLEET_CHECKPOINT_EVWL_HEX
    );
    assert_eq!(
        FleetLedgerCheckpoint::from_bytes(&from_hex(FLEET_CHECKPOINT_EVWL_HEX))
            .expect("fleet checkpoint decodes"),
        fleet_checkpoint
    );

    let service_checkpoint = ServiceCheckpoint {
        master_seed: 5,
        seeds: vec![9602481341964324287, 12],
        completed: vec![Some(pinned_report()), None],
        ledgers: vec![Some(tiny_pinned_ledger()), None],
        events: kill_events(),
    };
    assert_eq!(
        hex_of(&service_checkpoint.to_bytes(LedgerEncoding::Binary)),
        SERVICE_CHECKPOINT_EVWL_HEX
    );
    assert_eq!(
        ServiceCheckpoint::from_bytes(&from_hex(SERVICE_CHECKPOINT_EVWL_HEX))
            .expect("service checkpoint decodes"),
        service_checkpoint
    );
}

/// A legacy JSON ledger — bytes written before the binary encoding
/// existed — decodes through the same `from_bytes` entry point and
/// replays to a byte-identical report. Archives never rot.
#[test]
fn legacy_json_ledger_replays_byte_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 9);
    cfg.horizon = SimDuration::from_days(1);
    let (live, ledger) = run_campaign_recorded(&space, &cfg);

    // What an old process archived: plain serde JSON.
    let legacy_bytes = serde_json::to_vec(&ledger).expect("serialize");
    assert_eq!(LedgerEncoding::detect(&legacy_bytes), LedgerEncoding::Json);
    assert_eq!(
        ledger.to_bytes(LedgerEncoding::Json),
        legacy_bytes,
        "Json encoding must stay byte-for-byte the legacy serde output"
    );

    let decoded = CampaignLedger::from_bytes(&legacy_bytes).expect("legacy bytes decode");
    assert_eq!(decoded, ledger);
    let outcome = replay_ledger_bytes(&legacy_bytes).expect("legacy bytes replay");
    assert_eq!(
        serde_json::to_string(&outcome.report).unwrap(),
        serde_json::to_string(&live).unwrap(),
        "legacy JSON replay must rebuild the live report byte-for-byte"
    );
}

/// Format-stability snapshots: the serialized bytes of each restart-file
/// type, pinned. A failure here means the on-disk format changed.
#[test]
fn restart_file_formats_are_stable() {
    let wf = Workflow::pipeline(3, SimDuration::from_hours(1));
    let ckpt = Checkpoint::from_report(&execute(&wf, 1, FaultPolicy::Retry, 1));
    assert_eq!(
        serde_json::to_string(&ckpt).unwrap(),
        r#"{"statuses":["Succeeded","Succeeded","Succeeded"],"elapsed":10800000000000,"attempts":3,"retries_used":[0,0,0]}"#
    );

    let sched = ChaosSchedule::derive(&RngRegistry::new(7), &ChaosSpec::hostile(), 2);
    assert_eq!(
        serde_json::to_string(&sched).unwrap(),
        r#"{"tasks":2,"injections":[{"task":0,"attempt":0,"kind":{"TransientIo":{"retry_after":10000000000}}},{"task":0,"attempt":1,"kind":{"Delay":{"extra":600000000000}}},{"task":1,"attempt":0,"kind":{"Delay":{"extra":600000000000}}}],"death":{"after_commits":2}}"#
    );

    let mut cfg = FleetConfig::new(5);
    cfg.push_cell(Cell::traditional_wms(), 2);
    assert_eq!(
        serde_json::to_string(&FleetCheckpoint::empty(&cfg)).unwrap(),
        r#"{"master_seed":5,"shard_seeds":[2654648237662476944,7415722410050746708],"completed":[null,null]}"#
    );
}

// ---- service artifacts (ISSUE 6) --------------------------------------------
//
// The multi-tenant service's submissions and checkpoints are durable
// artifacts too: submissions arrive over the wire, and a checkpoint must
// decode in a process that did not write it.

use evoflow::core::{
    resume_service, run_service, run_service_until, ServiceCheckpoint, ServiceConfig, Submission,
    TenantSpec,
};

fn small_service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(5);
    cfg.threads = 1;
    cfg.push_tenant(TenantSpec::new("alice").with_weight(2).with_max_queued(4));
    cfg.push_tenant(TenantSpec::new("bob"));
    let mut campaign = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    campaign.horizon = SimDuration::from_days(1);
    for _ in 0..2 {
        cfg.submit("alice", campaign.clone());
        cfg.submit("bob", campaign.clone());
    }
    cfg
}

#[test]
fn service_config_round_trips_and_reruns_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let cfg = small_service_config();
    let cfg2: ServiceConfig = round_trip(&cfg);
    assert_eq!(cfg, cfg2);
    let (a_report, a_ledger) = run_service(&space, &cfg).unwrap();
    let (b_report, b_ledger) = run_service(&space, &cfg2).unwrap();
    assert_eq!(a_report, b_report);
    assert_eq!(
        serde_json::to_string(&a_ledger).unwrap(),
        serde_json::to_string(&b_ledger).unwrap()
    );
}

#[test]
fn service_checkpoint_round_trips_and_resumes_identically() {
    let space = MaterialsSpace::generate(3, 6, 55);
    let cfg = small_service_config();
    let ckpt = run_service_until(&space, &cfg, 1).unwrap();
    let ckpt2: ServiceCheckpoint = round_trip(&ckpt);
    assert_eq!(ckpt, ckpt2);
    let (a_report, a_ledger) = resume_service(&space, &cfg, &ckpt).unwrap();
    let (b_report, b_ledger) = resume_service(&space, &cfg, &ckpt2).unwrap();
    assert_eq!(a_report, b_report);
    assert_eq!(
        serde_json::to_string(&a_ledger).unwrap(),
        serde_json::to_string(&b_ledger).unwrap()
    );
}

/// Format-stability snapshots for the service wire types: a
/// [`Submission`] (what a tenant actually sends), a [`TenantSpec`], and
/// a zero-commit [`ServiceCheckpoint`] (which pins the seed handshake,
/// the per-admission report/ledger slots, and the kill audit trail
/// without pinning campaign content).
#[test]
fn service_file_formats_are_stable() {
    let mut campaign = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    campaign.horizon = SimDuration::from_days(1);
    let submission = Submission {
        tenant: "alice".into(),
        campaign,
    };
    assert_eq!(
        serde_json::to_string(&submission).unwrap(),
        concat!(
            r#"{"tenant":"alice","campaign":{"cell":{"intelligence":"Static","composition":"Pipeline"},"#,
            r#""seed":0,"horizon":86400000000000,"batch_per_lane":4,"lanes":null,"coordination":null,"#,
            r#""max_experiments":1000000,"record_knowledge":true,"planner":null}}"#
        )
    );

    assert_eq!(
        serde_json::to_string(&TenantSpec::new("alice").with_weight(2).with_max_queued(4)).unwrap(),
        r#"{"name":"alice","weight":2,"max_queued":4,"max_admitted":0}"#
    );

    let space = MaterialsSpace::generate(2, 4, 1);
    let mut cfg = ServiceConfig::new(5);
    cfg.threads = 1;
    cfg.push_tenant(TenantSpec::new("alice"));
    let mut c = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    c.horizon = SimDuration::from_days(1);
    cfg.submit("alice", c);
    let ckpt = run_service_until(&space, &cfg, 0).unwrap();
    assert_eq!(
        serde_json::to_string(&ckpt).unwrap(),
        concat!(
            r#"{"master_seed":5,"seeds":[9602481341964324287],"completed":[null],"ledgers":[null],"#,
            r#""events":[{"CoordinatorKilled":{"after_commits":0}},{"CheckpointTaken":{"committed":0,"total":1}}]}"#
        )
    );
}

/// A pre-service-layer record (tenant with only a name, config without
/// pacing fields) must keep decoding: absent knobs default to 0, which
/// the scheduler normalises to "weight 1, no quotas, default pacing" —
/// so a legacy config plans exactly like one that spells the defaults
/// out.
#[test]
fn service_config_without_service_fields_still_decodes() {
    let legacy = r#"{
        "master_seed": 5,
        "threads": 1,
        "tenants": [{"name": "alice"}],
        "submissions": []
    }"#;
    let cfg: ServiceConfig = serde_json::from_str(legacy).expect("legacy config decodes");
    assert_eq!(cfg.ingest_per_round, 0);
    assert_eq!(cfg.dispatch_per_round, 0);
    assert_eq!(
        cfg.effective_ingest_per_round(),
        evoflow::core::DEFAULT_INGEST_PER_ROUND
    );
    assert_eq!(
        cfg.effective_dispatch_per_round(),
        evoflow::core::DEFAULT_DISPATCH_PER_ROUND
    );
    let tenant = &cfg.tenants[0];
    assert_eq!(tenant.weight, 0);
    assert_eq!(tenant.effective_weight(), 1);
    assert_eq!(tenant.effective_max_queued(), usize::MAX);
    assert_eq!(tenant.effective_max_admitted(), usize::MAX);

    // A legacy config with real submissions plans identically to the
    // spelled-out defaults.
    let mut legacy_cfg = cfg.clone();
    let mut explicit = cfg.clone();
    explicit.ingest_per_round = evoflow::core::DEFAULT_INGEST_PER_ROUND;
    explicit.dispatch_per_round = evoflow::core::DEFAULT_DISPATCH_PER_ROUND;
    explicit.tenants[0].weight = 1;
    let mut campaign = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    campaign.horizon = SimDuration::from_days(1);
    for _ in 0..3 {
        legacy_cfg.submit("alice", campaign.clone());
        explicit.submit("alice", campaign.clone());
    }
    assert_eq!(
        evoflow::core::plan_service(&legacy_cfg).unwrap(),
        evoflow::core::plan_service(&explicit).unwrap()
    );
}
