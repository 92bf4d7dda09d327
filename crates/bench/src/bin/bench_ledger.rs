//! **Ledger-replay smoke — is the event stream a faithful audit record?**
//!
//! Gates, each recorded under `gates` in `BENCH_ledger.json` and fatal
//! to the exit code on regression:
//!
//! 1. **Per-planner replay** — for every planner kind, a recorded
//!    campaign's serialized ledger is byte-identical on rerun, and
//!    `replay_ledger` rebuilds the live `CampaignReport` byte-for-byte
//!    with identical provenance/knowledge counts. The live counts come
//!    from `LibrarianAgent`'s per-iteration constants and the replayed
//!    ones from the stores `replay_ledger` builds, so this cross-checks
//!    the constants against built stores. The same ledger encoded
//!    as `EVWL` binary must stream-replay (`replay_ledger_bytes`) to the
//!    identical report and decode back to the identical JSON bytes.
//! 2. **Compression** — summed across all planner ledgers, the binary
//!    encoding is at least 5× smaller than the JSON encoding.
//! 3. **Tamper refusal** — flipping a single bit at sampled offsets of a
//!    binary ledger, or truncating it at sampled lengths, is always
//!    refused by the checksummed decoder (never a silently-wrong replay).
//! 4. **Streaming replay throughput** — binary replay sustains a floor
//!    events/second rate (raw numbers are printed, never serialized, so
//!    the summary stays byte-diffable).
//! 5. **Fleet audit certificate** — the testbed's accountability ladder
//!    ([`certify_audit`]) must grade a 9-campaign fleet A4 (wire-durable):
//!    rerun bytes, replay at 1/2/4 threads, kill at the seeded death
//!    point + resume with no seam in report or ledger, and a lossless,
//!    stream-replayable, tamper-refusing `EVWL` encoding. The
//!    certificate is the summary's `fleet` section.
//!
//! Artifacts: with `BENCH_SUMMARY_DIR` set, every serialized
//! ledger/report — including the `.evwl` binary forms — is written next
//! to the summary, so CI can byte-diff two independent process runs
//! (catching nondeterminism that hides inside a single process).

use evoflow_bench::{print_table, write_artifact, write_bench_summary, Gates};
use evoflow_core::{
    fleet_death_point, replay_ledger, replay_ledger_bytes, run_campaign_fleet_recorded,
    run_campaign_recorded, CampaignConfig, Cell, FleetConfig, LedgerEncoding, MaterialsSpace,
    PlannerKind, WireEncodeStats,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use evoflow_testbed::{certify_audit, AuditCertificate, AuditGrade};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Seeds the audit fleet's coordinator death point.
const CHAOS_SEED: u64 = 404;
/// Compression gate: binary must be at least this many times smaller.
const SIZE_RATIO_FLOOR: f64 = 5.0;
/// Throughput gate floor, in replayed events per second. Deliberately far
/// below what the streaming decoder sustains (millions/s) so the boolean
/// stays stable on the slowest CI runner.
const REPLAY_EVENTS_PER_SEC_FLOOR: f64 = 10_000.0;
/// Tamper battery samples roughly this many offsets per ledger.
const TAMPER_SAMPLES: usize = 512;

#[derive(Serialize)]
struct PlannerRow {
    planner: String,
    events: usize,
    json_bytes: usize,
    bin_bytes: usize,
    rerun_identical: bool,
    replay_identical: bool,
    bin_replay_identical: bool,
    bin_round_trip: bool,
    prov_match: bool,
}

struct PlannerBattery {
    rows: Vec<PlannerRow>,
    json_total: usize,
    bin_total: usize,
    /// The last (meta-planner) binary ledger, reused by the tamper and
    /// throughput batteries.
    sample_bin: Vec<u8>,
    sample_events: usize,
    /// Deterministic encode counters summed across every planner ledger
    /// (the allocation-proxy view of the wire fast path).
    encode_stats: WireEncodeStats,
    /// Every ledger encoded through one reused buffer matched the
    /// fresh-allocation `to_bytes` bytes exactly.
    reuse_identical: bool,
}

fn planner_battery(space: &MaterialsSpace) -> PlannerBattery {
    let mut kinds = PlannerKind::all_concrete();
    kinds.push(PlannerKind::meta());
    let mut rows = Vec::new();
    let (mut json_total, mut bin_total) = (0usize, 0usize);
    let mut sample_bin = Vec::new();
    let mut sample_events = 0;
    let mut encode_stats = WireEncodeStats::default();
    let mut reuse_identical = true;
    // One reused output buffer across every planner's encode — the fast
    // path the campaign service uses; its bytes must match `to_bytes`.
    let mut reuse_buf = Vec::new();
    for kind in kinds {
        let mut cfg = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh),
            17,
        )
        .with_planner(kind.clone());
        cfg.horizon = SimDuration::from_days(1);
        cfg.coordination = Some(evoflow_core::CoordinationMode::Autonomous);
        cfg.max_experiments = 2_000;

        let (live, ledger) = run_campaign_recorded(space, &cfg);
        let ledger_bytes = serde_json::to_string(&ledger).expect("ledger serializes");
        let bin = ledger.to_bytes(LedgerEncoding::Binary);
        let stats = ledger.encode_binary_into(&mut reuse_buf);
        reuse_identical &= reuse_buf == bin;
        encode_stats.events += stats.events;
        encode_stats.segments += stats.segments;
        encode_stats.intern_hits += stats.intern_hits;
        encode_stats.intern_misses += stats.intern_misses;
        write_artifact(&format!("ledger_{}.json", kind.label()), &ledger_bytes);
        write_artifact(&format!("ledger_{}.evwl", kind.label()), &bin);

        let (_, rerun) = run_campaign_recorded(space, &cfg);
        let rerun_identical =
            serde_json::to_string(&rerun).expect("ledger serializes") == ledger_bytes;

        let live_report = serde_json::to_string(&live).expect("report serializes");
        let (replay_identical, prov_match) = match replay_ledger(&ledger) {
            Ok(outcome) => (
                serde_json::to_string(&outcome.report).expect("report serializes") == live_report,
                outcome.provenance.activity_count() == live.prov_activities
                    && outcome.knowledge.node_count() == live.kg_nodes,
            ),
            Err(e) => {
                println!("  {}: replay refused: {e}", kind.label());
                (false, false)
            }
        };

        // The binary form must stream-replay to the same report and decode
        // back to the exact legacy JSON bytes (lossless round-trip).
        let bin_replay_identical = replay_ledger_bytes(&bin)
            .map(|o| serde_json::to_string(&o.report).expect("serialize") == live_report)
            .unwrap_or(false);
        let bin_round_trip = evoflow_core::CampaignLedger::from_bytes(&bin)
            .map(|l| serde_json::to_string(&l).expect("serialize") == ledger_bytes)
            .unwrap_or(false);

        json_total += ledger_bytes.len();
        bin_total += bin.len();
        sample_events = ledger.len();
        rows.push(PlannerRow {
            planner: kind.descriptor(),
            events: ledger.len(),
            json_bytes: ledger_bytes.len(),
            bin_bytes: bin.len(),
            rerun_identical,
            replay_identical,
            bin_replay_identical,
            bin_round_trip,
            prov_match,
        });
        sample_bin = bin;
    }
    PlannerBattery {
        rows,
        json_total,
        bin_total,
        sample_bin,
        sample_events,
        encode_stats,
        reuse_identical,
    }
}

#[derive(Serialize)]
struct Wire {
    json_bytes_total: usize,
    bin_bytes_total: usize,
    size_ratio: f64,
    size_ratio_floor: f64,
    bit_flips_tested: usize,
    truncations_tested: usize,
    /// Deterministic encode counters summed across every planner ledger:
    /// the allocation-proxy view of the buffer-reuse fast path. A string
    /// field that hits the intern table costs one varint instead of one
    /// heap string.
    encode: WireEncodeStats,
}

/// Compression + tamper + throughput gates over the meta-planner's binary
/// ledger (wall-clock numbers are printed here, never serialized).
fn wire_battery(battery: &PlannerBattery, gates: &mut Gates) -> Wire {
    let size_ratio = battery.json_total as f64 / battery.bin_total.max(1) as f64;

    // Single-bit flips at sampled offsets: every one must be refused.
    let bin = &battery.sample_bin;
    let stride = (bin.len() / TAMPER_SAMPLES).max(1);
    let mut flips = 0usize;
    let mut flips_refused = true;
    for offset in (0..bin.len()).step_by(stride) {
        let mut tampered = bin.clone();
        tampered[offset] ^= 0x01;
        flips += 1;
        if replay_ledger_bytes(&tampered).is_ok() {
            flips_refused = false;
            println!("  wire: bit flip at byte {offset} replayed cleanly");
        }
    }

    // Truncation at sampled lengths (including the empty prefix): every
    // one must be refused — a cut-off ledger is never a valid shorter one.
    let mut cuts = 0usize;
    let mut cuts_refused = true;
    for cut in (0..bin.len()).step_by(stride) {
        cuts += 1;
        if replay_ledger_bytes(&bin[..cut]).is_ok() {
            cuts_refused = false;
            println!("  wire: truncation to {cut} bytes replayed cleanly");
        }
    }

    // Streaming replay throughput: best of a few repeats, gated against a
    // floor far below the decoder's real rate so the verdict never flaps.
    let mut best_events_per_sec = 0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        replay_ledger_bytes(bin).expect("untampered binary replays");
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        best_events_per_sec = best_events_per_sec.max(battery.sample_events as f64 / secs);
    }
    println!(
        "\n  wire: {} -> {} bytes ({size_ratio:.2}x), {flips} bit flips + {cuts} truncations \
         tried, streaming replay {best_events_per_sec:.0} events/s",
        battery.json_total, battery.bin_total,
    );
    println!(
        "  encode: {} events in {} segments, intern {} hits / {} misses",
        battery.encode_stats.events,
        battery.encode_stats.segments,
        battery.encode_stats.intern_hits,
        battery.encode_stats.intern_misses,
    );
    gates.check(
        format!("EVWL ledgers ≥ {SIZE_RATIO_FLOOR}x smaller than JSON in total"),
        size_ratio >= SIZE_RATIO_FLOOR,
    );
    gates.check("every sampled bit flip refused", flips_refused);
    gates.check("every sampled truncation refused", cuts_refused);
    gates.check(
        format!("streaming replay ≥ {REPLAY_EVENTS_PER_SEC_FLOOR} events/s"),
        best_events_per_sec >= REPLAY_EVENTS_PER_SEC_FLOOR,
    );
    gates.check(
        "reused-buffer encode byte-identical to to_bytes",
        battery.reuse_identical,
    );

    Wire {
        json_bytes_total: battery.json_total,
        bin_bytes_total: battery.bin_total,
        size_ratio,
        size_ratio_floor: SIZE_RATIO_FLOOR,
        bit_flips_tested: flips,
        truncations_tested: cuts,
        encode: battery.encode_stats,
    }
}

/// Certify a mixed 9-campaign fleet up the testbed's accountability
/// ladder, killing its coordinator at the seeded death point.
fn fleet_battery(space: &MaterialsSpace, gates: &mut Gates) -> AuditCertificate {
    let mut cfg = FleetConfig::new(1234);
    cfg.horizon = SimDuration::from_days(2);
    cfg.threads = 1;
    cfg.push_cell(Cell::traditional_wms(), 3);
    cfg.push_cell(Cell::autonomous_science(), 3);
    cfg.push_cell(
        Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh),
        3,
    );

    let (report, ledger) = run_campaign_fleet_recorded(space, &cfg);
    write_artifact(
        "fleet_report.json",
        serde_json::to_string(&report).expect("report serializes"),
    );
    write_artifact(
        "fleet_ledger.json",
        serde_json::to_string(&ledger).expect("ledger serializes"),
    );
    write_artifact("fleet_ledger.evwl", ledger.to_bytes(LedgerEncoding::Binary));

    let kill_after = fleet_death_point(CHAOS_SEED, cfg.campaigns.len());
    let cert = certify_audit(space, &cfg, kill_after);
    println!(
        "\n  fleet: {} campaigns, {} events ({} json / {} evwl bytes), kill@{kill_after}: {}",
        cert.campaigns, cert.total_events, cert.json_bytes, cert.wire_bytes, cert.grade,
    );
    gates.check(
        "fleet audit certificate grades A4 (wire-durable)",
        cert.grade == AuditGrade::A4WireDurable,
    );
    cert
}

fn main() -> ExitCode {
    println!("ledger-replay smoke: event streams as the audit substrate");
    let space = MaterialsSpace::generate(3, 8, 555);
    let mut gates = Gates::new();

    let battery = planner_battery(&space);
    print_table(
        "Per-planner recorded campaign: rerun bytes + replay audit",
        &[
            "planner", "events", "json", "evwl", "rerun", "replay", "stream", "decode", "prov",
        ],
        &battery
            .rows
            .iter()
            .map(|r| {
                let flag = |ok: bool| if ok { "ok" } else { "FAIL" }.to_string();
                vec![
                    r.planner.clone(),
                    r.events.to_string(),
                    r.json_bytes.to_string(),
                    r.bin_bytes.to_string(),
                    flag(r.rerun_identical),
                    flag(r.replay_identical),
                    flag(r.bin_replay_identical),
                    flag(r.bin_round_trip),
                    flag(r.prov_match),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let every = |ok: fn(&PlannerRow) -> bool| battery.rows.iter().all(ok);
    println!();
    gates.check(
        "every planner ledger byte-identical on rerun",
        every(|r| r.rerun_identical),
    );
    gates.check(
        "every planner replay rebuilds the live report",
        every(|r| r.replay_identical),
    );
    gates.check(
        "every planner replay rebuilds the live provenance and knowledge counts",
        every(|r| r.prov_match),
    );
    gates.check(
        "every planner EVWL ledger stream-replays to the live report",
        every(|r| r.bin_replay_identical),
    );
    gates.check(
        "every planner EVWL ledger decodes to the identical JSON",
        every(|r| r.bin_round_trip),
    );

    let wire = wire_battery(&battery, &mut gates);
    let fleet = fleet_battery(&space, &mut gates);

    #[derive(Serialize)]
    struct Out {
        planners: Vec<PlannerRow>,
        wire: Wire,
        fleet: AuditCertificate,
        gates: Gates,
    }
    let out = Out {
        planners: battery.rows,
        wire,
        fleet,
        gates,
    };
    write_bench_summary("ledger", &out);
    out.gates.exit_code()
}
