//! Property tests for the `EVWL` binary ledger wire format (ISSUE 7).
//!
//! Two families of properties:
//!
//! * **Round trip** — for *arbitrary* event streams (every variant, every
//!   field drawn from a strategy that covers empty/unicode/word-salad
//!   strings and sign/magnitude-extreme floats), encode → decode is the
//!   identity under both encodings, and [`LedgerEncoding::detect`] sniffs
//!   the encoding correctly.
//! * **Tamper refusal** — on a *real* recorded campaign's binary ledger,
//!   any single flipped bit and any truncation is refused by the decoder;
//!   corruption never replays as silently different history.
//!
//! * **One body writer** — every container (fleet ledger, fleet and
//!   service checkpoints) writes each campaign body byte-for-byte as a
//!   standalone campaign ledger does, however many bodies sharing its
//!   strings came before it, and decodes back to the value it encoded.
//!
//! Beside them, every decoder that falls back to legacy JSON refuses
//! input nested past the JSON parser's depth limit with a typed error
//! instead of overflowing the stack, and answers a battery of mutated
//! legacy-JSON ledgers (hostile numbers, broken escapes, truncations,
//! trailing garbage, duplicate keys) with `Ok` or a typed error, never
//! a panic.

use evoflow_core::{
    replay_fleet_ledger_bytes, replay_ledger_bytes, run_campaign_recorded, CampaignConfig,
    CampaignEvent, CampaignLedger, CampaignReport, Cell, CoordinationMode, FleetCheckpoint,
    FleetLedger, FleetLedgerCheckpoint, LedgerEncoding, MaterialsSpace, RejectReason, ReplayError,
    ServiceCheckpoint, WireError,
};
use evoflow_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Floats that are JSON-safe (finite) but cover zero, both signs, huge
/// and tiny magnitudes — bit-exactness is asserted via `PartialEq`.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        any::<i64>().prop_map(|v| v as f64 * 1e-6),
    ]
}

/// Strings exercising every text path: empty, spaced soup (double
/// spaces, leading/trailing spaces — the literal fallback), unicode,
/// and long single-space word joins (the tokenized path).
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z ]{0,40}",
        " [a-z]{4,30} ",
        "[αβγ語x-z]{0,12}",
        collection::vec("[a-z]{1,8}", 2..24).prop_map(|words| words.join(" ")),
    ]
}

fn arb_opt_usize() -> impl Strategy<Value = Option<usize>> {
    (any::<bool>(), any::<usize>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), arb_f64()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_reason() -> impl Strategy<Value = RejectReason> {
    prop_oneof![
        Just(RejectReason::UnknownTenant),
        Just(RejectReason::QueueFull),
        Just(RejectReason::AdmissionCapExhausted),
    ]
}

fn arb_event() -> impl Strategy<Value = CampaignEvent> {
    prop_oneof![
        (
            (arb_text(), any::<u64>(), arb_text(), 0usize..64),
            (any::<u64>(), arb_f64(), any::<u64>(), any::<bool>()),
        )
            .prop_map(
                |(
                    (cell_label, seed, planner, lanes),
                    (horizon, threshold, max_experiments, records_knowledge),
                )| {
                    CampaignEvent::CampaignStarted {
                        cell_label: cell_label.into(),
                        seed,
                        planner: planner.into(),
                        lanes,
                        horizon: SimDuration::from_nanos(horizon),
                        threshold,
                        max_experiments,
                        records_knowledge,
                    }
                }
            ),
        (any::<usize>(), any::<u64>(), any::<u64>()).prop_map(|(lane, at, ready)| {
            CampaignEvent::IterationStarted {
                lane,
                at: SimTime::from_nanos(at),
                decision_ready: SimTime::from_nanos(ready),
            }
        }),
        (
            any::<usize>(),
            collection::vec(arb_f64(), 0..8),
            arb_text(),
            arb_f64(),
            any::<bool>(),
        )
            .prop_map(|(lane, params, rationale, confidence, hallucinated)| {
                CampaignEvent::CandidateProposed {
                    lane,
                    params,
                    rationale: rationale.into(),
                    confidence,
                    hallucinated,
                }
            }),
        (any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()).prop_map(
            |(lane, batch, duration, done_at)| CampaignEvent::ExecutionScheduled {
                lane,
                batch,
                duration: SimDuration::from_nanos(duration),
                done_at: SimTime::from_nanos(done_at),
            }
        ),
        (
            (any::<usize>(), any::<u64>(), arb_f64(), any::<bool>()),
            (arb_opt_usize(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |((lane, experiment, score, hit), (peak, tokens_in, tokens_out))| {
                    CampaignEvent::ResultObserved {
                        lane,
                        experiment,
                        score,
                        hit,
                        peak,
                        tokens_in,
                        tokens_out,
                    }
                }
            ),
        (any::<usize>(), any::<u64>()).prop_map(|(lane, rejected_total)| {
            CampaignEvent::GateDecision {
                lane,
                rejected_total,
            }
        }),
        (any::<usize>(), any::<u32>()).prop_map(|(lane, rewrites_total)| {
            CampaignEvent::OmegaRewrite {
                lane,
                rewrites_total,
            }
        }),
        (any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()).prop_map(
            |(lane, proposed, hits, tokens_total)| CampaignEvent::IterationEnded {
                lane,
                proposed,
                hits,
                tokens_total,
            }
        ),
        (
            (
                any::<u64>(),
                any::<u64>(),
                any::<usize>(),
                arb_f64(),
                arb_opt_f64(),
                arb_f64(),
            ),
            (
                arb_f64(),
                any::<u64>(),
                any::<u32>(),
                any::<usize>(),
                any::<usize>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (experiments, total_hits, distinct, best_score, ttf, wait),
                    (exec, rejected, omega, kg, prov, tokens),
                )| {
                    CampaignEvent::CampaignFinished {
                        experiments,
                        total_hits,
                        distinct_discoveries: distinct,
                        best_score,
                        time_to_first_hours: ttf,
                        decision_wait_hours: wait,
                        execution_hours: exec,
                        rejected_proposals: rejected,
                        omega_rewrites: omega,
                        kg_nodes: kg,
                        prov_activities: prov,
                        tokens,
                    }
                }
            ),
        (any::<usize>(), any::<usize>())
            .prop_map(|(committed, total)| { CampaignEvent::CheckpointTaken { committed, total } }),
        any::<usize>().prop_map(|after_commits| CampaignEvent::CoordinatorKilled { after_commits }),
        (
            any::<usize>(),
            arb_text(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(campaign, facility, nodes, arrival, evacuation)| {
                CampaignEvent::CampaignPlaced {
                    campaign,
                    facility: facility.into(),
                    nodes,
                    arrival: SimTime::from_nanos(arrival),
                    evacuation,
                }
            }),
        (
            any::<usize>(),
            arb_text(),
            arb_text(),
            arb_f64(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(campaign, from, to, gigabytes, duration, evacuation)| {
                CampaignEvent::DataTransferred {
                    campaign,
                    from: from.into(),
                    to: to.into(),
                    gigabytes,
                    duration: SimDuration::from_nanos(duration),
                    evacuation,
                }
            }),
        (arb_text(), any::<u64>(), any::<usize>()).prop_map(|(site, at, rerouted)| {
            CampaignEvent::OutageStruck {
                site: site.into(),
                at: SimTime::from_nanos(at),
                rerouted,
            }
        }),
        (arb_text(), any::<usize>(), any::<usize>()).prop_map(
            |(tenant, admission_index, round)| CampaignEvent::SubmissionAdmitted {
                tenant: tenant.into(),
                admission_index,
                round,
            }
        ),
        (arb_text(), any::<usize>(), any::<usize>(), arb_reason()).prop_map(
            |(tenant, submission_index, round, reason)| CampaignEvent::SubmissionRejected {
                tenant: tenant.into(),
                submission_index,
                round,
                reason,
            }
        ),
        (arb_text(), any::<usize>(), any::<usize>(), any::<usize>()).prop_map(
            |(tenant, admission_index, round, slot)| CampaignEvent::CampaignDispatched {
                tenant: tenant.into(),
                admission_index,
                round,
                slot,
            }
        ),
    ]
}

/// Fleets of 0–5 campaign ledgers that share strings: three events in
/// four come from one pool, so the same strings recur across bodies.
/// Lengths at and around the segment size are forced in.
fn arb_fleet() -> impl Strategy<Value = Vec<CampaignLedger>> {
    let len = prop_oneof![
        Just(0usize),
        Just(127),
        Just(128),
        Just(129),
        Just(256),
        0usize..301,
    ];
    let slot = (any::<sample::Index>(), 0u8..4, arb_event());
    let campaign = (len, collection::vec(slot, 300));
    (
        collection::vec(arb_event(), 1..24),
        collection::vec(campaign, 0..=5),
    )
        .prop_map(|(pool, campaigns)| {
            let pick = |(index, odds, fresh): (sample::Index, u8, CampaignEvent)| match odds {
                0 => fresh,
                _ => pool[index.index(pool.len())].clone(),
            };
            campaigns
                .into_iter()
                .map(|(len, slots)| CampaignLedger {
                    events: slots.into_iter().take(len).map(pick).collect(),
                })
                .collect()
        })
}

/// `events` as a standalone campaign ledger encodes them: its bytes
/// behind the 6-byte envelope.
fn standalone_body(events: &[CampaignEvent]) -> Vec<u8> {
    let ledger = CampaignLedger {
        events: events.to_vec(),
    };
    ledger.to_bytes(LedgerEncoding::Binary)[6..].to_vec()
}

/// One real recorded campaign's report and binary ledger (recorded once;
/// the tamper properties vary the corruption, not the run).
fn recorded() -> &'static (CampaignReport, Vec<u8>) {
    static RUN: OnceLock<(CampaignReport, Vec<u8>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let space = MaterialsSpace::generate(3, 8, 777);
        let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 5);
        cfg.horizon = SimDuration::from_days(1);
        let (report, ledger) = run_campaign_recorded(&space, &cfg);
        assert!(ledger.len() > 8, "stream too short to exercise segments");
        (report, ledger.to_bytes(LedgerEncoding::Binary))
    })
}

fn recorded_binary() -> &'static Vec<u8> {
    &recorded().1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binary encode → decode is the identity on arbitrary event
    /// streams, and the encoding sniffs as binary.
    #[test]
    fn binary_round_trips_arbitrary_streams(
        events in collection::vec(arb_event(), 0..300)
    ) {
        let mut ledger = CampaignLedger::new();
        ledger.events = events;
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        prop_assert_eq!(LedgerEncoding::detect(&bytes), LedgerEncoding::Binary);
        let decoded = CampaignLedger::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(decoded.events, ledger.events);
    }

    /// The legacy JSON path round-trips the same arbitrary streams and
    /// sniffs as JSON — the encodings never shadow each other.
    #[test]
    fn json_round_trips_arbitrary_streams(
        events in collection::vec(arb_event(), 0..60)
    ) {
        let mut ledger = CampaignLedger::new();
        ledger.events = events;
        let bytes = ledger.to_bytes(LedgerEncoding::Json);
        prop_assert_eq!(LedgerEncoding::detect(&bytes), LedgerEncoding::Json);
        let decoded = CampaignLedger::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(decoded.events, ledger.events);
    }

    /// Any single flipped bit anywhere in a real recorded binary ledger
    /// is refused by the decoder.
    #[test]
    fn any_flipped_bit_is_refused(offset in any::<sample::Index>(), bit in 0u8..8) {
        let bin = recorded_binary();
        let offset = offset.index(bin.len());
        let mut tampered = bin.clone();
        tampered[offset] ^= 1 << bit;
        prop_assert!(
            CampaignLedger::from_bytes(&tampered).is_err(),
            "bit {} flipped at byte {} decoded cleanly", bit, offset
        );
    }

    /// Any strict truncation of a real recorded binary ledger is
    /// refused — a cut-off ledger is never a valid shorter one.
    #[test]
    fn any_truncation_is_refused(cut in any::<sample::Index>()) {
        let bin = recorded_binary();
        let cut = cut.index(bin.len());
        prop_assert!(
            CampaignLedger::from_bytes(&bin[..cut]).is_err(),
            "truncation to {} bytes decoded cleanly", cut
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every container ends with each of its bodies exactly as a
    /// standalone campaign ledger writes it, and decodes back to the
    /// value it encoded. The checkpoints hold every other campaign as
    /// committed (with a real report) and the first campaign's events as
    /// their trailing stream.
    #[test]
    fn container_bodies_equal_standalone_bodies(
        campaigns in arb_fleet(),
        master_seed in any::<u64>(),
    ) {
        let fleet = FleetLedger { master_seed, campaigns };
        let bytes = fleet.to_bytes(LedgerEncoding::Binary);
        let bodies: Vec<u8> = fleet
            .campaigns
            .iter()
            .flat_map(|c| standalone_body(&c.events))
            .collect();
        prop_assert!(bytes.ends_with(&bodies), "fleet bodies differ");
        prop_assert_eq!(FleetLedger::from_bytes(&bytes).expect("own bytes decode"), fleet.clone());

        let ledgers: Vec<Option<CampaignLedger>> = fleet
            .campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| (i % 2 == 0).then(|| c.clone()))
            .collect();
        let completed: Vec<Option<CampaignReport>> = ledgers
            .iter()
            .map(|l| l.as_ref().map(|_| recorded().0.clone()))
            .collect();
        let seeds: Vec<u64> = (0..ledgers.len() as u64).map(|i| master_seed ^ i).collect();
        let events = fleet.campaigns.first().map(|c| c.events.clone()).unwrap_or_default();
        let mut bodies: Vec<u8> = ledgers
            .iter()
            .flatten()
            .flat_map(|l| standalone_body(&l.events))
            .collect();
        bodies.extend(standalone_body(&events));

        let service = ServiceCheckpoint {
            master_seed,
            seeds: seeds.clone(),
            completed: completed.clone(),
            ledgers: ledgers.clone(),
            events: events.clone(),
        };
        let bytes = service.to_bytes(LedgerEncoding::Binary);
        prop_assert!(bytes.ends_with(&bodies), "service checkpoint bodies differ");
        prop_assert_eq!(ServiceCheckpoint::from_bytes(&bytes).expect("own bytes decode"), service);

        let checkpoint = FleetLedgerCheckpoint {
            fleet: FleetCheckpoint {
                master_seed,
                shard_seeds: seeds,
                completed,
            },
            ledgers,
            events,
        };
        let bytes = checkpoint.to_bytes(LedgerEncoding::Binary);
        prop_assert!(bytes.ends_with(&bodies), "fleet checkpoint bodies differ");
        prop_assert_eq!(
            FleetLedgerCheckpoint::from_bytes(&bytes).expect("own bytes decode"),
            checkpoint
        );
    }
}

/// A 200 000-deep `[[…]]` (400 KB, no `EVWL` magic, so every decoder
/// takes its legacy-JSON path) is refused as [`WireError::Json`] by every
/// public decoder and byte replay — never a stack overflow that aborts
/// the process. A resume decodes its checkpoint through the same
/// `from_bytes`.
#[test]
fn deeply_nested_json_is_refused_by_every_decoder() {
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let bytes = deep.as_bytes();
    assert_eq!(LedgerEncoding::detect(bytes), LedgerEncoding::Json);
    let too_deep = |e: &WireError| matches!(e, WireError::Json(m) if m.contains("recursion limit"));

    assert!(CampaignLedger::from_bytes(bytes).is_err_and(|e| too_deep(&e)));
    assert!(FleetLedger::from_bytes(bytes).is_err_and(|e| too_deep(&e)));
    assert!(FleetLedgerCheckpoint::from_bytes(bytes).is_err_and(|e| too_deep(&e)));
    assert!(ServiceCheckpoint::from_bytes(bytes).is_err_and(|e| too_deep(&e)));
    assert!(matches!(
        replay_ledger_bytes(bytes),
        Err(ReplayError::Corrupt(e)) if too_deep(&e)
    ));
    assert!(matches!(
        replay_fleet_ledger_bytes(bytes),
        Err(ReplayError::Corrupt(e)) if too_deep(&e)
    ));
}

/// Numbers no ledger field holds: out of range for `u64`, `i64` or
/// `f64`, spellings JSON does not have, and malformed tokens.
const HOSTILE_NUMBERS: [&str; 15] = [
    "1e400",
    "-1e400",
    "1e-400",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "-9223372036854775809",
    "NaN",
    "Infinity",
    "-Infinity",
    "0x10",
    "01",
    "1e",
    "-",
    "1.",
    "-0",
];

/// Escapes that break a string: lone and mispaired surrogates, a NUL, a
/// short `\u`, an escape JSON does not have, and a bare backslash.
const HOSTILE_ESCAPES: [&str; 8] = [
    r"\ud800",
    r"\udc00",
    r"\ud800\ud800",
    r"\ud800A",
    r"\u0000",
    r"\u12",
    r"\x41",
    r"\",
];

/// A small recorded campaign ledger's legacy JSON.
fn small_ledger_json() -> Vec<u8> {
    let space = MaterialsSpace::generate(2, 3, 11);
    let mut cfg = CampaignConfig::for_cell(Cell::traditional_wms(), 5);
    cfg.horizon = SimDuration::from_hours(1);
    cfg.batch_per_lane = 1;
    cfg.coordination = Some(CoordinationMode::Autonomous);
    let (_, ledger) = run_campaign_recorded(&space, &cfg);
    ledger.to_bytes(LedgerEncoding::Json)
}

/// The byte ranges of `json`'s number tokens, and the offsets just
/// inside each quote (after an opening one, before a closing one), from
/// one scan that steps over string contents.
fn numbers_and_quotes(json: &[u8]) -> (Vec<std::ops::Range<usize>>, Vec<usize>) {
    let (mut numbers, mut quotes) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < json.len() {
        match json[i] {
            b'"' => {
                i += 1;
                quotes.push(i);
                while json[i] != b'"' {
                    i += if json[i] == b'\\' { 2 } else { 1 };
                }
                quotes.push(i);
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < json.len()
                    && matches!(json[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                numbers.push(start..i);
            }
            _ => i += 1,
        }
    }
    (numbers, quotes)
}

/// `json` with `range` replaced by `with`.
fn spliced(json: &[u8], range: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    [&json[..range.start], with, &json[range.end..]].concat()
}

/// Every public decoder and byte replay, on one input; whether it
/// decodes as a campaign ledger.
fn decode_everywhere(bytes: &[u8]) -> bool {
    let decoded = CampaignLedger::from_bytes(bytes).is_ok();
    let _ = FleetLedger::from_bytes(bytes);
    let _ = FleetLedgerCheckpoint::from_bytes(bytes);
    let _ = ServiceCheckpoint::from_bytes(bytes);
    let _ = replay_ledger_bytes(bytes);
    let _ = replay_fleet_ledger_bytes(bytes);
    decoded
}

/// A small recorded ledger's legacy JSON, mutated: each number token
/// replaced by each hostile number, each hostile escape inserted inside
/// each quote, trailing garbage, 200 truncations and duplicate keys.
/// Every decoder and byte replay answers each input with `Ok` or a
/// typed error; none panics.
#[test]
fn mutated_legacy_json_never_panics_a_decoder() {
    let json = small_ledger_json();
    assert!(CampaignLedger::from_bytes(&json).is_ok());
    assert!(replay_ledger_bytes(&json).is_ok());
    let (numbers, quotes) = numbers_and_quotes(&json);
    assert!(
        numbers.len() >= 40 && quotes.len() >= 40,
        "ledger too small"
    );

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for (n, span) in numbers.iter().enumerate() {
        for number in HOSTILE_NUMBERS {
            let input = spliced(&json, span.clone(), number.as_bytes());
            cases.push((format!("number {n} as {number}"), input));
        }
    }
    for &q in &quotes {
        for escape in HOSTILE_ESCAPES {
            let input = spliced(&json, q..q, escape.as_bytes());
            cases.push((format!("{escape} at byte {q}"), input));
        }
    }
    for tail in ["x", ",", "]", "}", "{}", " null", "\0", "\u{feff}"] {
        cases.push((
            format!("trailing {tail:?}"),
            [&json[..], tail.as_bytes()].concat(),
        ));
    }
    for k in 0..200 {
        let cut = k * json.len() / 200;
        cases.push((format!("cut at byte {cut}"), json[..cut].to_vec()));
    }
    let seed = json
        .windows(7)
        .position(|w| w == b"\"seed\":")
        .expect("the ledger records its seed");
    cases.push((
        "duplicate seed".into(),
        spliced(&json, seed..seed, b"\"seed\":0,"),
    ));
    cases.push((
        "duplicate events".into(),
        spliced(&json, 1..1, b"\"events\":[],"),
    ));

    let (mut decoded, mut panicked) = (0, Vec::new());
    for (label, input) in &cases {
        match std::panic::catch_unwind(|| decode_everywhere(input)) {
            Ok(ok) => decoded += usize::from(ok),
            Err(_) => panicked.push(label.as_str()),
        }
    }
    assert!(panicked.is_empty(), "a decoder panicked on {panicked:?}");
    // Some mutations (`-0`, `1e-400`, an escape inside a string) still
    // decode, so the battery reaches the typed decode and the replay.
    assert!(decoded > 0, "every mutation stopped at the parser");
}
