//! Seeded end-to-end and per-layer benchmark of `evoflow-core`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets up the workload's inputs from the seed,
//! times passes for `--seconds`, checks every pass's output, and prints
//! the end-to-end metrics. With `--trace 1` it instead makes one traced
//! run over the same inputs and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` beside this crate for the workloads and metrics.

mod inputs;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use trace::Trace;
use workloads::Outcome;

const WORKLOADS: [&str; 4] = [
    "discovery",
    "service_flood",
    "federated_outage",
    "audit_replay",
];

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("experiments_per_s", "1/s"),
    ("result_p50_s", "s"),
    ("result_p99_s", "s"),
    ("replay_events_per_s", "1/s"),
    ("wire_bytes_per_event", "B"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let calib = stats::host_calibration_s();
    let mut out = Outcome::default();
    let mut ok = true;
    let workload = workloads::set_up_workload(&args.workload, args.seed, &mut out);
    if args.trace {
        let untraced_pass = workload.untraced_pass_s();
        let mut t = Trace::new();
        let (checked, traced_pass) = workload.traced(&mut t);
        ok &= checked;
        out.tally(1, checked);
        let wall = t.wall();
        println!("traced run: wall {wall:.4} s, traced pass {traced_pass:.4} s, untraced pass {untraced_pass:.4} s");
        print!("{}", t.table(wall));
        let overhead = 100.0 * (traced_pass - untraced_pass) / untraced_pass;
        out.metrics = layer_metrics(&t, wall, overhead, calib);
        if let Err(e) = write_spans(&args, &t) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    } else {
        workload.measure(args.seconds, &mut out);
        out.metrics
            .push(("peak_rss_mb", stats::peak_rss_mb(), "MB"));
        out.metrics
            .sort_by_key(|(name, ..)| END_TO_END.iter().position(|(n, _)| n == name));
        let printed: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
        if printed != END_TO_END {
            eprintln!("perfbench: {} printed {printed:?}", args.workload);
            ok = false;
        }
    }
    for line in &out.notes {
        println!("{}: {line}", args.workload);
    }
    println!("{}: host.calib_s {calib:.6}", args.workload);
    for (name, value, unit) in &out.metrics {
        ok &= value.is_finite();
        println!("{:<28} {value:>18.6} {unit}", name);
    }
    ok &= out.attempted > 0 && out.failed == 0;
    println!("{}", result_json(ok, &out));
    ExitCode::SUCCESS
}

/// The per-layer metrics, in layer order, from the traced run.
fn layer_metrics(
    t: &Trace,
    wall: f64,
    overhead_pct: f64,
    calib: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let own = |name: &str| t.self_secs(name);
    let count = |name: &str| t.counter(name);
    vec![
        ("planner.propose_s", own("planner.propose"), "s"),
        ("planner.model_s", count("planner.model_s"), "s"),
        ("planner.anchor_s", count("planner.anchor_s"), "s"),
        ("planner.observe_s", own("planner.observe"), "s"),
        ("planner.proposals", count("planner.proposals"), "count"),
        ("planner.scored", count("planner.scored"), "count"),
        ("planner.rejected", count("planner.rejected"), "count"),
        ("campaign.run_s", t.total("campaign.run"), "s"),
        ("campaign.self_s", own("campaign.run"), "s"),
        ("campaign.emit_s", own("campaign.emit"), "s"),
        ("campaign.events", count("campaign.events"), "count"),
        ("domain.measure_s", own("domain.measure"), "s"),
        ("knowledge.ingest_s", own("knowledge.ingest"), "s"),
        ("knowledge.nodes", count("knowledge.nodes"), "count"),
        (
            "knowledge.activities",
            count("knowledge.activities"),
            "count",
        ),
        ("fleet.execute_s", own("fleet.execute"), "s"),
        (
            "fleet.parallel_efficiency",
            count("fleet.parallel_efficiency"),
            "ratio",
        ),
        ("fleet.tasks", count("fleet.tasks"), "count"),
        ("service.plan_s", own("service.plan"), "s"),
        ("service.stream_s", own("service.stream"), "s"),
        ("service.assemble_s", own("service.assemble"), "s"),
        ("service.admitted", count("service.admitted"), "count"),
        ("service.rejected", count("service.rejected"), "count"),
        ("service.rounds", count("service.rounds"), "count"),
        (
            "service.p99_wait_rounds",
            count("service.p99_wait_rounds"),
            "rounds",
        ),
        ("ledger.encode_s", own("ledger.encode"), "s"),
        ("ledger.decode_s", own("ledger.decode"), "s"),
        ("ledger.replay_s", own("ledger.replay"), "s"),
        ("ledger.events", count("ledger.events"), "count"),
        ("ledger.bytes", count("ledger.bytes"), "B"),
        ("ledger.segments", count("ledger.segments"), "count"),
        (
            "ledger.intern_hit_ratio",
            count("ledger.intern_hit_ratio"),
            "ratio",
        ),
        ("federated.place_s", own("federated.place"), "s"),
        ("federated.fleet_s", count("federated.fleet_s"), "s"),
        (
            "federated.placements",
            count("federated.placements"),
            "count",
        ),
        ("federated.rerouted", count("federated.rerouted"), "count"),
        ("federated.transfers", count("federated.transfers"), "count"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.unattributed_s", t.unattributed(wall), "s"),
        ("host.calib_s", calib, "s"),
    ]
}

/// Write every span of the traced run under `.bench_out/`.
fn write_spans(args: &Args, t: &Trace) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed)),
        t.dump(),
    )
}

fn result_json(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let entries = json.get(list).expect("list present");
        (0..)
            .map_while(|i| entries.get_index(i))
            .map(|e| {
                let field = |k| {
                    e.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = layer_metrics(&Trace::new(), 1.0, 0.0, 0.0)
            .into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("peak_rss_mb", f64::NAN, "MB")],
            notes: Vec::new(),
        };
        let line = result_json(true, &out);
        let json: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
    }
}
