//! # evoflow-bench — experiment harness and shared reporting helpers
//!
//! One binary per paper table/figure/claim lives in `src/bin/`. This
//! library holds the shared plumbing: aligned table printing (the
//! binaries reproduce the paper's rows/series on stdout), JSON result
//! artifacts under `results/`, and the one verdict path every binary
//! that checks something goes through: a [`Gates`] list whose
//! [`exit_code`](Gates::exit_code) is the binary's exit status and whose
//! serialized form is the `gates` field of each `BENCH_*.json`.

use serde::{Deserialize, Serialize, Serializer};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One named verdict in a [`Gates`] list.
#[derive(Debug, Serialize, Deserialize)]
pub struct Gate {
    /// What the check asserts, worded so that a pass means it held.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
}

/// Every verdict a binary makes, in the order it made them.
///
/// [`check`](Gates::check) prints the `[PASS]`/`[FAIL]` line and records
/// it; [`exit_code`](Gates::exit_code) is a failure when any check
/// failed, so `main` returns it and a printed FAIL can never exit 0. The
/// list serializes as `[{"name": …, "pass": …}]`, the top-level `gates`
/// field of every `BENCH_*.json`, which CI asserts on top of the exit
/// code. Names must not carry wall-clock numbers: the summaries are
/// byte-diffed between runs.
#[derive(Debug, Default)]
pub struct Gates(Vec<Gate>);

impl Gates {
    /// An empty list (exits successfully until a check fails).
    pub fn new() -> Self {
        Self::default()
    }

    /// Print `[PASS] name` or `[FAIL] name` and record the verdict.
    pub fn check(&mut self, name: impl Into<String>, pass: bool) {
        let name = name.into();
        println!("  [{}] {name}", if pass { "PASS" } else { "FAIL" });
        self.0.push(Gate { name, pass });
    }

    /// [`ExitCode::FAILURE`] when any check failed, success otherwise.
    pub fn exit_code(&self) -> ExitCode {
        if self.0.iter().all(|g| g.pass) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

impl Serialize for Gates {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

/// Print an aligned text table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Locate the workspace `results/` directory (next to the workspace root).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a JSON result artifact for experiment `id`.
///
/// This is for paper table/figure/claim artifacts (`fig1_abstraction`,
/// `table4_throughput`, ...). Bench binaries must emit their CI-tracked
/// summary through [`write_bench_summary`] instead — `id`s that collide
/// with that namespace are refused so the historical
/// `results/bench_X.json` / `results/BENCH_X.json` split cannot recur.
pub fn write_results<T: Serialize>(id: &str, value: &T) {
    assert!(
        !id.starts_with("bench_") && !id.starts_with("BENCH_") && id != "selftest",
        "write_results({id:?}): bench summaries are written by write_bench_summary \
         as BENCH_<id>.json; write_results is for paper table/figure artifacts only"
    );
    let path = results_dir().join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable results");
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(json.as_bytes()).expect("write results");
    println!("\n[results written to {}]", path.display());
}

/// The `BENCH_SUMMARY_DIR` redirect, when set.
fn summary_dir() -> Option<PathBuf> {
    std::env::var_os("BENCH_SUMMARY_DIR").map(PathBuf::from)
}

/// Write the machine-readable per-PR bench summary `BENCH_<id>.json`.
///
/// Summaries are the CI-tracked perf trajectory: every bench binary emits
/// one, with its [`Gates`] as the `gates` field. They land in `results/`
/// by default; set `BENCH_SUMMARY_DIR` to redirect them (the CI `gates`
/// job points two runs at two directories and byte-diffs them).
pub fn write_bench_summary<T: Serialize>(id: &str, value: &T) {
    let dir = summary_dir().unwrap_or_else(results_dir);
    std::fs::create_dir_all(&dir).expect("create bench summary dir");
    let path = dir.join(format!("BENCH_{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable summary");
    std::fs::write(&path, json).expect("write bench summary");
    println!("[bench summary written to {}]", path.display());
}

/// Write a report or ledger `name` next to the bench summary, so a
/// two-run byte-diff covers it too. Only when `BENCH_SUMMARY_DIR` is set:
/// `results/` keeps the committed summaries alone.
pub fn write_artifact(name: &str, bytes: impl AsRef<[u8]>) {
    if let Some(dir) = summary_dir() {
        std::fs::create_dir_all(&dir).expect("create bench summary dir");
        std::fs::write(dir.join(name), bytes).expect("write bench artifact");
    }
}

/// Median of `xs`; the mean of the middle two for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `pairs` back-to-back pairs of two measurements and return them
/// as `(a, b)`. Which side goes first alternates (`a` in even pairs, `b`
/// in odd ones), so a pair's two sides see one host speed and neither
/// side always runs warm: a wall-clock gate on the median per-pair ratio
/// does not flake with host-speed drift.
pub fn alternating_pairs<A, B>(
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Vec<(A, B)> {
    (0..pairs)
        .map(|pair| {
            if pair % 2 == 0 {
                let first = a();
                (first, b())
            } else {
                let first = b();
                (a(), first)
            }
        })
        .collect()
}

/// Format a float compactly for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(0.1234), "0.123");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn alternating_pairs_switch_which_side_runs_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let pairs = alternating_pairs(
            4,
            || {
                order.borrow_mut().push('a');
                order.borrow().len()
            },
            || {
                order.borrow_mut().push('b');
                order.borrow().len()
            },
        );
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        // Each pair is returned as (a, b) whichever ran first.
        assert_eq!(pairs, [(1, 2), (4, 3), (5, 6), (8, 7)]);
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.exists());
    }

    #[test]
    fn gates_fail_when_any_check_fails() {
        let mut gates = Gates::new();
        assert_eq!(gates.exit_code(), ExitCode::SUCCESS);
        gates.check("holds", true);
        assert_eq!(gates.exit_code(), ExitCode::SUCCESS);
        gates.check("breaks", false);
        gates.check("holds again", true);
        assert_eq!(gates.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    fn gates_serialize_as_name_pass_list() {
        let mut gates = Gates::new();
        gates.check("a", true);
        gates.check("b", false);
        let json = serde_json::to_string(&gates).unwrap();
        assert_eq!(
            json,
            r#"[{"name":"a","pass":true},{"name":"b","pass":false}]"#
        );
    }

    #[test]
    fn write_bench_summary_honors_redirect() {
        // Redirect into a scratch dir so test runs never touch the
        // committed results/ directory (the old in-place selftest writes
        // were exactly the artifact drift this guards against). The
        // artifact writer reads the same variable, so it is checked here
        // rather than in a second test racing on it.
        let dir = std::env::temp_dir().join("evoflow_bench_summary_selftest");
        std::env::set_var("BENCH_SUMMARY_DIR", &dir);
        #[derive(Serialize)]
        struct T {
            pass: bool,
        }
        write_bench_summary("selftest", &T { pass: true });
        write_artifact("selftest.evwl", [0xEu8, 0x7, 0x1]);
        std::env::remove_var("BENCH_SUMMARY_DIR");
        write_artifact("selftest_unset.evwl", b"dropped");
        let text = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert!(text.contains("\"pass\": true"));
        assert_eq!(
            std::fs::read(dir.join("selftest.evwl")).unwrap(),
            [0xE, 0x7, 0x1]
        );
        assert!(!results_dir().join("selftest_unset.evwl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_summaries_record_passing_gates() {
        #[derive(Deserialize)]
        struct Summary {
            gates: Vec<Gate>,
        }
        let mut summaries = 0;
        for entry in std::fs::read_dir(results_dir()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let summary: Summary = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} has no gates list: {e}"));
            assert!(!summary.gates.is_empty(), "{name} records no gates");
            for gate in &summary.gates {
                assert!(gate.pass, "{name}: gate failed: {}", gate.name);
            }
            summaries += 1;
        }
        assert!(summaries > 0, "no committed BENCH_*.json summaries");
    }

    #[test]
    #[should_panic(expected = "write_bench_summary")]
    fn write_results_refuses_bench_namespace() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        write_results("bench_selftest", &T { x: 7 });
    }
}
