//! # evoflow-bench — experiment harness and shared reporting helpers
//!
//! One binary per paper table/figure/claim lives in `src/bin/`. This
//! library holds the shared plumbing: aligned table printing (the
//! binaries reproduce the paper's rows/series on stdout) and JSON result
//! artifacts under `results/` (from which EXPERIMENTS.md is compiled).

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

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

/// Write the machine-readable per-PR bench summary `BENCH_<id>.json`.
///
/// Summaries are the CI-tracked perf trajectory: every bench binary emits
/// one, CI uploads them as artifacts, and determinism-gating jobs byte-diff
/// them between reruns. They land in `results/` by default; set
/// `BENCH_SUMMARY_DIR` to redirect them (the federation-smoke job points
/// two runs at two directories and diffs).
pub fn write_bench_summary<T: Serialize>(id: &str, value: &T) {
    let dir = std::env::var_os("BENCH_SUMMARY_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(results_dir);
    std::fs::create_dir_all(&dir).expect("create bench summary dir");
    let path = dir.join(format!("BENCH_{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable summary");
    std::fs::write(&path, json).expect("write bench summary");
    println!("[bench summary written to {}]", path.display());
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
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.exists());
    }

    #[test]
    fn write_bench_summary_honors_redirect() {
        // Redirect into a scratch dir so test runs never touch the
        // committed results/ directory (the old in-place selftest writes
        // were exactly the artifact drift this guards against).
        let dir = std::env::temp_dir().join("evoflow_bench_summary_selftest");
        std::env::set_var("BENCH_SUMMARY_DIR", &dir);
        #[derive(Serialize)]
        struct T {
            pass: bool,
        }
        write_bench_summary("selftest", &T { pass: true });
        std::env::remove_var("BENCH_SUMMARY_DIR");
        let text = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert!(text.contains("\"pass\": true"));
        let _ = std::fs::remove_dir_all(&dir);
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
