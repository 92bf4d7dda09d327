//! **Extension experiment — autonomy certification matrix.**
//!
//! §7/§8's strategic bet: "shared testbeds … validating progressive
//! levels of autonomy" with "benchmarks and reference implementations".
//! This experiment runs the standard five-rung certification ladder over
//! the five Table-1 reference controllers and prints the full grade
//! matrix: the testbed is correctly calibrated iff the diagonal (each
//! reference graded at its own level) holds, and the evidence shows each
//! disturbance class defeating exactly the levels below its rung.

use evoflow_bench::{fmt, print_table, write_results, Gates};
use evoflow_testbed::{expected_grade, reference_matrix, AutonomyGrade};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct MatrixRow {
    level: String,
    achieved: Option<String>,
    expected: String,
    diagonal: bool,
    rung_in_band: Vec<f64>,
    rung_passed: Vec<bool>,
}

fn main() -> ExitCode {
    let matrix = reference_matrix(2025);

    let mut rows = Vec::new();
    let mut table_rows = Vec::new();
    let mut diagonal_holds = true;
    for (level, cert) in &matrix {
        let expected = expected_grade(*level);
        let diagonal = cert.achieved == Some(expected);
        diagonal_holds &= diagonal;
        table_rows.push(vec![
            level.to_string(),
            cert.rungs
                .iter()
                .map(|r| if r.passed { "P" } else { "." })
                .collect::<String>(),
            cert.achieved
                .map(|g| g.to_string())
                .unwrap_or_else(|| "none".into()),
            cert.rungs
                .iter()
                .map(|r| fmt(r.mean_in_band))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
        rows.push(MatrixRow {
            level: level.to_string(),
            achieved: cert.achieved.map(|g| g.to_string()),
            expected: expected.to_string(),
            diagonal,
            rung_in_band: cert.rungs.iter().map(|r| r.mean_in_band).collect(),
            rung_passed: cert.rungs.iter().map(|r| r.passed).collect(),
        });
    }
    print_table(
        "Extension · autonomy certification (rungs L0..L4 left to right)",
        &["reference", "rungs", "grade", "in-band per rung"],
        &table_rows,
    );

    println!("\nHeadline checks:");
    let mut gates = Gates::new();
    gates.check(
        "diagonal: every reference grades at its own level",
        diagonal_holds,
    );
    // Each rung defeats exactly the levels below it: the L(k) reference
    // fails rung k+1.
    let strictly_graded = matrix.iter().enumerate().all(|(k, (_, cert))| {
        cert.rungs
            .get(k + 1)
            .map(|next| !next.passed)
            .unwrap_or(true)
    });
    gates.check(
        "each reference fails the rung one above its level",
        strictly_graded,
    );
    let intelligent_cert = &matrix.last().expect("five levels").1;
    gates.check(
        "the Ω reference passes every rung (L4 contiguity)",
        intelligent_cert.achieved == Some(AutonomyGrade::L4Intelligent),
    );

    write_results("ext_certification", &rows);
    gates.exit_code()
}
