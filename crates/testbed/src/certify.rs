//! The certification harness.
//!
//! Runs a candidate controller up the [`crate::scenario`] ladder with
//! seeded replications and issues a certificate for the highest
//! *contiguously* passed rung. Contiguity is the point: §4.1 warns that
//! long-horizon autonomy fails from "error compounding, equipment
//! failures, and environmental variations" — a controller that handles
//! the exotic disturbance but not the mundane one is not autonomous, it is
//! lucky.

use crate::scenario::{standard_ladder, AutonomyGrade, Rung};
use evoflow_sim::SimRng;
use evoflow_sm::control::CtrlState;
use evoflow_sm::{controller_for_level, run_episode, IntelligenceLevel, Machine, Transition};
use serde::{Deserialize, Serialize};

/// A factory producing fresh, seeded candidate controllers. Each
/// replication gets its own instance so no state leaks between trials.
pub type CandidateFactory<'a> = dyn Fn(u64) -> Machine<CtrlState, u32, f64, Box<dyn Transition<CtrlState, u32, f64>>>
    + Sync
    + 'a;

/// Measured outcome of one rung.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RungResult {
    /// Grade the rung certifies.
    pub grade: AutonomyGrade,
    /// Rung description.
    pub name: String,
    /// Mean in-band fraction across replications.
    pub mean_in_band: f64,
    /// Fraction of replications that crashed.
    pub crash_rate: f64,
    /// Mean decision cost per step (Table 1's cost column).
    pub mean_cost_per_step: f64,
    /// Whether both thresholds were met.
    pub passed: bool,
}

/// The issued certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutonomyCertificate {
    /// Name of the certified system.
    pub subject: String,
    /// Highest contiguously passed grade (`None`: failed the first rung).
    pub achieved: Option<AutonomyGrade>,
    /// Per-rung evidence, in ladder order. Rungs above the first failure
    /// are still run and recorded — the evidence of *how* a system fails
    /// upward is part of the certificate.
    pub rungs: Vec<RungResult>,
    /// Master seed the verdict derives from (replay key).
    pub master_seed: u64,
}

impl AutonomyCertificate {
    /// Whether the certificate awards at least `grade`.
    pub fn at_least(&self, grade: AutonomyGrade) -> bool {
        self.achieved.is_some_and(|a| a >= grade)
    }
}

/// Run one rung for one candidate.
fn run_rung(factory: &CandidateFactory<'_>, rung: &Rung, master_seed: u64) -> RungResult {
    let outcomes: Vec<_> = (0..rung.replications)
        .map(|rep| {
            // Controller seed and environment seed are independent
            // streams so candidates cannot overfit the disturbance draw.
            let mut machine = factory(master_seed ^ (rep * 7 + 1));
            let mut rng = SimRng::from_seed_u64(master_seed ^ rep ^ 0x5EED_CAFE);
            for _ in 0..rung.training_episodes {
                run_episode(&mut machine, rung.scenario, rung.horizon, &mut rng);
            }
            run_episode(&mut machine, rung.scenario, rung.horizon, &mut rng)
        })
        .collect();
    let n = outcomes.len() as f64;
    let mean_in_band = outcomes.iter().map(|o| o.in_band_fraction).sum::<f64>() / n;
    let crash_rate = outcomes.iter().filter(|o| o.crashed).count() as f64 / n;
    let mean_cost_per_step =
        outcomes.iter().map(|o| o.cost_units as f64).sum::<f64>() / (n * rung.horizon as f64);
    RungResult {
        grade: rung.grade,
        name: rung.name.clone(),
        mean_in_band,
        crash_rate,
        mean_cost_per_step,
        passed: mean_in_band >= rung.min_in_band && crash_rate <= rung.max_crash_rate,
    }
}

/// Certify a candidate against a ladder. `subject` labels the
/// certificate; `master_seed` makes the verdict replayable.
pub fn certify_with_ladder(
    subject: impl Into<String>,
    factory: &CandidateFactory<'_>,
    ladder: &[Rung],
    master_seed: u64,
) -> AutonomyCertificate {
    let rungs: Vec<RungResult> = ladder
        .iter()
        .map(|rung| run_rung(factory, rung, master_seed))
        .collect();
    let achieved = rungs
        .iter()
        .take_while(|r| r.passed)
        .last()
        .map(|r| r.grade);
    AutonomyCertificate {
        subject: subject.into(),
        achieved,
        rungs,
        master_seed,
    }
}

/// Certify against the [`standard_ladder`].
pub fn certify(
    subject: impl Into<String>,
    factory: &CandidateFactory<'_>,
    master_seed: u64,
) -> AutonomyCertificate {
    certify_with_ladder(subject, factory, &standard_ladder(), master_seed)
}

/// Expected grade for each Table-1 reference controller.
pub fn expected_grade(level: IntelligenceLevel) -> AutonomyGrade {
    match level {
        IntelligenceLevel::Static => AutonomyGrade::L0Static,
        IntelligenceLevel::Adaptive => AutonomyGrade::L1Adaptive,
        IntelligenceLevel::Learning => AutonomyGrade::L2Learning,
        IntelligenceLevel::Optimizing => AutonomyGrade::L3Optimizing,
        IntelligenceLevel::Intelligent => AutonomyGrade::L4Intelligent,
    }
}

/// Certify all five reference controllers — the testbed's calibration
/// self-check. A miscalibrated ladder (one that misgrades its own
/// references) is detected here before any external system is graded.
pub fn reference_matrix(master_seed: u64) -> Vec<(IntelligenceLevel, AutonomyCertificate)> {
    IntelligenceLevel::ALL
        .iter()
        .map(|&level| {
            let factory = move |seed: u64| controller_for_level(level, seed);
            let cert = certify(level.to_string(), &factory, master_seed);
            (level, cert)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_certifies_at_l0_only() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Static, seed);
        let cert = certify("static-ref", &factory, 11);
        assert_eq!(cert.achieved, Some(AutonomyGrade::L0Static));
        assert!(cert.rungs[0].passed);
        assert!(!cert.rungs[1].passed, "static must fail the noisy rung");
    }

    #[test]
    fn adaptive_certifies_at_l1() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Adaptive, seed);
        let cert = certify("adaptive-ref", &factory, 11);
        assert_eq!(cert.achieved, Some(AutonomyGrade::L1Adaptive));
    }

    #[test]
    fn learning_certifies_at_l2() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Learning, seed);
        let cert = certify("learning-ref", &factory, 11);
        assert_eq!(cert.achieved, Some(AutonomyGrade::L2Learning));
    }

    #[test]
    fn optimizing_certifies_at_l3() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Optimizing, seed);
        let cert = certify("optimizing-ref", &factory, 11);
        assert_eq!(cert.achieved, Some(AutonomyGrade::L3Optimizing));
    }

    #[test]
    fn reference_matrix_grades_every_level_at_itself() {
        for (level, cert) in reference_matrix(2025) {
            assert_eq!(
                cert.achieved,
                Some(expected_grade(level)),
                "{level:?} misgraded: {:?}",
                cert.rungs
                    .iter()
                    .map(|r| (r.grade, r.passed, r.mean_in_band))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn intelligent_certifies_at_l4() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Intelligent, seed);
        let cert = certify("intelligent-ref", &factory, 11);
        assert_eq!(cert.achieved, Some(AutonomyGrade::L4Intelligent));
        assert!(cert.at_least(AutonomyGrade::L2Learning));
    }

    #[test]
    fn certificates_replay_bit_identically() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Adaptive, seed);
        let a = certify("x", &factory, 42);
        let b = certify("x", &factory, 42);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn different_seed_changes_evidence_not_grade() {
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Adaptive, seed);
        let a = certify("x", &factory, 1);
        let b = certify("x", &factory, 2);
        assert_eq!(a.achieved, b.achieved, "grading must be seed-stable");
    }

    #[test]
    fn contiguity_rule_caps_the_grade() {
        // A candidate that *only* survives regime shifts: grade is None
        // because it never passes L0. Build it as an intelligent
        // controller wrapped to sabotage itself off the regime rung — here
        // simulated by an empty-schedule static machine judged on a
        // ladder whose first rung is impossible.
        let ladder = {
            let mut l = standard_ladder();
            l[0].min_in_band = 0.999; // nothing passes nominal ops
            l
        };
        let factory = |seed: u64| controller_for_level(IntelligenceLevel::Intelligent, seed);
        let cert = certify_with_ladder("gappy", &factory, &ladder, 11);
        assert_eq!(cert.achieved, None);
        // The upper rungs were still run and recorded as evidence.
        assert_eq!(cert.rungs.len(), 5);
        assert!(cert.rungs[4].passed);
    }
}
