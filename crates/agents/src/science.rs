//! The science agents of Figure 4: hypothesis, literature, experiment
//! design, analysis, librarian/knowledge, meta-optimizer, and facility
//! agents.
//!
//! Each agent wraps a simulated reasoning engine (`evoflow-cogsim`) plus
//! domain state and exposes the narrow interface the campaign engine
//! (`evoflow-core`) drives: propose → design → (facility executes) →
//! analyze → record → meta-optimize. The design agent carries the
//! validation gate §4.1 demands: hallucinated (out-of-bounds) proposals
//! never reach instruments.

use evoflow_cogsim::{CognitiveModel, TokenUsage};
use evoflow_knowledge::{
    ActivityKind, KnowledgeGraph, NodeKind, ProvenanceStore, ReasoningTrace, Relation,
};
use evoflow_learn::{RbfSurrogate, ScoreScratch};
use evoflow_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;

/// A proposed design point with its provenance-relevant metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Candidate {
    /// Design-space coordinates (should be in `[0,1]^d`; hallucinated
    /// proposals may leave the cube and must be caught by validation).
    pub params: Vec<f64>,
    /// Generated rationale text. A `Cow` so the fixed-policy planners
    /// (grid, adaptive, …) can label every candidate with a `'static`
    /// string instead of allocating per proposal on the hot loop;
    /// generated text still arrives as `Cow::Owned`.
    pub rationale: Cow<'static, str>,
    /// Model confidence in \[0,1\].
    pub confidence: f64,
    /// Ground-truth hallucination flag (simulator-only; real systems
    /// don't get this — which is why the validation gate exists).
    pub hallucinated: bool,
}

/// An observed `(params, score)` pair (higher score = better material).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Design-space coordinates.
    pub params: Vec<f64>,
    /// Measured figure of merit.
    pub score: f64,
}

/// Generates novel research directions (Fig 4 "Hypothesis Agent").
#[derive(Debug)]
pub struct HypothesisAgent {
    model: CognitiveModel,
    dim: usize,
    /// Fraction of proposals drawn as pure exploration.
    pub explore_ratio: f64,
}

impl HypothesisAgent {
    /// Create with a reasoning model over a `dim`-dimensional design space.
    pub fn new(model: CognitiveModel, dim: usize) -> Self {
        HypothesisAgent {
            model,
            dim,
            explore_ratio: 0.4,
        }
    }

    /// Lifetime token usage of the underlying model.
    pub fn usage(&self) -> TokenUsage {
        self.model.lifetime_usage()
    }

    /// Propose `n` candidates given the accumulated evidence: exploit the
    /// best-known region with probability `1 - explore_ratio`, explore
    /// uniformly otherwise.
    pub fn propose(&mut self, evidence: &[Evidence], n: usize) -> Vec<Candidate> {
        let anchor = evidence
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .map(|e| e.params.as_slice());
        self.propose_anchored(anchor, n)
    }

    /// Propose `n` candidates around an already-selected anchor (the
    /// caller's best evidence), without materialising an evidence slice.
    /// This is the allocation-free path the campaign hot loop uses: it
    /// keeps its best so far in place and passes only a borrowed anchor.
    pub fn propose_anchored(&mut self, anchor: Option<&[f64]>, n: usize) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let explore = self.model.rng().chance(self.explore_ratio) || anchor.is_none();
            let (params, hallucinated) = if explore {
                self.model.propose_point(self.dim, None)
            } else {
                self.model.propose_point(self.dim, anchor)
            };
            let completion = self.model.complete(
                "generate hypothesis for candidate",
                24,
                evoflow_cogsim::SCIENCE_LEXICON,
            );
            let confidence = if explore { 0.4 } else { 0.7 };
            out.push(Candidate {
                params,
                rationale: completion.text.into(),
                confidence,
                hallucinated: hallucinated || completion.hallucinated,
            });
        }
        out
    }
}

/// Surveys prior knowledge (Fig 4 "Literature Agent"): holds a corpus of
/// noisy historical observations and surfaces the most relevant ones.
#[derive(Debug)]
pub struct LiteratureAgent {
    model: CognitiveModel,
    corpus: Vec<Evidence>,
}

impl LiteratureAgent {
    /// Create with a pre-seeded corpus (the "published record").
    pub fn new(model: CognitiveModel, corpus: Vec<Evidence>) -> Self {
        LiteratureAgent { model, corpus }
    }

    /// Corpus size.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Survey the literature: return the top-`n` prior results by reported
    /// score (a real survey would rank by relevance; score is our proxy).
    pub fn survey(&mut self, n: usize) -> Vec<Evidence> {
        let _ = self
            .model
            .complete("survey literature", 32, evoflow_cogsim::SCIENCE_LEXICON);
        let mut sorted = self.corpus.clone();
        sorted.sort_by(|a, b| b.score.total_cmp(&a.score));
        sorted.truncate(n);
        sorted
    }
}

/// An executable experiment plan produced by the design agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// The validated candidate.
    pub params: Vec<f64>,
    /// Characterization repetitions (more for low-confidence hypotheses).
    pub repetitions: u32,
    /// Synthesis anneal time (scales first parameter).
    pub anneal: SimDuration,
}

/// Why a candidate was rejected by validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidationError {
    /// A coordinate left the physical design space.
    OutOfBounds {
        /// Offending dimension.
        dim: usize,
        /// Offending value.
        value: f64,
    },
    /// Dimensionality mismatch.
    WrongDimension {
        /// Expected dimension.
        expected: usize,
        /// Received dimension.
        got: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::OutOfBounds { dim, value } => {
                write!(f, "parameter {dim} = {value} outside [0,1]")
            }
            ValidationError::WrongDimension { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Turns validated hypotheses into executable plans (Fig 4 "Exp. Design
/// Agent") — and *rejects* physically impossible ones (§4.1: "Discoveries
/// must be physically realizable").
#[derive(Debug)]
pub struct DesignAgent {
    dim: usize,
    rejected: u64,
}

impl DesignAgent {
    /// Create for a `dim`-dimensional design space.
    pub fn new(dim: usize) -> Self {
        DesignAgent { dim, rejected: 0 }
    }

    /// Proposals rejected so far (hallucination guardrail hits).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Validate and plan an experiment for `candidate`.
    pub fn design(&mut self, candidate: &Candidate) -> Result<ExperimentPlan, ValidationError> {
        if candidate.params.len() != self.dim {
            self.rejected += 1;
            return Err(ValidationError::WrongDimension {
                expected: self.dim,
                got: candidate.params.len(),
            });
        }
        for (i, v) in candidate.params.iter().enumerate() {
            if !(0.0..=1.0).contains(v) {
                self.rejected += 1;
                return Err(ValidationError::OutOfBounds { dim: i, value: *v });
            }
        }
        let repetitions = if candidate.confidence < 0.5 { 3 } else { 1 };
        // A 0-d design space has no first parameter: the shortest anneal.
        let first = candidate.params.first().copied().unwrap_or(0.0);
        let anneal = SimDuration::from_mins(20 + (first * 40.0) as u64);
        Ok(ExperimentPlan {
            params: candidate.params.clone(),
            repetitions,
            anneal,
        })
    }
}

/// Interprets results and maintains the campaign's surrogate understanding
/// (Fig 4 "Analysis Agent").
#[derive(Debug)]
pub struct AnalysisAgent {
    surrogate: RbfSurrogate,
    /// Candidate/score/accumulator buffers for the batched acquisition
    /// pass, reused across proposals. Scoring borrows them for one call
    /// at a time, so the `RefCell` never contends.
    scratch: RefCell<ScoreScratch>,
}

impl AnalysisAgent {
    /// Create with the given surrogate bandwidth.
    pub fn new(bandwidth: f64) -> Self {
        AnalysisAgent {
            surrogate: RbfSurrogate::new(bandwidth),
            scratch: RefCell::default(),
        }
    }

    /// Number of assimilated observations.
    pub fn observations(&self) -> usize {
        self.surrogate.len()
    }

    /// Fold a measurement into the model. The surrogate minimizes, so the
    /// score is negated internally (campaign scores are
    /// higher-is-better).
    pub fn assimilate(&mut self, params: &[f64], score: f64) {
        self.surrogate.observe(params, -score);
    }

    /// Predicted `(score, uncertainty)` at a point.
    pub fn predict(&self, params: &[f64]) -> (f64, f64) {
        let (neg, unc) = self.surrogate.predict(params);
        (-neg, unc)
    }

    /// [`predict`](Self::predict) for a flat stride-`dim` batch of points
    /// in one pass over the surrogate's observations, appending one
    /// `(score, uncertainty)` pair per point to `out`. Bit-identical to
    /// per-point `predict`.
    pub fn predict_batch(&self, dim: usize, params: &[f64], out: &mut Vec<(f64, f64)>) {
        let start = out.len();
        let mut scratch = self.scratch.borrow_mut();
        self.surrogate
            .predict_batch_with(dim, params, &mut scratch.acc, out);
        for p in &mut out[start..] {
            p.0 = -p.0;
        }
    }

    /// Active-learning recommendation: the best of `n_candidates` random
    /// points under an exploration-weighted acquisition. The pool is
    /// drawn first (same RNG order as scoring inline — scoring consumes
    /// no randomness), scored in one batched pass over the observations,
    /// and the first maximal score wins, matching the naive scan.
    pub fn recommend(&self, dim: usize, n_candidates: usize, rng: &mut SimRng) -> Vec<f64> {
        if dim == 0 {
            return Vec::new();
        }
        let n = n_candidates.max(1);
        let mut scratch = self.scratch.borrow_mut();
        let ScoreScratch {
            candidates,
            scores,
            acc,
        } = &mut *scratch;
        candidates.clear();
        for _ in 0..n {
            for _ in 0..dim {
                candidates.push(rng.uniform());
            }
        }
        scores.clear();
        self.surrogate
            .score_batch_with(dim, candidates, 0.6, acc, scores);
        let mut bi = 0;
        for (j, s) in scores.iter().enumerate().skip(1) {
            if *s > scores[bi] {
                bi = j;
            }
        }
        candidates[bi * dim..(bi + 1) * dim].to_vec()
    }
}

/// A reflection pass's verdict on one candidate hypothesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Critique {
    /// Surrogate-predicted score at the candidate.
    pub predicted: f64,
    /// Prediction uncertainty at the candidate.
    pub uncertainty: f64,
    /// Euclidean distance to the nearest already-confirmed discovery
    /// region (`f64::INFINITY` when nothing has been discovered yet).
    pub novelty: f64,
    /// The candidate's confidence after reflection.
    pub adjusted_confidence: f64,
}

/// Critiques candidate hypotheses before any instrument time is spent
/// (the ensemble's "reflection" role): grounds each candidate in the
/// analysis agent's surrogate and in the archive of confirmed
/// discoveries, boosting hypotheses that chase *new* regions and
/// demoting re-derivations of what the campaign already knows.
#[derive(Debug, Clone)]
pub struct ReflectorAgent {
    /// Radius under which a candidate counts as re-deriving a known
    /// discovery region.
    pub rederivation_radius: f64,
}

impl ReflectorAgent {
    /// Create with the given re-derivation radius.
    pub fn new(rederivation_radius: f64) -> Self {
        ReflectorAgent {
            rederivation_radius: rederivation_radius.max(0.0),
        }
    }

    /// Critique one candidate against the campaign's surrogate
    /// understanding and the archive of confirmed discovery regions.
    pub fn critique(
        &self,
        candidate: &Candidate,
        analysis: &AnalysisAgent,
        discovered: &[Vec<f64>],
    ) -> Critique {
        let (predicted, uncertainty) = analysis.predict(&candidate.params);
        self.critique_scored(candidate, predicted, uncertainty, discovered)
    }

    /// [`critique`](Self::critique) with the surrogate prediction already
    /// in hand — the batched path: callers score a whole candidate pool
    /// via [`AnalysisAgent::predict_batch`] and feed each pair in here,
    /// so the tournament's predictions come from one pass over the
    /// observations instead of one scan per candidate.
    pub fn critique_scored(
        &self,
        candidate: &Candidate,
        predicted: f64,
        uncertainty: f64,
        discovered: &[Vec<f64>],
    ) -> Critique {
        let novelty = discovered
            .iter()
            .map(|region| {
                region
                    .iter()
                    .zip(&candidate.params)
                    .map(|(a, b)| (a - b).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        let mut adjusted_confidence = candidate.confidence;
        if novelty <= self.rederivation_radius {
            // Re-deriving a confirmed discovery adds nothing distinct.
            adjusted_confidence *= 0.25;
        } else if uncertainty > 0.5 {
            // Far from everything measured: genuinely novel territory.
            adjusted_confidence = (adjusted_confidence + 0.1).min(1.0);
        }
        Critique {
            predicted,
            uncertainty,
            novelty,
            adjusted_confidence: adjusted_confidence.clamp(0.0, 1.0),
        }
    }
}

/// Maintains the knowledge graph and provenance (Fig 4 "Librarian Agent").
#[derive(Debug, Default)]
pub struct LibrarianAgent {
    /// The campaign knowledge graph.
    pub kg: KnowledgeGraph,
    /// The campaign provenance store.
    pub prov: ProvenanceStore,
    counter: u64,
}

impl LibrarianAgent {
    /// Knowledge-graph nodes each [`record_iteration`](Self::record_iteration)
    /// call adds: fresh hypothesis, experiment and result keys.
    pub const NODES_PER_ITERATION: usize = 3;
    /// Provenance activities each `record_iteration` call adds: the
    /// reasoning step and the experiment.
    pub const ACTIVITIES_PER_ITERATION: usize = 2;
    /// Provenance entities each `record_iteration` call adds: the
    /// hypothesis and the result.
    pub const ENTITIES_PER_ITERATION: usize = 2;

    /// Create an empty librarian.
    pub fn new() -> Self {
        let mut l = LibrarianAgent::default();
        l.prov.register_agent("hypothesis-agent", true);
        l.prov.register_agent("facility", false);
        l
    }

    /// Record one campaign iteration: hypothesis → experiment → result,
    /// with full provenance including the AI reasoning trace. Of the
    /// proposal it reads only the hypothesis's `rationale` and whether it
    /// was `hallucinated` (the trace's flag). Every call
    /// grows the stores by exactly [`NODES_PER_ITERATION`](Self::NODES_PER_ITERATION),
    /// [`ACTIVITIES_PER_ITERATION`](Self::ACTIVITIES_PER_ITERATION) and
    /// [`ENTITIES_PER_ITERATION`](Self::ENTITIES_PER_ITERATION), so a
    /// count of calls is a count of records.
    /// Returns the knowledge-graph key of the result node.
    pub fn record_iteration(
        &mut self,
        rationale: &str,
        hallucinated: bool,
        measured_score: f64,
        usage: TokenUsage,
        success_threshold: f64,
    ) -> String {
        self.counter += 1;
        let id = self.counter;
        let hyp_key = format!("hypothesis/{id}");
        let exp_key = format!("experiment/{id}");
        let res_key = format!("result/{id}");

        self.kg.upsert_node(&hyp_key, NodeKind::Hypothesis);
        self.kg.set_prop(&hyp_key, "rationale", rationale);
        self.kg.upsert_node(&exp_key, NodeKind::Experiment);
        self.kg.upsert_node(&res_key, NodeKind::Result);
        self.kg
            .set_prop(&res_key, "score", format!("{measured_score:.4}"));
        self.kg.link(&hyp_key, Relation::TestedBy, &exp_key);
        self.kg.link(&exp_key, Relation::Produced, &res_key);
        let rel = if measured_score >= success_threshold {
            Relation::Supports
        } else {
            Relation::Refutes
        };
        self.kg.link(&res_key, rel, &hyp_key);

        // Provenance: reasoning -> hypothesis entity -> experiment -> result.
        let think = self.prov.record_reasoning(
            format!("propose {hyp_key}"),
            "hypothesis-agent",
            vec![],
            ReasoningTrace {
                model: "cogsim".into(),
                prompt_digest: evoflow_sim::fnv1a(rationale.as_bytes()),
                input_tokens: usage.input_tokens,
                output_tokens: usage.output_tokens,
                flagged: hallucinated,
            },
        );
        let hyp_e = self.prov.record_entity(&hyp_key, Some(think));
        let exp_a = self.prov.record_activity(
            format!("execute {exp_key}"),
            ActivityKind::PhysicalExperiment,
            "facility",
            vec![hyp_e],
        );
        self.prov.record_entity(&res_key, Some(exp_a));
        res_key
    }

    /// Hypotheses currently net-supported by evidence.
    pub fn supported_hypotheses(&self) -> usize {
        self.kg
            .nodes_of_kind(NodeKind::Hypothesis)
            .iter()
            .filter(|n| self.kg.support_score(&n.key) > 0)
            .count()
    }
}

/// The campaign-level Ω: watches discovery yield and rewrites strategy
/// (Fig 4 "Meta Optimization Agent").
#[derive(Debug, Clone)]
pub struct MetaOptimizerAgent {
    window: Vec<f64>,
    window_cap: usize,
    /// Number of strategy rewrites issued.
    pub rewrites: u32,
}

/// The campaign strategy knobs Ω may rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Strategy {
    /// Hypothesis-agent exploration ratio.
    pub explore_ratio: f64,
    /// Candidates per iteration.
    pub batch_size: usize,
    /// Whether to splice the analysis agent's recommendation into each
    /// batch (active learning on/off).
    pub use_recommendations: bool,
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy {
            explore_ratio: 0.4,
            batch_size: 4,
            use_recommendations: false,
        }
    }
}

impl MetaOptimizerAgent {
    /// Create with a yield window of `window_cap` iterations.
    pub fn new(window_cap: usize) -> Self {
        MetaOptimizerAgent {
            window: Vec::new(),
            window_cap: window_cap.max(2),
            rewrites: 0,
        }
    }

    /// Report an iteration's yield (discoveries per experiment); returns a
    /// rewritten strategy when the current one has stalled.
    pub fn review(&mut self, iteration_yield: f64, current: Strategy) -> Option<Strategy> {
        if self.window.len() == self.window_cap {
            self.window.remove(0);
        }
        self.window.push(iteration_yield);
        if self.window.len() < self.window_cap {
            return None;
        }
        let half = self.window_cap / 2;
        let early: f64 = self.window[..half].iter().sum::<f64>() / half as f64;
        let late: f64 = self.window[half..].iter().sum::<f64>() / (self.window.len() - half) as f64;

        // Stall: late yield no better than early. Rewrite: first switch on
        // active learning, then push exploration up, then widen the batch.
        if late <= early && late < 0.5 {
            self.rewrites += 1;
            self.window.clear();
            let mut next = current;
            if !current.use_recommendations {
                next.use_recommendations = true;
            } else if current.explore_ratio < 0.7 {
                next.explore_ratio = (current.explore_ratio + 0.15).min(0.9);
            } else {
                next.batch_size = (current.batch_size + 2).min(16);
            }
            return Some(next);
        }
        None
    }
}

/// Represents a facility in negotiations (Fig 2 "Facility Agents"):
/// answers capability interrogations with an ETA bid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FacilityAgent {
    /// Facility this agent speaks for.
    pub facility: String,
    /// Capability it can execute.
    pub capability: String,
    /// Current queue backlog, hours.
    pub backlog_hours: f64,
    /// Facility throughput multiplier (1.0 = nominal).
    pub speed: f64,
}

/// A bid returned from facility-agent negotiation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bid {
    /// Bidding facility.
    pub facility: String,
    /// Estimated completion, hours from now.
    pub eta_hours: f64,
}

impl FacilityAgent {
    /// Answer a request for `task_hours` of work on `capability`;
    /// `None` when the capability doesn't match.
    pub fn bid(&self, capability: &str, task_hours: f64) -> Option<Bid> {
        if self.capability != capability {
            return None;
        }
        Some(Bid {
            facility: self.facility.clone(),
            eta_hours: self.backlog_hours + task_hours / self.speed,
        })
    }

    /// Accept work, growing the backlog.
    pub fn accept(&mut self, task_hours: f64) {
        self.backlog_hours += task_hours / self.speed;
    }
}

/// Pick the best bid for a task among facility agents (the "dynamic
/// matchmaking" of §5.1).
pub fn negotiate(agents: &[FacilityAgent], capability: &str, task_hours: f64) -> Option<Bid> {
    agents
        .iter()
        .filter_map(|a| a.bid(capability, task_hours))
        .min_by(|a, b| a.eta_hours.partial_cmp(&b.eta_hours).expect("finite etas"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoflow_cogsim::ModelProfile;

    fn clean_model(seed: u64) -> CognitiveModel {
        let mut p = ModelProfile::reasoning_lrm();
        p.hallucination_rate = 0.0;
        CognitiveModel::new(p, seed)
    }

    #[test]
    fn hypothesis_agent_exploits_best_evidence() {
        let mut h = HypothesisAgent::new(clean_model(1), 3);
        h.explore_ratio = 0.0;
        let evidence = vec![
            Evidence {
                params: vec![0.2, 0.2, 0.2],
                score: 0.1,
            },
            Evidence {
                params: vec![0.8, 0.8, 0.8],
                score: 0.9,
            },
        ];
        let cands = h.propose(&evidence, 20);
        assert_eq!(cands.len(), 20);
        let mean_d: f64 = cands
            .iter()
            .map(|c| c.params.iter().map(|v| (v - 0.8).abs()).sum::<f64>())
            .sum::<f64>()
            / 20.0;
        assert!(mean_d < 0.6, "mean distance to anchor {mean_d}");
        assert!(h.usage().total() > 0);
    }

    #[test]
    fn hypothesis_agent_explores_without_evidence() {
        let mut h = HypothesisAgent::new(clean_model(2), 2);
        let cands = h.propose(&[], 8);
        assert!(cands.iter().all(|c| c.params.len() == 2));
        assert!(cands.iter().all(|c| !c.hallucinated));
    }

    #[test]
    fn design_agent_rejects_hallucinations() {
        let mut d = DesignAgent::new(2);
        let bad = Candidate {
            params: vec![1.7, 0.4],
            rationale: "fabricated".into(),
            confidence: 0.9,
            hallucinated: true,
        };
        assert_eq!(
            d.design(&bad).unwrap_err(),
            ValidationError::OutOfBounds { dim: 0, value: 1.7 }
        );
        let wrong_dim = Candidate {
            params: vec![0.5],
            rationale: "".into(),
            confidence: 0.5,
            hallucinated: false,
        };
        assert!(matches!(
            d.design(&wrong_dim).unwrap_err(),
            ValidationError::WrongDimension {
                expected: 2,
                got: 1
            }
        ));
        assert_eq!(d.rejected(), 2);
    }

    #[test]
    fn design_agent_scales_repetitions_with_confidence() {
        let mut d = DesignAgent::new(1);
        let unsure = Candidate {
            params: vec![0.5],
            rationale: "".into(),
            confidence: 0.3,
            hallucinated: false,
        };
        assert_eq!(d.design(&unsure).unwrap().repetitions, 3);
        let confident = Candidate {
            confidence: 0.9,
            ..unsure
        };
        assert_eq!(d.design(&confident).unwrap().repetitions, 1);
    }

    #[test]
    fn analysis_agent_learns_the_landscape() {
        let mut a = AnalysisAgent::new(0.15);
        for i in 0..20 {
            let x = i as f64 / 19.0;
            // True score peaks at x = 0.7.
            let score = 1.0 - (x - 0.7).abs();
            a.assimilate(&[x], score);
        }
        let (near_peak, _) = a.predict(&[0.7]);
        let (far, _) = a.predict(&[0.05]);
        assert!(near_peak > far, "peak {near_peak} far {far}");
        let mut rng = SimRng::from_seed_u64(3);
        let rec = a.recommend(1, 200, &mut rng);
        assert!(rec[0] > 0.3, "recommendation {rec:?} ignores the peak");
    }

    #[test]
    fn librarian_builds_linked_lineage() {
        let mut l = LibrarianAgent::new();
        let good = "promising dopant";
        let key = l.record_iteration(good, false, 0.9, TokenUsage::default(), 0.5);
        assert_eq!(key, "result/1");
        assert_eq!(l.kg.node_count(), 3);
        assert_eq!(l.supported_hypotheses(), 1);
        l.record_iteration(good, false, 0.1, TokenUsage::default(), 0.5);
        assert_eq!(l.supported_hypotheses(), 1); // second was refuted
        assert_eq!(l.prov.activity_count(), 4); // 2 reasoning + 2 experiments
    }

    #[test]
    fn record_iteration_grows_the_stores_by_the_per_iteration_constants() {
        let mut l = LibrarianAgent::new();
        for i in 1..=5usize {
            let rationale = if i % 2 == 0 {
                "same words".to_string()
            } else {
                format!("r{i}")
            };
            let score = i as f64 / 5.0;
            l.record_iteration(&rationale, i == 3, score, TokenUsage::default(), 0.5);
            assert_eq!(l.kg.node_count(), i * LibrarianAgent::NODES_PER_ITERATION);
            assert_eq!(
                l.prov.activity_count(),
                i * LibrarianAgent::ACTIVITIES_PER_ITERATION
            );
            assert_eq!(
                l.prov.entity_count(),
                i * LibrarianAgent::ENTITIES_PER_ITERATION
            );
        }
    }

    #[test]
    fn meta_optimizer_rewrites_on_stall() {
        let mut m = MetaOptimizerAgent::new(4);
        let s0 = Strategy::default();
        // Flat zero yield: stalled.
        assert!(m.review(0.0, s0).is_none()); // window filling
        assert!(m.review(0.0, s0).is_none());
        assert!(m.review(0.0, s0).is_none());
        let s1 = m.review(0.0, s0).expect("stall detected");
        assert!(s1.use_recommendations);
        assert_eq!(m.rewrites, 1);
        // Improving yield: no rewrite.
        for y in [0.1, 0.2, 0.6, 0.9] {
            assert!(m.review(y, s1).is_none());
        }
    }

    #[test]
    fn meta_optimizer_escalates_rewrites() {
        let mut m = MetaOptimizerAgent::new(2);
        let mut s = Strategy::default();
        for _ in 0..3 {
            for _ in 0..2 {
                if let Some(next) = m.review(0.0, s) {
                    s = next;
                }
            }
        }
        assert!(s.use_recommendations);
        assert!(s.explore_ratio > Strategy::default().explore_ratio);
        assert!(m.rewrites >= 2);
    }

    #[test]
    fn reflector_demotes_rederivations_and_rewards_novelty() {
        let mut a = AnalysisAgent::new(0.15);
        for i in 0..10 {
            let x = i as f64 / 9.0;
            a.assimilate(&[x, 0.5], 0.5);
        }
        let r = ReflectorAgent::new(0.15);
        let near_known = Candidate {
            params: vec![0.31, 0.52],
            rationale: "re-derivation".into(),
            confidence: 0.8,
            hallucinated: false,
        };
        let discovered = vec![vec![0.3, 0.5]];
        let c1 = r.critique(&near_known, &a, &discovered);
        assert!(c1.novelty < 0.15, "novelty {}", c1.novelty);
        assert!(c1.adjusted_confidence < 0.8 * 0.5, "{c1:?}");

        let fresh = Candidate {
            params: vec![0.9, 0.05],
            ..near_known.clone()
        };
        let c2 = r.critique(&fresh, &a, &discovered);
        assert!(c2.novelty > c1.novelty);
        assert!(c2.adjusted_confidence >= near_known.confidence, "{c2:?}");

        // Empty archive: nothing can be a re-derivation.
        let c3 = r.critique(&near_known, &a, &[]);
        assert!(c3.novelty.is_infinite());
        assert!(c3.adjusted_confidence >= 0.8);
    }

    #[test]
    fn facility_negotiation_picks_fastest() {
        let agents = vec![
            FacilityAgent {
                facility: "lab-a".into(),
                capability: "synthesis/thin-film".into(),
                backlog_hours: 10.0,
                speed: 1.0,
            },
            FacilityAgent {
                facility: "lab-b".into(),
                capability: "synthesis/thin-film".into(),
                backlog_hours: 2.0,
                speed: 0.5,
            },
            FacilityAgent {
                facility: "hpc".into(),
                capability: "simulation/dft".into(),
                backlog_hours: 0.0,
                speed: 4.0,
            },
        ];
        let bid = negotiate(&agents, "synthesis/thin-film", 2.0).unwrap();
        assert_eq!(bid.facility, "lab-b"); // 2 + 2/0.5 = 6 < 10 + 2
        assert!(negotiate(&agents, "quantum/annealing", 1.0).is_none());
    }

    #[test]
    fn accepting_work_grows_backlog() {
        let mut a = FacilityAgent {
            facility: "lab".into(),
            capability: "synthesis/thin-film".into(),
            backlog_hours: 0.0,
            speed: 2.0,
        };
        a.accept(4.0);
        assert_eq!(a.backlog_hours, 2.0);
        assert_eq!(a.bid("synthesis/thin-film", 2.0).unwrap().eta_hours, 3.0);
    }
}
