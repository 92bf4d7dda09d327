//! The pluggable Planner layer: Table 1's *decide* step as a first-class,
//! swappable component of the discovery loop.
//!
//! The paper's central axis is the intelligence level of the decide step —
//! static grid → adaptive → learning → optimizing → intelligent. Before
//! this layer existed, that axis was an inlined `match` inside
//! [`run_campaign`](crate::campaign::run_campaign); now every level (and
//! every optimizer in `evoflow-learn`) is a [`Planner`]: a policy that
//! proposes a batch of [`Candidate`]s, from its own state and, if it asks,
//! the campaign-wide best so far, and observes measured outcomes back.
//!
//! | Table 1 level | default planner | machinery |
//! |---|---|---|
//! | Static | [`GridPlanner`] | lazy deterministic grid walk |
//! | Adaptive | [`AdaptivePlanner`] | re-sample near the last hit |
//! | Learning | [`EvidencePlanner`] | Gaussian proposals around the campaign-wide best |
//! | Optimizing | [`SurrogatePlanner`] | RBF surrogate + acquisition (`evoflow-learn`) |
//! | Intelligent | [`AgenticPlanner`] | hypothesis agent + validation gate + Ω |
//!
//! Beyond the defaults, any cell may override its planner through
//! [`CampaignConfig::planner`](crate::campaign::CampaignConfig::planner):
//! [`BanditPlanner`] (UCB1/Thompson over region arms), [`SwarmPlanner`]
//! (particle swarm), and [`MetaPlanner`] (a bandit over a pool of
//! planners, with [`MetaOptimizerAgent`] widening exploration on stall —
//! Ω selecting δ).
//!
//! Planners draw all randomness from the campaign's seeded decision
//! stream (plus registry-derived streams for embedded cognitive models),
//! so a campaign remains a pure function of `(space, config, seed)` no
//! matter which planner runs — the property every determinism and fleet
//! resume guarantee rests on.

use crate::domain::MaterialsSpace;
use crate::ledger::CampaignEvent;
use evoflow_agents::{
    AnalysisAgent, Candidate, DesignAgent, Evidence, HypothesisAgent, MetaOptimizerAgent, Strategy,
};
use evoflow_cogsim::{CognitiveModel, ModelProfile, TokenUsage};
use evoflow_learn::{BanditPolicy, PsoConfig, ThompsonBeta, Ucb1};
use evoflow_sim::{RngRegistry, SimRng};
use evoflow_sm::IntelligenceLevel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

mod ensemble;

pub use ensemble::{EnsemblePlanner, DEFAULT_SPECIALISTS};

/// Observations kept in a planner's surrogate (recent + every hit).
pub const SURROGATE_CAP: usize = 800;

/// Everything a planner may consult while proposing one batch.
pub struct PlanCtx<'a> {
    /// Design-space dimensionality.
    pub dim: usize,
    /// Index of the lane requesting the batch.
    pub lane: usize,
    /// The campaign's seeded decision stream.
    pub rng: &'a mut SimRng,
    /// The campaign-wide best evidence so far, the same for every lane
    /// under every composition. Only populated when
    /// [`Planner::wants_anchor`] returns true.
    pub anchor: Option<&'a Evidence>,
    /// Candidates the planner scored against a surrogate model while
    /// serving this call. Planners bump it whenever they run an
    /// acquisition or prediction batch; the campaign folds it into the
    /// `propose.score` sub-phase counter. Purely a function of the
    /// planner's (deterministic) decisions — never of wall-clock.
    pub scored: u64,
}

/// One measured outcome fed back to the planner.
pub struct Observation<'a> {
    /// Lane that executed the experiment.
    pub lane: usize,
    /// Design point measured.
    pub params: &'a [f64],
    /// Measured figure of merit.
    pub score: f64,
    /// Whether the measurement crossed the discovery threshold.
    pub hit: bool,
}

/// Planner-side counters folded into the final
/// [`CampaignReport`](crate::campaign::CampaignReport).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerTelemetry {
    /// Proposals rejected by a validation gate.
    pub rejected_proposals: u64,
    /// Ω strategy/selector rewrites issued.
    pub omega_rewrites: u32,
}

/// A decision policy for the discovery loop: propose candidates, observe
/// outcomes. Implementations must be deterministic functions of their
/// construction inputs and the draws they take from [`PlanCtx::rng`].
pub trait Planner {
    /// Short stable name (used in labels and benches).
    fn name(&self) -> &'static str;

    /// Whether [`PlanCtx::anchor`] should be computed for this planner.
    fn wants_anchor(&self) -> bool {
        false
    }

    /// Batch-size override (`None` ⇒ the campaign's `batch_per_lane`).
    /// Lets self-rewriting planners widen their own batches.
    fn batch_size(&self) -> Option<usize> {
        None
    }

    /// Propose up to `batch` candidates into `out`. Proposing fewer is
    /// allowed (validation gates reject); proposals cost only decision
    /// time.
    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>);

    /// Feed one measured outcome back into the policy.
    fn observe(&mut self, obs: &Observation<'_>);

    /// Called once after each batch executes, with the number of
    /// candidates actually run and the hits among them.
    fn end_iteration(&mut self, _executed: usize, _hits: u64) {}

    /// Whether the librarian should record KG nodes + provenance for
    /// this planner's iterations (the Intelligent level's duty).
    fn records_knowledge(&self) -> bool {
        false
    }

    /// Counters for the campaign report.
    fn telemetry(&self) -> PlannerTelemetry {
        PlannerTelemetry::default()
    }

    /// Lifetime token usage of any embedded cognitive models.
    fn token_usage(&self) -> TokenUsage {
        TokenUsage::default()
    }

    /// Move any cooperative-transcript events the planner produced since
    /// the last drain into `out`, in production order.
    ///
    /// The campaign loop drains after every [`end_iteration`]
    /// (discarding when unobserved, ledgering when observed), so a
    /// planner must *always* build its transcript the same way —
    /// emission may never feed back into its decisions, or replay
    /// byte-identity between observed and unobserved runs breaks.
    ///
    /// [`end_iteration`]: Self::end_iteration
    fn drain_events(&mut self, _out: &mut Vec<CampaignEvent>) {}
}

/// Which bandit drives a [`BanditPlanner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BanditKind {
    /// UCB1 (optimism in the face of uncertainty).
    Ucb1,
    /// Thompson sampling with Beta posteriors.
    Thompson,
}

/// Serializable planner selection, carried by
/// [`CampaignConfig::planner`](crate::campaign::CampaignConfig::planner).
///
/// `None` in the config means "the default for the cell's intelligence
/// level" ([`PlannerKind::for_level`]); any cell is free to override.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlannerKind {
    /// Predetermined grid walk, blind to results (Static).
    Grid,
    /// Random sampling that re-samples near the lane's last hit (Adaptive).
    Adaptive,
    /// Gaussian proposals around the campaign-wide best (Learning).
    Evidence,
    /// RBF-surrogate acquisition over random candidates (Optimizing).
    Surrogate,
    /// The full agent stack: hypothesis + validation gate + Ω (Intelligent).
    Agentic,
    /// A multi-armed bandit over region arms of the design cube.
    Bandit {
        /// Bandit algorithm.
        policy: BanditKind,
        /// Regions per dimension (arms = `regions_per_dim^dim`).
        regions_per_dim: usize,
    },
    /// Particle-swarm search over the design cube.
    Swarm {
        /// Swarm size.
        particles: usize,
    },
    /// Ω over δ: a UCB1 bandit selects among a pool of planners each
    /// iteration, with the meta-optimizer widening exploration on stall.
    Meta {
        /// Candidate planners (must be non-empty; nested `Meta` is
        /// flattened away at build time).
        pool: Vec<PlannerKind>,
    },
    /// Cooperative specialist ensemble: generator / reflector / ranker /
    /// evolver / meta-reviewer exchanging ACL messages, with hypotheses
    /// ranked by seeded pairwise tournament ([`EnsemblePlanner`]).
    Ensemble {
        /// Hypotheses each of the generator and evolver contribute per
        /// tournament pool (pool size is `2 × specialists`).
        specialists: usize,
    },
}

impl PlannerKind {
    /// The default planner for an intelligence level — the Table 1 row.
    pub fn for_level(level: IntelligenceLevel) -> Self {
        match level {
            IntelligenceLevel::Static => PlannerKind::Grid,
            IntelligenceLevel::Adaptive => PlannerKind::Adaptive,
            IntelligenceLevel::Learning => PlannerKind::Evidence,
            IntelligenceLevel::Optimizing => PlannerKind::Surrogate,
            IntelligenceLevel::Intelligent => PlannerKind::Agentic,
        }
    }

    /// A UCB1 bandit over 3 regions per dimension.
    pub fn bandit() -> Self {
        PlannerKind::Bandit {
            policy: BanditKind::Ucb1,
            regions_per_dim: 3,
        }
    }

    /// A default swarm of 24 particles.
    pub fn swarm() -> Self {
        PlannerKind::Swarm { particles: 24 }
    }

    /// The default meta pool: evidence exploitation, surrogate
    /// acquisition, and a region bandit, arbitrated by UCB1.
    pub fn meta() -> Self {
        PlannerKind::Meta {
            pool: vec![
                PlannerKind::Evidence,
                PlannerKind::Surrogate,
                PlannerKind::bandit(),
            ],
        }
    }

    /// The default cooperative ensemble
    /// ([`DEFAULT_SPECIALISTS`] hypotheses per specialist source).
    pub fn ensemble() -> Self {
        PlannerKind::Ensemble {
            specialists: DEFAULT_SPECIALISTS,
        }
    }

    /// Every concrete (non-meta) planner kind, for exhaustive sweeps.
    /// Composite kinds ([`Meta`](Self::Meta), [`Ensemble`](Self::Ensemble))
    /// are excluded and joined explicitly where a sweep wants them.
    pub fn all_concrete() -> Vec<PlannerKind> {
        vec![
            PlannerKind::Grid,
            PlannerKind::Adaptive,
            PlannerKind::Evidence,
            PlannerKind::Surrogate,
            PlannerKind::Agentic,
            PlannerKind::Bandit {
                policy: BanditKind::Ucb1,
                regions_per_dim: 3,
            },
            PlannerKind::Bandit {
                policy: BanditKind::Thompson,
                regions_per_dim: 3,
            },
            PlannerKind::swarm(),
        ]
    }

    /// Short stable label for this kind (matches [`Planner::name`]).
    pub fn label(&self) -> &'static str {
        match self {
            PlannerKind::Grid => "grid",
            PlannerKind::Adaptive => "adaptive",
            PlannerKind::Evidence => "evidence",
            PlannerKind::Surrogate => "surrogate",
            PlannerKind::Agentic => "agentic",
            PlannerKind::Bandit {
                policy: BanditKind::Ucb1,
                ..
            } => "bandit-ucb1",
            PlannerKind::Bandit {
                policy: BanditKind::Thompson,
                ..
            } => "bandit-thompson",
            PlannerKind::Swarm { .. } => "swarm",
            PlannerKind::Meta { .. } => "meta",
            PlannerKind::Ensemble { .. } => "ensemble",
        }
    }

    /// Fully distinguishing label: the [`label`](Self::label) plus every
    /// parameter that changes the policy. Used in campaign cell labels so
    /// fleet aggregation never folds differently-configured planners
    /// (e.g. `Swarm {particles: 8}` vs `{particles: 64}`) into one
    /// summary row.
    pub fn descriptor(&self) -> String {
        match self {
            PlannerKind::Bandit {
                regions_per_dim, ..
            } => format!("{}(r{regions_per_dim})", self.label()),
            PlannerKind::Swarm { particles } => format!("swarm(n{particles})"),
            PlannerKind::Meta { pool } => {
                let inner: Vec<String> = pool.iter().map(|k| k.descriptor()).collect();
                format!("meta[{}]", inner.join("+"))
            }
            PlannerKind::Ensemble { specialists } => format!("ensemble(s{specialists})"),
            _ => self.label().to_string(),
        }
    }

    /// Build the planner for a campaign.
    pub fn build(&self, b: &PlannerBuild<'_>) -> Box<dyn Planner> {
        match self {
            PlannerKind::Grid => Box::new(GridPlanner::new(
                b.dim,
                b.n_lanes,
                b.shares_globally || b.n_lanes == 1,
            )),
            PlannerKind::Adaptive => Box::new(AdaptivePlanner::new(b.n_lanes)),
            PlannerKind::Evidence => Box::new(EvidencePlanner),
            PlannerKind::Surrogate => Box::new(SurrogatePlanner::new(b.space.threshold)),
            PlannerKind::Agentic => Box::new(AgenticPlanner::new(b)),
            PlannerKind::Bandit {
                policy,
                regions_per_dim,
            } => Box::new(BanditPlanner::new(
                *policy,
                (*regions_per_dim).max(2),
                b.dim,
            )),
            PlannerKind::Swarm { particles } => {
                Box::new(SwarmPlanner::new((*particles).max(2), PsoConfig::default()))
            }
            PlannerKind::Meta { pool } => {
                // Flatten nested metas: a bandit over bandits-over-pools
                // adds indirection without adding policies.
                let mut kinds: Vec<PlannerKind> = Vec::new();
                for k in pool {
                    match k {
                        PlannerKind::Meta { pool: inner } => kinds.extend(inner.iter().cloned()),
                        other => kinds.push(other.clone()),
                    }
                }
                if kinds.is_empty() {
                    kinds.push(PlannerKind::Evidence);
                }
                let children = kinds.iter().map(|k| k.build(b)).collect();
                Box::new(MetaPlanner::new(children))
            }
            PlannerKind::Ensemble { specialists } => {
                Box::new(EnsemblePlanner::new((*specialists).max(1), b))
            }
        }
    }
}

/// Construction inputs shared by every planner.
pub struct PlannerBuild<'a> {
    /// The landscape under exploration (threshold, literature corpus).
    pub space: &'a MaterialsSpace,
    /// The campaign's RNG registry (for embedded cognitive models).
    pub reg: &'a RngRegistry,
    /// Campaign master seed.
    pub seed: u64,
    /// Design-space dimensionality.
    pub dim: usize,
    /// Configured candidates per iteration per lane.
    pub batch_per_lane: usize,
    /// Number of parallel lanes.
    pub n_lanes: usize,
    /// Whether the composition pools its lanes (pipeline, manager,
    /// mesh): the grid planner then walks one shared cursor.
    pub shares_globally: bool,
}

// ---- Static: lazy grid ------------------------------------------------------

/// Predetermined grid schedule, blind to results.
///
/// Grid points are computed lazily from the grid index (little-endian
/// digits, base `per_dim`) instead of materializing the full
/// `per_dim^dim` table of heap `Vec`s up front — identical point order,
/// O(1) memory.
pub struct GridPlanner {
    per_dim: usize,
    dim: usize,
    total: usize,
    shared: bool,
    n_lanes: usize,
    shared_cursor: usize,
    lane_cursors: Vec<usize>,
}

impl GridPlanner {
    /// Grid resolution per dimension used by the Static level.
    pub const PER_DIM: usize = 6;

    fn new(dim: usize, n_lanes: usize, shared: bool) -> Self {
        let total = Self::PER_DIM
            .checked_pow(dim as u32)
            .unwrap_or(usize::MAX)
            .max(1);
        GridPlanner {
            per_dim: Self::PER_DIM,
            dim,
            total,
            shared,
            n_lanes,
            shared_cursor: 0,
            lane_cursors: vec![0; n_lanes],
        }
    }

    /// The `idx`-th grid point (wrapping), without any lookup table.
    fn point(&self, idx: usize) -> Vec<f64> {
        let mut i = idx % self.total;
        (0..self.dim)
            .map(|_| {
                let digit = i % self.per_dim;
                i /= self.per_dim;
                digit as f64 / (self.per_dim - 1) as f64
            })
            .collect()
    }
}

impl Planner for GridPlanner {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        for _ in 0..batch {
            let idx = if self.shared {
                let i = self.shared_cursor;
                self.shared_cursor += 1;
                i
            } else {
                let i = self.lane_cursors[ctx.lane] * self.n_lanes + ctx.lane;
                self.lane_cursors[ctx.lane] += 1;
                i
            };
            out.push(Candidate {
                params: self.point(idx),
                rationale: "grid schedule".into(),
                confidence: 0.5,
                hallucinated: false,
            });
        }
    }

    fn observe(&mut self, _obs: &Observation<'_>) {}
}

// ---- Adaptive: re-sample near the last hit ----------------------------------

/// Random sampling with one feedback rule: with probability ½, re-sample
/// near the lane's most recent hit.
pub struct AdaptivePlanner {
    last_hit: Vec<Option<Vec<f64>>>,
}

impl AdaptivePlanner {
    fn new(n_lanes: usize) -> Self {
        AdaptivePlanner {
            last_hit: vec![None; n_lanes],
        }
    }
}

impl Planner for AdaptivePlanner {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        for _ in 0..batch {
            let params: Vec<f64> = match &self.last_hit[ctx.lane] {
                Some(anchor) if ctx.rng.chance(0.5) => anchor
                    .iter()
                    .map(|v| (v + ctx.rng.normal_with(0.0, 0.08)).clamp(0.0, 1.0))
                    .collect(),
                _ => (0..ctx.dim).map(|_| ctx.rng.uniform()).collect(),
            };
            out.push(Candidate {
                params,
                rationale: "adaptive sampling".into(),
                confidence: 0.5,
                hallucinated: false,
            });
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        if obs.hit {
            self.last_hit[obs.lane] = Some(obs.params.to_vec());
        }
    }
}

// ---- Learning: exploit the campaign-wide best ------------------------------

/// Gaussian proposals around the campaign-wide best so far.
pub struct EvidencePlanner;

impl Planner for EvidencePlanner {
    fn name(&self) -> &'static str {
        "evidence"
    }

    fn wants_anchor(&self) -> bool {
        true
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        let anchor = ctx.anchor.map(|e| e.params.as_slice());
        for _ in 0..batch {
            let params: Vec<f64> = match anchor {
                Some(a) if ctx.rng.chance(0.65) => a
                    .iter()
                    .map(|v| (v + ctx.rng.normal_with(0.0, 0.1)).clamp(0.0, 1.0))
                    .collect(),
                _ => (0..ctx.dim).map(|_| ctx.rng.uniform()).collect(),
            };
            out.push(Candidate {
                params,
                rationale: "evidence-anchored".into(),
                confidence: 0.6,
                hallucinated: false,
            });
        }
    }

    fn observe(&mut self, _obs: &Observation<'_>) {}
}

// ---- Optimizing: surrogate acquisition --------------------------------------

/// RBF-surrogate acquisition (`evoflow-learn`'s [`RbfSurrogate`] via the
/// analysis agent): every proposal is the argmax of an
/// exploration-weighted acquisition over random candidates.
///
/// [`RbfSurrogate`]: evoflow_learn::RbfSurrogate
pub struct SurrogatePlanner {
    analysis: AnalysisAgent,
    threshold: f64,
}

impl SurrogatePlanner {
    /// Candidates scored per acquisition scan.
    const POOL: usize = 48;

    fn new(threshold: f64) -> Self {
        SurrogatePlanner {
            analysis: AnalysisAgent::new(0.12),
            threshold,
        }
    }
}

impl Planner for SurrogatePlanner {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        for _ in 0..batch {
            out.push(Candidate {
                params: self.analysis.recommend(ctx.dim, Self::POOL, ctx.rng),
                rationale: "acquisition argmin J".into(),
                confidence: 0.7,
                hallucinated: false,
            });
            ctx.scored += Self::POOL as u64;
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        // Keep the surrogate bounded: recent observations plus every
        // near-threshold point.
        if self.analysis.observations() < SURROGATE_CAP || obs.score >= 0.8 * self.threshold {
            self.analysis.assimilate(obs.params, obs.score);
        }
    }
}

// ---- Intelligent: the full agent stack --------------------------------------

/// The Intelligent level: hypothesis agent + validation gate + active
/// learning splice, under the meta-optimizer's rewritable strategy.
pub struct AgenticPlanner {
    hypothesis: HypothesisAgent,
    design: DesignAgent,
    analysis: AnalysisAgent,
    meta: MetaOptimizerAgent,
    strategy: Strategy,
    threshold: f64,
}

impl AgenticPlanner {
    fn new(b: &PlannerBuild<'_>) -> Self {
        let hypothesis = HypothesisAgent::new(
            CognitiveModel::new(
                ModelProfile::reasoning_lrm(),
                b.reg.stream_seed("hypothesis"),
            ),
            b.dim,
        );
        let mut analysis = AnalysisAgent::new(0.12);
        // Literature bootstrap: mine the published record before the
        // first experiment runs.
        let corpus = b.space.literature_corpus(50, b.seed ^ 0xBEEF);
        let mut lit = evoflow_agents::LiteratureAgent::new(
            CognitiveModel::new(ModelProfile::fast_llm(), b.reg.stream_seed("literature")),
            corpus,
        );
        for hint in lit.survey(5) {
            analysis.assimilate(&hint.params, hint.score);
        }
        AgenticPlanner {
            hypothesis,
            design: DesignAgent::new(b.dim),
            analysis,
            meta: MetaOptimizerAgent::new(6),
            strategy: Strategy {
                batch_size: b.batch_per_lane,
                ..Strategy::default()
            },
            threshold: b.space.threshold,
        }
    }
}

impl Planner for AgenticPlanner {
    fn name(&self) -> &'static str {
        "agentic"
    }

    fn wants_anchor(&self) -> bool {
        true
    }

    fn batch_size(&self) -> Option<usize> {
        Some(self.strategy.batch_size)
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        self.hypothesis.explore_ratio = self.strategy.explore_ratio;
        let anchor = ctx.anchor.map(|e| e.params.as_slice());
        let mut proposals = self.hypothesis.propose_anchored(anchor, batch);
        if self.strategy.use_recommendations && !proposals.is_empty() {
            let rec = self
                .analysis
                .recommend(ctx.dim, SurrogatePlanner::POOL, ctx.rng);
            ctx.scored += SurrogatePlanner::POOL as u64;
            proposals[0] = Candidate {
                params: rec,
                rationale: "analysis-agent recommendation".into(),
                confidence: 0.8,
                hallucinated: false,
            };
        }
        for c in proposals {
            if self.design.design(&c).is_ok() {
                out.push(c);
            }
            // Rejected candidates cost only decision time.
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        if self.analysis.observations() < SURROGATE_CAP || obs.score >= 0.8 * self.threshold {
            self.analysis.assimilate(obs.params, obs.score);
        }
    }

    fn end_iteration(&mut self, executed: usize, hits: u64) {
        let iter_yield = hits as f64 / executed.max(1) as f64;
        if let Some(next) = self.meta.review(iter_yield, self.strategy) {
            self.strategy = next;
        }
    }

    fn records_knowledge(&self) -> bool {
        true
    }

    fn telemetry(&self) -> PlannerTelemetry {
        PlannerTelemetry {
            rejected_proposals: self.design.rejected(),
            omega_rewrites: self.meta.rewrites,
        }
    }

    fn token_usage(&self) -> TokenUsage {
        self.hypothesis.usage()
    }
}

// ---- Bandit over region arms ------------------------------------------------

/// A multi-armed bandit (`evoflow-learn`'s [`Ucb1`] / [`ThompsonBeta`])
/// over a partition of the design cube into `regions_per_dim^dim` region
/// arms: each proposal selects an arm and samples uniformly inside it;
/// each observation rewards the arm containing the measured point with
/// the clamped score.
pub struct BanditPlanner {
    policy: Box<dyn BanditPolicy>,
    label: &'static str,
    per_dim: usize,
    dim: usize,
    /// Coordinate staging buffer, reused across proposals; each
    /// candidate still owns its `params` (one clone), but digit
    /// decomposition and sampling never reallocate.
    coords: Vec<f64>,
}

impl BanditPlanner {
    fn new(kind: BanditKind, per_dim: usize, dim: usize) -> Self {
        let arms = per_dim.checked_pow(dim as u32).unwrap_or(usize::MAX).max(1);
        let (policy, label): (Box<dyn BanditPolicy>, _) = match kind {
            BanditKind::Ucb1 => (Box::new(Ucb1::new(arms)), "bandit-ucb1"),
            BanditKind::Thompson => (Box::new(ThompsonBeta::new(arms)), "bandit-thompson"),
        };
        BanditPlanner {
            policy,
            label,
            per_dim,
            dim,
            coords: Vec::with_capacity(dim),
        }
    }

    /// The region arm containing `params` (little-endian digits).
    fn arm_of(&self, params: &[f64]) -> usize {
        let mut arm = 0usize;
        let mut stride = 1usize;
        for v in params {
            let digit = ((v * self.per_dim as f64) as usize).min(self.per_dim - 1);
            arm += digit * stride;
            stride *= self.per_dim;
        }
        arm
    }
}

impl Planner for BanditPlanner {
    fn name(&self) -> &'static str {
        self.label
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        for _ in 0..batch {
            let mut arm = self.policy.select(ctx.rng);
            self.coords.clear();
            for _ in 0..self.dim {
                let digit = arm % self.per_dim;
                arm /= self.per_dim;
                self.coords
                    .push((digit as f64 + ctx.rng.uniform()) / self.per_dim as f64);
            }
            out.push(Candidate {
                params: self.coords.clone(),
                rationale: "bandit region arm".into(),
                confidence: 0.55,
                hallucinated: false,
            });
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        let arm = self.arm_of(obs.params);
        self.policy.update(arm, obs.score.clamp(0.0, 1.0));
    }
}

// ---- Particle swarm ----------------------------------------------------------

/// Particle-swarm search (Kennedy–Eberhart velocity rule, hyperparameters
/// from `evoflow-learn`'s [`PsoConfig`]): the campaign's lanes evaluate
/// particles round-robin; personal/global bests update from measured
/// scores (maximizing).
pub struct SwarmPlanner {
    cfg: PsoConfig,
    particles: usize,
    pos: Vec<Vec<f64>>,
    vel: Vec<Vec<f64>>,
    pbest: Vec<Option<(Vec<f64>, f64)>>,
    gbest: Option<(Vec<f64>, f64)>,
    cursor: usize,
    /// Particles proposed in the current batch, in execution order.
    pending: VecDeque<usize>,
}

impl SwarmPlanner {
    fn new(particles: usize, cfg: PsoConfig) -> Self {
        SwarmPlanner {
            cfg,
            particles,
            pos: Vec::new(),
            vel: Vec::new(),
            pbest: Vec::new(),
            gbest: None,
            cursor: 0,
            pending: VecDeque::new(),
        }
    }

    fn ensure_init(&mut self, dim: usize, rng: &mut SimRng) {
        if !self.pos.is_empty() {
            return;
        }
        let n = self.particles;
        self.pos = (0..n)
            .map(|_| (0..dim).map(|_| rng.uniform()).collect())
            .collect();
        self.vel = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.uniform_range(-self.cfg.v_max, self.cfg.v_max))
                    .collect()
            })
            .collect();
        self.pbest = vec![None; n];
    }
}

impl Planner for SwarmPlanner {
    fn name(&self) -> &'static str {
        "swarm"
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        self.ensure_init(ctx.dim, ctx.rng);
        // Any entries left pending from a budget-truncated batch are
        // stale — their measurements will never arrive.
        self.pending.clear();
        for _ in 0..batch {
            let i = self.cursor % self.particles;
            self.cursor += 1;
            // Move evaluated particles before re-proposing them; fresh
            // particles fly from their seeded initial positions first.
            if let Some((pb, _)) = &self.pbest[i] {
                let social = self.gbest.as_ref().map(|(g, _)| g.as_slice());
                for d in 0..ctx.dim {
                    let r1 = ctx.rng.uniform();
                    let r2 = ctx.rng.uniform();
                    let toward_g = social.map(|g| g[d]).unwrap_or(pb[d]);
                    self.vel[i][d] = (self.cfg.inertia * self.vel[i][d]
                        + self.cfg.cognitive * r1 * (pb[d] - self.pos[i][d])
                        + self.cfg.social * r2 * (toward_g - self.pos[i][d]))
                        .clamp(-self.cfg.v_max, self.cfg.v_max);
                    self.pos[i][d] = (self.pos[i][d] + self.vel[i][d]).clamp(0.0, 1.0);
                }
            }
            out.push(Candidate {
                params: self.pos[i].clone(),
                rationale: "pso particle".into(),
                confidence: 0.55,
                hallucinated: false,
            });
            self.pending.push_back(i);
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        let Some(i) = self.pending.pop_front() else {
            return;
        };
        let better_p = self.pbest[i]
            .as_ref()
            .map(|(_, v)| obs.score > *v)
            .unwrap_or(true);
        if better_p {
            self.pbest[i] = Some((obs.params.to_vec(), obs.score));
        }
        let better_g = self
            .gbest
            .as_ref()
            .map(|(_, v)| obs.score > *v)
            .unwrap_or(true);
        if better_g {
            self.gbest = Some((obs.params.to_vec(), obs.score));
        }
    }
}

// ---- Meta: a bandit over planners --------------------------------------------

/// Ω selecting δ: a UCB1 bandit chooses which pooled planner proposes
/// each batch; every observation feeds *all* pooled planners (shared
/// evidence), and the batch's yield rewards the arm that proposed it.
/// [`MetaOptimizerAgent`] reviews the yield series and widens the
/// bandit's exploration coefficient whenever the pool stalls.
pub struct MetaPlanner {
    pool: Vec<Box<dyn Planner>>,
    bandit: Ucb1,
    omega: MetaOptimizerAgent,
    strategy: Strategy,
    active: usize,
}

impl MetaPlanner {
    fn new(pool: Vec<Box<dyn Planner>>) -> Self {
        let arms = pool.len().max(1);
        MetaPlanner {
            pool,
            bandit: Ucb1::new(arms),
            omega: MetaOptimizerAgent::new(6),
            strategy: Strategy::default(),
            active: 0,
        }
    }
}

impl Planner for MetaPlanner {
    fn name(&self) -> &'static str {
        "meta"
    }

    fn wants_anchor(&self) -> bool {
        self.pool.iter().any(|p| p.wants_anchor())
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        self.active = self.bandit.select(ctx.rng).min(self.pool.len() - 1);
        self.pool[self.active].propose(ctx, batch, out);
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        for p in &mut self.pool {
            p.observe(obs);
        }
    }

    fn end_iteration(&mut self, executed: usize, hits: u64) {
        let reward = hits as f64 / executed.max(1) as f64;
        self.bandit.update(self.active, reward);
        self.pool[self.active].end_iteration(executed, hits);
        // Ω review: a stalled pool means the current arbitration is not
        // working — widen exploration so colder arms get replayed.
        if let Some(next) = self.omega.review(reward, self.strategy) {
            self.strategy = next;
            self.bandit.c += 0.25;
        }
    }

    fn records_knowledge(&self) -> bool {
        self.pool.iter().any(|p| p.records_knowledge())
    }

    fn telemetry(&self) -> PlannerTelemetry {
        let mut t = PlannerTelemetry {
            rejected_proposals: 0,
            omega_rewrites: self.omega.rewrites,
        };
        for p in &self.pool {
            let c = p.telemetry();
            t.rejected_proposals += c.rejected_proposals;
            t.omega_rewrites += c.omega_rewrites;
        }
        t
    }

    fn token_usage(&self) -> TokenUsage {
        let mut usage = TokenUsage::default();
        for p in &self.pool {
            usage.add(p.token_usage());
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_ctx<'a>(
        space: &'a MaterialsSpace,
        reg: &'a RngRegistry,
        n_lanes: usize,
    ) -> PlannerBuild<'a> {
        PlannerBuild {
            space,
            reg,
            seed: 7,
            dim: space.dim(),
            batch_per_lane: 4,
            n_lanes,
            shares_globally: true,
        }
    }

    #[test]
    fn lazy_grid_matches_eager_enumeration() {
        // The eager table this replaced: odometer over idx[0] fastest.
        let dim = 3;
        let per_dim = GridPlanner::PER_DIM;
        let mut eager = Vec::new();
        let mut idx = vec![0usize; dim];
        'outer: loop {
            eager.push(
                idx.iter()
                    .map(|&i| i as f64 / (per_dim - 1) as f64)
                    .collect::<Vec<f64>>(),
            );
            let mut d = 0;
            loop {
                idx[d] += 1;
                if idx[d] < per_dim {
                    break;
                }
                idx[d] = 0;
                d += 1;
                if d == dim {
                    break 'outer;
                }
            }
        }
        let g = GridPlanner::new(dim, 1, true);
        assert_eq!(g.total, eager.len());
        for (i, pt) in eager.iter().enumerate() {
            assert_eq!(&g.point(i), pt, "grid point {i}");
        }
        // Wrapping beyond the table.
        assert_eq!(g.point(eager.len() + 3), eager[3]);
    }

    #[test]
    fn default_planner_mapping_pins_every_table1_row() {
        let expected = [
            (IntelligenceLevel::Static, PlannerKind::Grid),
            (IntelligenceLevel::Adaptive, PlannerKind::Adaptive),
            (IntelligenceLevel::Learning, PlannerKind::Evidence),
            (IntelligenceLevel::Optimizing, PlannerKind::Surrogate),
            (IntelligenceLevel::Intelligent, PlannerKind::Agentic),
        ];
        assert_eq!(expected.len(), IntelligenceLevel::ALL.len());
        for (level, kind) in expected {
            assert_eq!(PlannerKind::for_level(level), kind, "{level:?}");
        }
    }

    #[test]
    fn bandit_arm_roundtrip() {
        let b = BanditPlanner::new(BanditKind::Ucb1, 3, 2);
        // Region (1, 2) → arm 1 + 2*3 = 7; points inside map back.
        assert_eq!(b.arm_of(&[0.5, 0.9]), 7);
        assert_eq!(b.arm_of(&[0.0, 0.0]), 0);
        assert_eq!(b.arm_of(&[1.0, 1.0]), 8); // clamped top edge
    }

    #[test]
    fn bandit_proposals_fall_inside_selected_regions() {
        let space = MaterialsSpace::generate(2, 4, 1);
        let reg = RngRegistry::new(1);
        let b = build_ctx(&space, &reg, 1);
        let mut p = PlannerKind::bandit().build(&b);
        let mut rng = reg.stream("decision");
        let mut out = Vec::new();
        let mut ctx = PlanCtx {
            dim: 2,
            lane: 0,
            rng: &mut rng,
            anchor: None,
            scored: 0,
        };
        p.propose(&mut ctx, 16, &mut out);
        assert_eq!(out.len(), 16);
        for c in &out {
            assert!(c.params.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn swarm_planner_moves_toward_rewards() {
        let mut p = SwarmPlanner::new(8, PsoConfig::default());
        let mut rng = SimRng::from_seed_u64(3);
        let target = [0.8, 0.2];
        let mut best = f64::NEG_INFINITY;
        for _ in 0..60 {
            let mut out = Vec::new();
            let mut ctx = PlanCtx {
                dim: 2,
                lane: 0,
                rng: &mut rng,
                anchor: None,
                scored: 0,
            };
            p.propose(&mut ctx, 4, &mut out);
            for c in &out {
                let d2: f64 = c
                    .params
                    .iter()
                    .zip(&target)
                    .map(|(a, b)| (a - b).powi(2))
                    .sum();
                let score = (-d2).exp();
                best = best.max(score);
                p.observe(&Observation {
                    lane: 0,
                    params: &c.params,
                    score,
                    hit: score > 0.9,
                });
            }
        }
        assert!(best > 0.95, "swarm best {best}");
    }

    #[test]
    fn meta_planner_flattens_nested_pools_and_routes() {
        let space = MaterialsSpace::generate(2, 4, 2);
        let reg = RngRegistry::new(2);
        let b = build_ctx(&space, &reg, 1);
        let nested = PlannerKind::Meta {
            pool: vec![PlannerKind::meta(), PlannerKind::Grid],
        };
        let mut p = nested.build(&b);
        assert_eq!(p.name(), "meta");
        let mut rng = reg.stream("decision");
        let mut out = Vec::new();
        let mut ctx = PlanCtx {
            dim: 2,
            lane: 0,
            rng: &mut rng,
            anchor: None,
            scored: 0,
        };
        p.propose(&mut ctx, 4, &mut out);
        assert_eq!(out.len(), 4);
        for c in &out {
            p.observe(&Observation {
                lane: 0,
                params: &c.params,
                score: 0.5,
                hit: false,
            });
        }
        p.end_iteration(4, 0);
    }

    #[test]
    fn planner_kind_round_trips_through_serde() {
        for kind in PlannerKind::all_concrete()
            .into_iter()
            .chain([PlannerKind::meta(), PlannerKind::ensemble()])
        {
            let json = serde_json::to_string(&kind).expect("serialize");
            let back: PlannerKind = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(kind, back, "round-trip {json}");
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::BTreeSet<&str> = PlannerKind::all_concrete()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels.len(), 8, "concrete planner labels must be unique");
    }

    #[test]
    fn descriptor_distinguishes_parameterisations() {
        // Same label, different policy ⇒ different descriptor — the
        // property fleet per-cell aggregation keys on.
        let a = PlannerKind::Swarm { particles: 8 };
        let b = PlannerKind::Swarm { particles: 64 };
        assert_eq!(a.label(), b.label());
        assert_ne!(a.descriptor(), b.descriptor());

        let c = PlannerKind::Bandit {
            policy: BanditKind::Ucb1,
            regions_per_dim: 2,
        };
        let d = PlannerKind::Bandit {
            policy: BanditKind::Ucb1,
            regions_per_dim: 5,
        };
        assert_ne!(c.descriptor(), d.descriptor());

        // Meta descriptors recurse into their pools.
        let m1 = PlannerKind::Meta { pool: vec![a] };
        let m2 = PlannerKind::Meta { pool: vec![b] };
        assert_ne!(m1.descriptor(), m2.descriptor());
        assert!(m1.descriptor().starts_with("meta["));

        // Ensemble descriptors carry the pool breadth.
        let e1 = PlannerKind::Ensemble { specialists: 2 };
        let e2 = PlannerKind::Ensemble { specialists: 8 };
        assert_eq!(e1.label(), e2.label());
        assert_ne!(e1.descriptor(), e2.descriptor());
        assert_eq!(PlannerKind::ensemble().descriptor(), "ensemble(s4)");
    }
}
