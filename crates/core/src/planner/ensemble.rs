//! Cooperative agent ensemble: specialist roles negotiating over the
//! typed agent-communication protocol.
//!
//! Where [`AgenticPlanner`](super::AgenticPlanner) is one agent stack
//! with a meta-optimizer, the ensemble is a *population* of specialists
//! that coordinate through real [`evoflow_protocol`] conversations:
//!
//! * **generator** — the hypothesis agent, anchored away from already
//!   confirmed discoveries;
//! * **evolver** — mutates the frontier (high-scoring evidence that has
//!   *not* yet crossed the threshold) hunting new peaks;
//! * **reflector** — critiques every pool candidate against the
//!   surrogate and the discovery archive, demoting re-derivations
//!   ([`ReflectorAgent`]);
//! * **ranker** — runs a seeded pairwise tournament over the joint
//!   candidate pool and keeps only the winners;
//! * **meta-reviewer** — periodically reweights the generator/evolver
//!   split from each source's measured hit yield.
//!
//! Every exchange is a legal ACL conversation ([`Conversation::accept`]
//! enforces the reply grammar and turn-taking), and every message is
//! round-tripped through the EVFW wire frame before it counts — the
//! ensemble exercises the federation transport on every iteration, not
//! just in protocol unit tests. The full cooperative transcript
//! (messages, tournament matches, meta-reviews) is emitted as
//! [`CampaignEvent`]s through [`Planner::drain_events`], so a recorded
//! ledger replays the ensemble's internal negotiation byte-identically.
//!
//! Determinism: the transcript is built unconditionally (whether or not
//! an observer is attached) and all stochastic choices draw from either
//! the embedded cognitive models' streams or the dedicated `"ensemble"`
//! registry stream fixed at build — never from wall clock or emission
//! state.
//!
//! [`Conversation::accept`]: evoflow_protocol::Conversation::accept
//! [`ReflectorAgent`]: evoflow_agents::ReflectorAgent

use std::borrow::Cow;

use evoflow_agents::{
    AnalysisAgent, Candidate, DesignAgent, Evidence, HypothesisAgent, LiteratureAgent,
    MetaOptimizerAgent, ReflectorAgent, Strategy,
};
use evoflow_cogsim::{CognitiveModel, ModelProfile, TokenUsage};
use evoflow_protocol::acl::ConversationTable;
use evoflow_protocol::{decode_frame, encode_frame, AclMessage, Frame, FrameKind, Performative};
use evoflow_sim::SimRng;

use super::{
    Observation, PlanCtx, Planner, PlannerBuild, PlannerTelemetry, SurrogatePlanner, SURROGATE_CAP,
};
use crate::ledger::CampaignEvent;

/// Default specialist breadth: each of generator and evolver contributes
/// `specialists` candidates to every tournament pool.
pub const DEFAULT_SPECIALISTS: usize = 4;

/// Shared vocabulary all ensemble conversations are expressed in.
const ONTOLOGY: &str = "evoflow/ensemble/1";

/// Wire-protocol version the ensemble frames its messages with.
const WIRE_VERSION: u16 = 1;

/// Radius under which a candidate or observation counts as re-deriving
/// an already-confirmed discovery region. Wider than a typical peak, so
/// the tabu pressure pushes the pool off a discovered peak entirely
/// instead of orbiting its shoulder.
const REDERIVATION_RADIUS: f64 = 0.18;

/// Fraction of evolver proposals drawn as uniform restarts — the
/// ensemble's hedge against every frontier anchor sitting on the
/// shoulder of an already-discovered peak.
const EVOLVER_RESTART_RATIO: f64 = 0.35;

/// Iterations between meta-reviewer reweightings of the specialist pool.
const META_REVIEW_PERIOD: u64 = 16;

/// Bound on the critique-derived evidence store.
const EVIDENCE_CAP: usize = 128;

/// Bound on the frontier (promising-but-not-yet-hit anchors).
const FRONTIER_CAP: usize = 16;

/// Bound on the discovery archive used for tabu pressure.
const DISCOVERED_CAP: usize = 64;

/// Fraction of the threshold above which a miss still joins the frontier.
const FRONTIER_FLOOR: f64 = 0.6;

// Stable role names used as ACL sender/receiver identities.
const COORDINATOR: &str = "coordinator";
const GENERATOR: &str = "generator";
const EVOLVER: &str = "evolver";
const REFLECTOR: &str = "reflector";
const RANKER: &str = "ranker";
const META_REVIEWER: &str = "meta-reviewer";

/// Which specialist produced a proposed candidate (for yield attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Generator,
    Evolver,
}

/// The cooperative ensemble planner (see the module docs for the role
/// pipeline). Built via [`PlannerKind::Ensemble`](super::PlannerKind).
pub struct EnsemblePlanner {
    specialists: usize,
    threshold: f64,
    generator: HypothesisAgent,
    reflector: ReflectorAgent,
    analysis: AnalysisAgent,
    design: DesignAgent,
    meta: MetaOptimizerAgent,
    strategy: Strategy,
    /// Dedicated seeded stream for tournament pairings and evolver
    /// mutations — isolated from the campaign decision stream so adding
    /// the ensemble never perturbs other planners' draws.
    rng: SimRng,
    round: u64,
    last_lane: usize,
    next_conversation: u64,
    conversations: ConversationTable,
    /// Generator's share of the tournament pool (meta-reviewed).
    gen_weight: f64,
    /// Critique-derived predicted evidence (bounded FIFO).
    evidence: Vec<Evidence>,
    /// Confirmed discovery regions; proposals near these are demoted.
    discovered: Vec<Vec<f64>>,
    /// High-scoring misses outside every discovered region, best first.
    frontier: Vec<Evidence>,
    /// Source of each candidate proposed this iteration, in order.
    pending: Vec<Source>,
    /// Flattened pool coordinates for the reflector's batched surrogate
    /// pass, reused across rounds.
    pool_flat: Vec<f64>,
    /// `(predicted, uncertainty)` per pool candidate, reused across
    /// rounds.
    pool_preds: Vec<(f64, f64)>,
    obs_cursor: usize,
    gen_runs: u64,
    gen_hits: u64,
    evo_runs: u64,
    evo_hits: u64,
    critiques_total: u64,
    transcript: Vec<CampaignEvent>,
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

impl EnsemblePlanner {
    /// Build an ensemble with the given specialist breadth (pool size is
    /// `2 × specialists` split between generator and evolver).
    pub fn new(specialists: usize, b: &PlannerBuild<'_>) -> Self {
        let generator = HypothesisAgent::new(
            CognitiveModel::new(
                ModelProfile::reasoning_lrm(),
                b.reg.stream_seed("hypothesis"),
            ),
            b.dim,
        );
        let mut analysis = AnalysisAgent::new(0.12);
        // Same literature bootstrap as the Intelligent level: mine the
        // published record before the first experiment runs.
        let corpus = b.space.literature_corpus(50, b.seed ^ 0xBEEF);
        let mut lit = LiteratureAgent::new(
            CognitiveModel::new(ModelProfile::fast_llm(), b.reg.stream_seed("literature")),
            corpus,
        );
        for hint in lit.survey(5) {
            analysis.assimilate(&hint.params, hint.score);
        }
        EnsemblePlanner {
            specialists: specialists.max(1),
            threshold: b.space.threshold,
            generator,
            reflector: ReflectorAgent::new(REDERIVATION_RADIUS),
            analysis,
            design: DesignAgent::new(b.dim),
            meta: MetaOptimizerAgent::new(6),
            strategy: Strategy {
                // The ensemble is a parallel cast by construction: run
                // one experiment per specialist per iteration, not the
                // single-agent default, so the cooperative pool's
                // breadth reaches the instruments.
                batch_size: b.batch_per_lane.max(2 * specialists.max(1)),
                ..Strategy::default()
            },
            rng: b.reg.stream("ensemble"),
            round: 0,
            last_lane: 0,
            next_conversation: 0,
            conversations: ConversationTable::new(),
            gen_weight: 0.5,
            evidence: Vec::new(),
            discovered: Vec::new(),
            frontier: Vec::new(),
            pending: Vec::new(),
            pool_flat: Vec::new(),
            pool_preds: Vec::new(),
            obs_cursor: 0,
            gen_runs: 0,
            gen_hits: 0,
            evo_runs: 0,
            evo_hits: 0,
            critiques_total: 0,
            transcript: Vec::new(),
        }
    }

    fn is_rederivation(&self, params: &[f64]) -> bool {
        self.discovered
            .iter()
            .any(|r| euclid(r, params) <= REDERIVATION_RADIUS)
    }

    /// Validate `msg` against the conversation grammar, round-trip it
    /// through the EVFW wire frame, and record the exchange in the
    /// cooperative transcript.
    fn send(&mut self, lane: usize, performative: &'static str, msg: AclMessage) {
        let conversation = msg.conversation;
        let sender = role(&msg.sender);
        let receiver = role(&msg.receiver);
        self.conversations
            .accept(msg.clone())
            .expect("ensemble conversation stays in protocol");
        let payload = serde_json::to_vec(&msg).expect("ACL message serializes");
        let frame = Frame {
            version: WIRE_VERSION,
            kind: FrameKind::Acl,
            flags: 0,
            conversation,
            payload: payload.into(),
        };
        let bytes = encode_frame(&frame).expect("ensemble frames stay within wire bounds");
        let frame_bytes = bytes.len() as u64;
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        let back = decode_frame(&mut buf).expect("own frame decodes");
        assert_eq!(back, frame, "EVFW round-trip drift on ensemble message");
        self.transcript.push(CampaignEvent::EnsembleMessage {
            lane,
            round: self.round,
            performative: Cow::Borrowed(performative),
            sender,
            receiver,
            conversation,
            frame_bytes,
        });
    }

    fn fresh_conversation(&mut self) -> u64 {
        let id = self.next_conversation;
        self.next_conversation += 1;
        id
    }

    /// Two-message exchange: `initiator` opens with `open`, `responder`
    /// answers with `answer`. Returns the conversation id.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &mut self,
        lane: usize,
        initiator: &'static str,
        responder: &'static str,
        open: Performative,
        open_content: String,
        answer: Performative,
        answer_content: String,
    ) -> u64 {
        let id = self.fresh_conversation();
        let first = AclMessage::new(open, initiator, responder, id, ONTOLOGY, open_content);
        let reply = first.reply(answer, answer_content);
        self.send(lane, open.label(), first);
        self.send(lane, answer.label(), reply);
        id
    }

    /// Best non-rederiving anchor from the frontier, the critique
    /// evidence store, or the campaign-wide best the loop lends.
    fn pick_anchor(&self, ctx: &PlanCtx<'_>) -> Option<Vec<f64>> {
        let best = self
            .frontier
            .iter()
            .chain(self.evidence.iter())
            .filter(|e| !self.is_rederivation(&e.params))
            .max_by(|a, b| a.score.total_cmp(&b.score));
        if let Some(e) = best {
            return Some(e.params.clone());
        }
        ctx.anchor
            .filter(|a| !self.is_rederivation(&a.params))
            .map(|a| a.params.clone())
    }
}

/// Map a role string back to its `'static` name for zero-alloc events.
fn role(name: &str) -> Cow<'static, str> {
    for r in [
        COORDINATOR,
        GENERATOR,
        EVOLVER,
        REFLECTOR,
        RANKER,
        META_REVIEWER,
    ] {
        if name == r {
            return Cow::Borrowed(r);
        }
    }
    Cow::Owned(name.to_string())
}

impl Planner for EnsemblePlanner {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn wants_anchor(&self) -> bool {
        true
    }

    fn batch_size(&self) -> Option<usize> {
        Some(self.strategy.batch_size)
    }

    fn propose(&mut self, ctx: &mut PlanCtx<'_>, batch: usize, out: &mut Vec<Candidate>) {
        self.round += 1;
        self.last_lane = ctx.lane;
        // Conversations are per-round; resetting the table bounds memory
        // without weakening per-message validation.
        self.conversations = ConversationTable::new();
        self.pending.clear();
        self.obs_cursor = 0;
        self.generator.explore_ratio = self.strategy.explore_ratio;

        // Pool split between the two candidate sources, meta-reweighted.
        let pool_target = (2 * self.specialists).max(2 * batch.max(1));
        let n_gen =
            ((pool_target as f64 * self.gen_weight).round() as usize).clamp(1, pool_target - 1);
        let n_evo = pool_target - n_gen;

        // -- generation -----------------------------------------------------
        let anchor = self.pick_anchor(ctx);
        self.exchange(
            ctx.lane,
            COORDINATOR,
            GENERATOR,
            Performative::Request,
            format!(
                "propose {n_gen} hypotheses; explore_ratio={:.3}; anchored={}",
                self.strategy.explore_ratio,
                anchor.is_some()
            ),
            Performative::Agree,
            format!("committing {n_gen} hypotheses"),
        );
        let mut gen_pool = self.generator.propose_anchored(anchor.as_deref(), n_gen);
        if self.strategy.use_recommendations && !gen_pool.is_empty() {
            let rec = self
                .analysis
                .recommend(ctx.dim, SurrogatePlanner::POOL, ctx.rng);
            ctx.scored += SurrogatePlanner::POOL as u64;
            gen_pool[0] = Candidate {
                params: rec,
                rationale: "analysis-agent recommendation".into(),
                confidence: 0.8,
                hallucinated: false,
            };
        }
        let mut pool: Vec<(Candidate, Source)> = gen_pool
            .into_iter()
            .map(|c| (c, Source::Generator))
            .collect();

        // -- evolution ------------------------------------------------------
        self.exchange(
            ctx.lane,
            COORDINATOR,
            EVOLVER,
            Performative::Request,
            format!(
                "mutate {n_evo} frontier points; frontier={}",
                self.frontier.len()
            ),
            Performative::Agree,
            format!("committing {n_evo} mutations"),
        );
        for _ in 0..n_evo {
            let restart = self.frontier.is_empty() || self.rng.chance(EVOLVER_RESTART_RATIO);
            let params: Vec<f64> = if restart {
                (0..ctx.dim).map(|_| self.rng.uniform()).collect()
            } else {
                let base = &self.frontier[self.rng.below(self.frontier.len())];
                base.params
                    .iter()
                    .map(|&v| (v + self.rng.normal_with(0.0, 0.1)).clamp(0.0, 1.0))
                    .collect()
            };
            pool.push((
                Candidate {
                    params,
                    rationale: Cow::Borrowed("evolver mutation of frontier evidence"),
                    confidence: 0.65,
                    hallucinated: false,
                },
                Source::Evolver,
            ));
        }

        // -- reflection -----------------------------------------------------
        // One batched surrogate pass for the whole pool: flatten the
        // coordinates, predict every candidate in a single scan of the
        // observations, then critique against the precomputed pairs.
        // Bit-identical to per-candidate `critique`.
        self.pool_flat.clear();
        for (c, _) in &pool {
            self.pool_flat.extend_from_slice(&c.params);
        }
        self.pool_preds.clear();
        self.analysis
            .predict_batch(ctx.dim, &self.pool_flat, &mut self.pool_preds);
        // A 0-d pool flattens to nothing, so the batch predicts no
        // candidate. Such a space scores 0/0 everywhere and its surrogate
        // never takes an observation, so each candidate gets the prior.
        self.pool_preds.resize(pool.len(), (0.0, 1.0));
        ctx.scored += pool.len() as u64;
        let critiques: Vec<_> = pool
            .iter()
            .zip(&self.pool_preds)
            .map(|((c, _), &(pred, unc))| {
                self.reflector
                    .critique_scored(c, pred, unc, &self.discovered)
            })
            .collect();
        let rederivations = critiques
            .iter()
            .filter(|cr| cr.novelty <= REDERIVATION_RADIUS)
            .count();
        self.critiques_total += critiques.len() as u64;
        self.exchange(
            ctx.lane,
            COORDINATOR,
            REFLECTOR,
            Performative::QueryRef,
            format!("critique pool of {}", pool.len()),
            Performative::InformRef,
            format!(
                "critiqued {}; rederivations={rederivations}",
                critiques.len()
            ),
        );
        for ((cand, _), cr) in pool.iter_mut().zip(&critiques) {
            cand.confidence = cr.adjusted_confidence;
            if cr.predicted.is_finite() {
                self.evidence.push(Evidence {
                    params: cand.params.clone(),
                    score: cr.predicted,
                });
                if self.evidence.len() > EVIDENCE_CAP {
                    self.evidence.remove(0);
                }
            }
        }

        // -- tournament ranking ---------------------------------------------
        // Utility rewards predicted score, distance from confirmed
        // discoveries (the distinct-discovery edge), surrogate
        // uncertainty, and the reflector's adjusted confidence.
        // Re-derivations take a hard penalty: a rediscovered peak adds
        // nothing to the distinct count, whatever its score.
        let utility: Vec<f64> = critiques
            .iter()
            .map(|cr| {
                let novelty = cr.novelty.min(0.6); // ∞ ⇒ max bonus
                let tabu = if cr.novelty <= REDERIVATION_RADIUS {
                    -0.75
                } else {
                    0.0
                };
                cr.predicted
                    + 0.8 * novelty
                    + 0.25 * cr.uncertainty.min(1.0)
                    + 0.15 * cr.adjusted_confidence
                    + tabu
            })
            .collect();
        let id = self.fresh_conversation();
        let propose_msg = AclMessage::new(
            Performative::Propose,
            GENERATOR,
            RANKER,
            id,
            ONTOLOGY,
            format!("rank pool of {}", pool.len()),
        );
        self.send(ctx.lane, Performative::Propose.label(), propose_msg.clone());

        let keep = batch.max(1).min(pool.len());
        let mut alive: Vec<usize> = (0..pool.len()).collect();
        let matches = pool.len() - keep;
        for _ in 0..matches {
            // Seeded pairwise elimination: two random contenders, the
            // lower-utility one leaves the pool.
            let i = self.rng.below(alive.len());
            let mut j = self.rng.below(alive.len() - 1);
            if j >= i {
                j += 1;
            }
            let (left, right) = (alive[i], alive[j]);
            let (winner, loser_slot) = if utility[left] >= utility[right] {
                (left, j)
            } else {
                (right, i)
            };
            self.transcript.push(CampaignEvent::TournamentMatch {
                lane: ctx.lane,
                round: self.round,
                left,
                right,
                winner,
                margin: (utility[left] - utility[right]).abs(),
            });
            alive.swap_remove(loser_slot);
        }
        self.send(
            ctx.lane,
            Performative::AcceptProposal.label(),
            propose_msg.reply(
                Performative::AcceptProposal,
                format!("winners={} after {matches} matches", alive.len()),
            ),
        );

        // Survivors in original pool order, through the validation gate.
        alive.sort_unstable();
        let mut survivor = vec![false; pool.len()];
        for idx in alive {
            survivor[idx] = true;
        }
        for (idx, (cand, source)) in pool.into_iter().enumerate() {
            if !survivor[idx] {
                continue;
            }
            if self.design.design(&cand).is_ok() {
                out.push(cand);
                self.pending.push(source);
            }
            // Rejected candidates cost only decision time.
        }
    }

    fn observe(&mut self, obs: &Observation<'_>) {
        if self.analysis.observations() < SURROGATE_CAP || obs.score >= 0.8 * self.threshold {
            self.analysis.assimilate(obs.params, obs.score);
        }
        let source = self.pending.get(self.obs_cursor).copied();
        self.obs_cursor += 1;
        match source {
            Some(Source::Generator) => self.gen_runs += 1,
            Some(Source::Evolver) => self.evo_runs += 1,
            None => {}
        }
        if obs.hit {
            match source {
                Some(Source::Generator) => self.gen_hits += 1,
                Some(Source::Evolver) => self.evo_hits += 1,
                None => {}
            }
            if !self.is_rederivation(obs.params) && self.discovered.len() < DISCOVERED_CAP {
                self.discovered.push(obs.params.to_vec());
                // The region is confirmed: stop anchoring on it.
                self.frontier
                    .retain(|e| euclid(&e.params, obs.params) > REDERIVATION_RADIUS);
            }
        } else if obs.score >= FRONTIER_FLOOR * self.threshold && !self.is_rederivation(obs.params)
        {
            let pos = self
                .frontier
                .iter()
                .position(|e| e.score < obs.score)
                .unwrap_or(self.frontier.len());
            if pos < FRONTIER_CAP {
                self.frontier.insert(
                    pos,
                    Evidence {
                        params: obs.params.to_vec(),
                        score: obs.score,
                    },
                );
                self.frontier.truncate(FRONTIER_CAP);
            }
        }
    }

    fn end_iteration(&mut self, executed: usize, hits: u64) {
        let iter_yield = hits as f64 / executed.max(1) as f64;
        if let Some(next) = self.meta.review(iter_yield, self.strategy) {
            self.strategy = next;
        }
        if self.round > 0 && self.round.is_multiple_of(META_REVIEW_PERIOD) {
            // Meta-review: reweight the pool split from measured per-source
            // hit yield (Laplace-smoothed so a cold source keeps a voice).
            let gen_rate = (self.gen_hits as f64 + 0.5) / (self.gen_runs as f64 + 1.0);
            let evo_rate = (self.evo_hits as f64 + 0.5) / (self.evo_runs as f64 + 1.0);
            self.gen_weight = (gen_rate / (gen_rate + evo_rate)).clamp(0.25, 0.75);
            self.gen_runs = 0;
            self.gen_hits = 0;
            self.evo_runs = 0;
            self.evo_hits = 0;
            let id = self.fresh_conversation();
            let lane = self.last_lane;
            let msg = AclMessage::new(
                Performative::Inform,
                META_REVIEWER,
                COORDINATOR,
                id,
                ONTOLOGY,
                format!(
                    "generator_weight={:.3} evolver_weight={:.3} critiques={}",
                    self.gen_weight,
                    1.0 - self.gen_weight,
                    self.critiques_total
                ),
            );
            self.send(lane, Performative::Inform.label(), msg);
            self.transcript.push(CampaignEvent::MetaReview {
                lane,
                round: self.round,
                generator_weight: self.gen_weight,
                evolver_weight: 1.0 - self.gen_weight,
                critiques: self.critiques_total,
            });
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
        self.generator.usage()
    }

    fn drain_events(&mut self, out: &mut Vec<CampaignEvent>) {
        out.append(&mut self.transcript);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::domain::MaterialsSpace;
    use crate::matrix::Cell;
    use evoflow_agents::Pattern;
    use evoflow_sim::{RngRegistry, SimDuration};
    use evoflow_sm::IntelligenceLevel;

    fn build_inputs(seed: u64) -> (MaterialsSpace, RngRegistry) {
        (MaterialsSpace::generate(3, 8, seed), RngRegistry::new(seed))
    }

    #[test]
    fn ensemble_proposes_through_tournament_and_emits_transcript() {
        let (space, reg) = build_inputs(7);
        let b = PlannerBuild {
            space: &space,
            reg: &reg,
            seed: 7,
            dim: 3,
            batch_per_lane: 4,
            n_lanes: 1,
            shares_globally: false,
        };
        let mut p = EnsemblePlanner::new(DEFAULT_SPECIALISTS, &b);
        let mut rng = reg.stream("decision");
        let mut ctx = PlanCtx {
            dim: 3,
            lane: 0,
            rng: &mut rng,
            anchor: None,
            scored: 0,
        };
        let mut out = Vec::new();
        p.propose(&mut ctx, 4, &mut out);
        assert!(!out.is_empty() && out.len() <= 4);
        for (i, c) in out.iter().enumerate() {
            p.observe(&Observation {
                lane: 0,
                params: &c.params,
                score: 0.3 + 0.1 * i as f64,
                hit: false,
            });
        }
        p.end_iteration(out.len(), 0);
        let mut events = Vec::new();
        p.drain_events(&mut events);
        // 8 ACL messages + (pool - batch) tournament matches.
        let msgs = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::EnsembleMessage { .. }))
            .count();
        let matches = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::TournamentMatch { .. }))
            .count();
        assert_eq!(msgs, 8);
        assert_eq!(matches, 2 * DEFAULT_SPECIALISTS - 4);
        // Drain moved, not copied.
        let mut again = Vec::new();
        p.drain_events(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn meta_review_fires_on_schedule_and_reweights_within_bounds() {
        let (space, reg) = build_inputs(11);
        let b = PlannerBuild {
            space: &space,
            reg: &reg,
            seed: 11,
            dim: 3,
            batch_per_lane: 2,
            n_lanes: 1,
            shares_globally: false,
        };
        let mut p = EnsemblePlanner::new(2, &b);
        let mut rng = reg.stream("decision");
        let mut reviews = 0;
        for _ in 0..(2 * META_REVIEW_PERIOD) {
            let mut ctx = PlanCtx {
                dim: 3,
                lane: 0,
                rng: &mut rng,
                anchor: None,
                scored: 0,
            };
            let mut out = Vec::new();
            p.propose(&mut ctx, 2, &mut out);
            for c in &out {
                p.observe(&Observation {
                    lane: 0,
                    params: &c.params,
                    score: 0.2,
                    hit: false,
                });
            }
            p.end_iteration(out.len(), 0);
            let mut events = Vec::new();
            p.drain_events(&mut events);
            for e in &events {
                if let CampaignEvent::MetaReview {
                    generator_weight,
                    evolver_weight,
                    ..
                } = e
                {
                    reviews += 1;
                    assert!((0.25..=0.75).contains(generator_weight));
                    assert!((generator_weight + evolver_weight - 1.0).abs() < 1e-12);
                }
            }
        }
        assert_eq!(reviews, 2);
    }

    #[test]
    fn hits_enter_the_discovery_archive_and_prune_the_frontier() {
        let (space, reg) = build_inputs(13);
        let b = PlannerBuild {
            space: &space,
            reg: &reg,
            seed: 13,
            dim: 2,
            batch_per_lane: 2,
            n_lanes: 1,
            shares_globally: false,
        };
        let mut p = EnsemblePlanner::new(2, &b);
        // A promising miss joins the frontier…
        p.pending.clear();
        p.observe(&Observation {
            lane: 0,
            params: &[0.5, 0.5],
            score: FRONTIER_FLOOR * p.threshold + 0.01,
            hit: false,
        });
        assert_eq!(p.frontier.len(), 1);
        // …and a hit in the same region confirms it and evicts the anchor.
        p.observe(&Observation {
            lane: 0,
            params: &[0.5, 0.5],
            score: p.threshold + 0.1,
            hit: true,
        });
        assert_eq!(p.discovered.len(), 1);
        assert!(p.frontier.is_empty());
        // A second hit in the same region is a re-derivation, not a new entry.
        p.observe(&Observation {
            lane: 0,
            params: &[0.51, 0.5],
            score: p.threshold + 0.1,
            hit: true,
        });
        assert_eq!(p.discovered.len(), 1);
    }

    #[test]
    fn ensemble_campaign_is_deterministic_across_runs() {
        let space = MaterialsSpace::generate(3, 8, 99);
        let mut cfg = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Learning, Pattern::Single),
            4242,
        )
        .with_planner(super::super::PlannerKind::ensemble());
        cfg.horizon = SimDuration::from_days(2);
        cfg.max_experiments = 2_000;
        let a = run_campaign(&space, &cfg);
        let b = run_campaign(&space, &cfg);
        assert_eq!(
            serde_json::to_vec(&a).unwrap(),
            serde_json::to_vec(&b).unwrap()
        );
    }
}
