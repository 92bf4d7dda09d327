//! The campaign engine: federated autonomous scientific discovery (Fig 4),
//! runnable at any cell of the evolution matrix.
//!
//! A campaign iterates the discovery loop — decide → synthesize →
//! characterize → analyze → record — under three coupled knobs:
//!
//! 1. **Intelligence level** (how candidates are chosen): static grid,
//!    adaptive sampling, learning from evidence, surrogate optimization, or
//!    the full agent stack with meta-optimization Ω. Each level is a
//!    [`Planner`](crate::planner::Planner) behind the
//!    [`planner`](crate::planner) layer, and any cell may override its
//!    default via [`CampaignConfig::planner`].
//! 2. **Composition pattern** (how many lanes run and how they overlap):
//!    one lane, overlapped pipeline stages, or three, four or eight
//!    concurrent lanes for manager, mesh and swarm. Every lane's anchor is
//!    the campaign-wide best so far; no composition shares less.
//! 3. **Coordination mode** (who closes the loop): a human with realistic
//!    decision latency and working hours, or agents at inference latency.
//!
//! The 10–100× acceleration claim (§1, §6.2) is measured by running the
//! *same* landscape under [Static × Pipeline] + human coordination versus
//! [Intelligent × Swarm] + autonomous coordination.

use crate::domain::MaterialsSpace;
use crate::ledger::{CampaignEvent, CampaignLedger, EventBatch, LedgerObserver};
use crate::matrix::Cell;
use crate::planner::{Observation, PlanCtx, PlannerBuild, PlannerKind, PlannerTelemetry};
use crate::profile::{Phase, PhaseProfiler};
use evoflow_agents::{Candidate, Evidence, LibrarianAgent, Pattern};
use evoflow_facility::HumanModel;
use evoflow_sim::{RngRegistry, SimDuration, SimTime};
use evoflow_sm::IntelligenceLevel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Who closes the decision loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoordinationMode {
    /// A human approves every iteration (latency model applies).
    HumanGated(HumanModel),
    /// Agents decide at inference latency, around the clock.
    Autonomous,
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Evolution-matrix cell to run at.
    pub cell: Cell,
    /// Master seed.
    pub seed: u64,
    /// Simulated campaign length.
    pub horizon: SimDuration,
    /// Candidates per iteration per lane.
    pub batch_per_lane: usize,
    /// Parallel execution lanes (None or 0 = derive from composition,
    /// the same "0 means default" rule as the fleet and service thread
    /// counts, service pacing and tenant quotas).
    pub lanes: Option<usize>,
    /// Coordination mode (None = derive: Intelligent ⇒ autonomous,
    /// otherwise human-gated).
    pub coordination: Option<CoordinationMode>,
    /// Hard cap on total experiments (sample budget).
    pub max_experiments: u64,
    /// Whether the librarian records knowledge-graph nodes + provenance
    /// for every experiment (Intelligent level only). Disable to measure
    /// the §4.2 traceability overhead (DESIGN.md §6.5 ablation).
    pub record_knowledge: bool,
    /// Decision policy override. `None` runs the cell's intelligence
    /// level at its Table 1 default ([`PlannerKind::for_level`]); any
    /// cell may instead name an explicit planner (bandit, swarm, meta,
    /// …). Absent from pre-planner configs, which decode as `None`.
    #[serde(default)]
    pub planner: Option<PlannerKind>,
}

impl CampaignConfig {
    /// Sensible defaults for a cell: lanes and coordination derived from
    /// the matrix position.
    pub fn for_cell(cell: Cell, seed: u64) -> Self {
        CampaignConfig {
            cell,
            seed,
            horizon: SimDuration::from_days(30),
            batch_per_lane: 4,
            lanes: None,
            coordination: None,
            max_experiments: 1_000_000,
            record_knowledge: true,
            planner: None,
        }
    }

    /// The same config with an explicit planner override.
    pub fn with_planner(mut self, planner: PlannerKind) -> Self {
        self.planner = Some(planner);
        self
    }

    /// The planner this campaign will run: the explicit override, or the
    /// cell's intelligence-level default.
    pub fn effective_planner(&self) -> PlannerKind {
        self.planner
            .clone()
            .unwrap_or_else(|| PlannerKind::for_level(self.cell.intelligence))
    }

    /// The lanes the campaign runs: the configured count, or the one
    /// implied by the composition pattern when that is absent or 0.
    pub fn effective_lanes(&self) -> usize {
        self.lanes
            .filter(|&n| n > 0)
            .unwrap_or(match self.cell.composition {
                Pattern::Single | Pattern::Pipeline => 1,
                Pattern::Hierarchical => 3,
                Pattern::Mesh => 4,
                Pattern::Swarm { .. } => 8,
            })
    }

    /// Coordination implied by the intelligence level.
    pub fn effective_coordination(&self) -> CoordinationMode {
        self.coordination.unwrap_or(match self.cell.intelligence {
            IntelligenceLevel::Intelligent => CoordinationMode::Autonomous,
            IntelligenceLevel::Optimizing | IntelligenceLevel::Learning => {
                CoordinationMode::HumanGated(HumanModel::attentive_operator())
            }
            _ => CoordinationMode::HumanGated(HumanModel::typical_pi()),
        })
    }
}

/// Outcome of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cell the campaign ran at.
    pub cell_label: String,
    /// Experiments executed (samples consumed).
    pub experiments: u64,
    /// Distinct materials (latent peaks) discovered.
    pub distinct_discoveries: usize,
    /// Total above-threshold measurements (including repeats).
    pub total_hits: u64,
    /// Simulated campaign length actually used, days.
    pub sim_days: f64,
    /// Distinct discoveries per simulated week.
    pub discoveries_per_week: f64,
    /// Samples processed per simulated day (A-lab metric, §2.3).
    pub samples_per_day: f64,
    /// Hours until the first discovery, if any.
    pub time_to_first_hours: Option<f64>,
    /// Best measured score.
    pub best_score: f64,
    /// Total hours lanes spent waiting on decisions.
    pub decision_wait_hours: f64,
    /// Total hours lanes spent executing experiments.
    pub execution_hours: f64,
    /// Proposals rejected by the validation gate.
    pub rejected_proposals: u64,
    /// Ω strategy rewrites issued by the meta-optimizer.
    pub omega_rewrites: u32,
    /// Knowledge-graph nodes recorded (Intelligent level only).
    pub kg_nodes: usize,
    /// Provenance activities recorded (Intelligent level only).
    pub prov_activities: usize,
    /// Total simulated inference tokens consumed.
    pub tokens: u64,
}

/// A campaign's report totals, folded one step at a time. The live loop
/// folds each step as it happens and replay folds each recorded event,
/// so a report and its replay come from this one derivation, float
/// accumulation order included.
#[derive(Debug)]
pub(crate) struct CampaignTally {
    experiments: u64,
    total_hits: u64,
    peaks: BTreeSet<usize>,
    best_score: f64,
    time_to_first: Option<SimTime>,
    decision_wait_hours: f64,
    execution_hours: f64,
    rejected_proposals: u64,
    omega_rewrites: u32,
    tokens: u64,
    /// When the batch being observed completes.
    done_at: SimTime,
}

impl CampaignTally {
    pub(crate) fn new() -> Self {
        CampaignTally {
            experiments: 0,
            total_hits: 0,
            peaks: BTreeSet::new(),
            best_score: f64::NEG_INFINITY,
            time_to_first: None,
            decision_wait_hours: 0.0,
            execution_hours: 0.0,
            rejected_proposals: 0,
            omega_rewrites: 0,
            tokens: 0,
            done_at: SimTime::ZERO,
        }
    }

    /// Experiments observed so far.
    pub(crate) fn experiments(&self) -> u64 {
        self.experiments
    }

    /// A decision requested at `at` was ready at `ready`.
    pub(crate) fn decided(&mut self, at: SimTime, ready: SimTime) {
        self.decision_wait_hours += ready.saturating_since(at).as_hours();
    }

    /// A batch was charged `duration` and completes at `done_at`.
    pub(crate) fn scheduled(&mut self, duration: SimDuration, done_at: SimTime) {
        self.execution_hours += duration.as_hours();
        self.done_at = done_at;
    }

    /// One experiment of the current batch measured `score`; a hit on a
    /// new `peak` is a discovery, timed at the batch's completion.
    pub(crate) fn observed(&mut self, score: f64, hit: bool, peak: Option<usize>) {
        self.experiments += 1;
        self.best_score = self.best_score.max(score);
        if hit {
            self.total_hits += 1;
            if let Some(p) = peak {
                self.peaks.insert(p);
                self.time_to_first.get_or_insert(self.done_at);
            }
        }
    }

    /// The validation gate has rejected `rejected_total` proposals.
    pub(crate) fn gated(&mut self, rejected_total: u64) {
        self.rejected_proposals = rejected_total;
    }

    /// Ω has issued `rewrites_total` strategy rewrites.
    pub(crate) fn rewritten(&mut self, rewrites_total: u32) {
        self.omega_rewrites = rewrites_total;
    }

    /// The planner has consumed `tokens_total` inference tokens.
    pub(crate) fn spent(&mut self, tokens_total: u64) {
        self.tokens = tokens_total;
    }

    /// Best measured score (0 when no experiment ran).
    fn best_score(&self) -> f64 {
        if self.best_score.is_finite() {
            self.best_score
        } else {
            0.0
        }
    }

    /// The `CampaignFinished` event carrying every total, with the
    /// knowledge-store counts the caller derived.
    pub(crate) fn finished(&self, kg_nodes: usize, prov_activities: usize) -> CampaignEvent {
        CampaignEvent::CampaignFinished {
            experiments: self.experiments,
            total_hits: self.total_hits,
            distinct_discoveries: self.peaks.len(),
            best_score: self.best_score(),
            time_to_first_hours: self.time_to_first.map(SimTime::as_hours),
            decision_wait_hours: self.decision_wait_hours,
            execution_hours: self.execution_hours,
            rejected_proposals: self.rejected_proposals,
            omega_rewrites: self.omega_rewrites,
            kg_nodes,
            prov_activities,
            tokens: self.tokens,
        }
    }

    /// The report of a campaign labelled `cell_label` that ran for
    /// `horizon`.
    pub(crate) fn report(
        &self,
        cell_label: String,
        horizon: SimDuration,
        kg_nodes: usize,
        prov_activities: usize,
    ) -> CampaignReport {
        let sim_days = horizon.as_hours() / 24.0;
        let weeks = sim_days / 7.0;
        CampaignReport {
            cell_label,
            experiments: self.experiments,
            distinct_discoveries: self.peaks.len(),
            total_hits: self.total_hits,
            sim_days,
            discoveries_per_week: self.peaks.len() as f64 / weeks.max(1e-9),
            samples_per_day: self.experiments as f64 / sim_days.max(1e-9),
            time_to_first_hours: self.time_to_first.map(SimTime::as_hours),
            best_score: self.best_score(),
            decision_wait_hours: self.decision_wait_hours,
            execution_hours: self.execution_hours,
            rejected_proposals: self.rejected_proposals,
            omega_rewrites: self.omega_rewrites,
            kg_nodes,
            prov_activities,
            tokens: self.tokens,
        }
    }
}

/// Per-candidate execution time: synthesis + characterization, with
/// pipeline overlap when the composition is a pipeline (stages stream).
fn execution_time(pattern: Pattern, batch: usize, rng: &mut evoflow_sim::SimRng) -> SimDuration {
    let synth_h = 0.5;
    let char_h = 0.17;
    let jitter = |rng: &mut evoflow_sim::SimRng| 0.85 + 0.3 * rng.uniform();
    match pattern {
        // Pipeline: stages overlap; steady-state cost per candidate is the
        // bottleneck stage.
        Pattern::Pipeline => {
            let first = (synth_h + char_h) * jitter(rng);
            let rest = (batch.saturating_sub(1)) as f64 * synth_h.max(char_h) * jitter(rng);
            SimDuration::from_hours_f64(first + rest)
        }
        // Everything else executes the batch back-to-back on the lane's
        // instruments.
        _ => {
            let total = batch as f64 * (synth_h + char_h) * jitter(rng);
            SimDuration::from_hours_f64(total)
        }
    }
}

/// Flush the pending event batch to every observer via
/// [`LedgerObserver::on_batch`]: order within the batch is emission
/// order, so sinks cannot distinguish this from per-event delivery.
/// Timed as the *emit* phase; free when the batch is empty.
fn flush_events(
    batch: &mut EventBatch,
    prof: &mut PhaseProfiler,
    observers: &mut [&mut dyn LedgerObserver],
) {
    if batch.pending() == 0 {
        return;
    }
    let t = prof.begin();
    let n = batch.flush(observers);
    prof.end_n(Phase::Emit, t, n as u64);
}

/// Run a discovery campaign on `space` under `cfg`.
pub fn run_campaign(space: &MaterialsSpace, cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_observed(space, cfg, &mut [])
}

/// Run a discovery campaign and return its full event ledger alongside
/// the report — the recording entry point of the event-sourced substrate
/// (see [`crate::ledger`]). The report is identical to
/// [`run_campaign`]'s: recording never consumes randomness or perturbs
/// the loop.
pub fn run_campaign_recorded(
    space: &MaterialsSpace,
    cfg: &CampaignConfig,
) -> (CampaignReport, CampaignLedger) {
    let mut ledger = CampaignLedger::new();
    let report = run_campaign_observed(space, cfg, &mut [&mut ledger]);
    (report, ledger)
}

/// Run a discovery campaign, streaming every [`CampaignEvent`] to the
/// given observers as it happens (live dashboards, metrics bridges,
/// durable ledgers — see [`crate::ledger`] for the shipped sinks).
///
/// Events are only built when `observers` is non-empty, so an
/// unobserved run pays nothing for them. The report never reads the
/// stream: the loop folds each step into the same tally replay folds
/// each event into, and the knowledge counts follow from the
/// experiment count, since the librarian records one hypothesis →
/// experiment → result per executed experiment (replay rebuilds the
/// stores with a [`KnowledgeSink`](crate::ledger::KnowledgeSink)).
pub fn run_campaign_observed(
    space: &MaterialsSpace,
    cfg: &CampaignConfig,
    observers: &mut [&mut dyn LedgerObserver],
) -> CampaignReport {
    run_campaign_profiled(space, cfg, observers, &mut PhaseProfiler::disabled())
}

/// [`run_campaign_observed`] with hot-path phase profiling (see
/// [`crate::profile`]). The profiler is an out-parameter so callers can
/// aggregate across campaigns; passing
/// [`PhaseProfiler::disabled`] reduces every probe to one branch — which
/// is exactly what `run_campaign_observed` does. Profiling never touches
/// RNG or the event stream: the report and ledger are byte-identical
/// with profiling on or off.
pub fn run_campaign_profiled(
    space: &MaterialsSpace,
    cfg: &CampaignConfig,
    observers: &mut [&mut dyn LedgerObserver],
    prof: &mut PhaseProfiler,
) -> CampaignReport {
    let dim = space.dim();
    let reg = RngRegistry::new(cfg.seed);
    let mut meas_rng = reg.stream("measurement");
    let mut exec_rng = reg.stream("execution");
    let mut decide_rng = reg.stream("decision");

    let n_lanes = cfg.effective_lanes();
    let coordination = cfg.effective_coordination();
    let horizon = SimTime::ZERO + cfg.horizon;

    // The decide step is a pluggable Planner (constructed once, shared
    // across lanes — the Intelligence Service layer is a shared service,
    // Fig 2). Recording is part of the loop's *record* phase, not the
    // decision policy: observers consume the event stream the loop emits.
    let planner_kind = cfg.effective_planner();
    let mut planner = planner_kind.build(&PlannerBuild {
        space,
        reg: &reg,
        seed: cfg.seed,
        dim,
        batch_per_lane: cfg.batch_per_lane,
        n_lanes,
        shares_globally: matches!(
            cfg.cell.composition,
            Pattern::Pipeline | Pattern::Hierarchical | Pattern::Mesh
        ),
    });
    // Planner overrides are visible in the label — including their
    // parameters — so fleet aggregation never folds differently-planned
    // campaigns into one cell summary.
    let cell_label = match &cfg.planner {
        Some(kind) => format!("{} · {}", cfg.cell, kind.descriptor()),
        None => cfg.cell.to_string(),
    };
    let records_knowledge = cfg.record_knowledge && planner.records_knowledge();
    // Events exist only for observers: an unobserved run builds none.
    let observed = !observers.is_empty();
    // All events accumulate here and fan out in one `on_batch` call per
    // observer at iteration boundaries. The buffer keeps its capacity
    // across flushes, so after the first iteration the emission path
    // performs no batch-bookkeeping allocation. The cell label and
    // planner descriptor are interned into the stream exactly once, in
    // `CampaignStarted` — no per-event string cloning.
    let mut batch = EventBatch::new();
    if observed {
        batch.push(CampaignEvent::CampaignStarted {
            cell_label: cell_label.clone().into(),
            seed: cfg.seed,
            planner: planner_kind.descriptor().into(),
            lanes: n_lanes,
            horizon: cfg.horizon,
            threshold: space.threshold,
            max_experiments: cfg.max_experiments,
            records_knowledge,
        });
    }
    let mut last_telemetry = PlannerTelemetry::default();
    // Reused buffer for cooperative-planner transcripts (ensemble).
    let mut ensemble_events: Vec<CampaignEvent> = Vec::new();

    let mut clocks = vec![SimTime::ZERO; n_lanes];
    let mut tally = CampaignTally::new();
    // The anchor lent to anchored planners: the campaign-wide best so
    // far, the same for every lane under every composition. Strict `>`
    // keeps the earliest of equal scores, and a NaN score (which `max`
    // also drops from the report's best score) never becomes the best.
    let mut best: Option<Evidence> = None;

    'campaign: loop {
        // Pick the lane with the earliest clock (they run concurrently).
        let li = (0..n_lanes)
            .min_by_key(|&i| clocks[i])
            .expect("effective_lanes() is at least 1");
        let now = clocks[li];
        if now >= horizon {
            break 'campaign;
        }
        if tally.experiments() >= cfg.max_experiments {
            break 'campaign;
        }

        // ---- Decision phase ---------------------------------------------
        let decision_done = match coordination {
            CoordinationMode::HumanGated(h) => {
                let cross = n_lanes > 1 || cfg.cell.composition.rank() >= 2;
                h.decision_ready_at(now, cross, &mut decide_rng)
            }
            CoordinationMode::Autonomous => {
                // Inference latency: one reasoning call per batch.
                now + SimDuration::from_secs_f64(2.0 + 3.0 * decide_rng.uniform())
            }
        };
        tally.decided(now, decision_done);
        if observed {
            batch.push(CampaignEvent::IterationStarted {
                lane: li,
                at: now,
                decision_ready: decision_done,
            });
        }

        // Every intelligence level routes through the Planner layer: the
        // anchor is lent only to planners that consult it.
        let proposal_budget = planner.batch_size().unwrap_or(cfg.batch_per_lane).max(1);
        let mut chosen: Vec<Candidate> = Vec::with_capacity(proposal_budget);
        {
            let t = prof.begin();
            let anchor = if planner.wants_anchor() {
                let ta = prof.begin();
                let a = best.as_ref();
                prof.end(Phase::ProposeAnchor, ta);
                a
            } else {
                None
            };
            let mut pctx = PlanCtx {
                dim,
                lane: li,
                rng: &mut decide_rng,
                anchor,
                scored: 0,
            };
            let tm = prof.begin();
            planner.propose(&mut pctx, proposal_budget, &mut chosen);
            prof.end(Phase::ProposeModel, tm);
            // Counts-only sub-phase: scoring runs inside the model scope.
            prof.bump(Phase::ProposeScore, pctx.scored);
            prof.end(Phase::Propose, t);
        }
        if observed {
            for c in &chosen {
                batch.push(CampaignEvent::CandidateProposed {
                    lane: li,
                    params: c.params.clone(),
                    rationale: c.rationale.clone(),
                    confidence: c.confidence,
                    hallucinated: c.hallucinated,
                });
            }
        }

        // ---- Execution phase --------------------------------------------
        let exec = execution_time(cfg.cell.composition, chosen.len().max(1), &mut exec_rng);
        let done_at = decision_done + exec;
        tally.scheduled(exec, done_at);
        if observed {
            batch.push(CampaignEvent::ExecutionScheduled {
                lane: li,
                batch: chosen.len(),
                duration: exec,
                done_at,
            });
        }

        let mut iter_hits = 0u64;
        for c in &chosen {
            if tally.experiments() >= cfg.max_experiments {
                break;
            }
            let t = prof.begin();
            let score = space.measure(&c.params, &mut meas_rng);
            prof.end(Phase::Execute, t);
            let hit = space.is_discovery(score);

            // Feed the outcome back into the decision policy (surrogate
            // assimilation, bandit rewards, swarm bests, …).
            let t = prof.begin();
            planner.observe(&Observation {
                lane: li,
                params: &c.params,
                score,
                hit,
            });
            prof.end(Phase::Observe, t);
            let peak = if hit { space.peak_of(&c.params) } else { None };
            tally.observed(score, hit, peak);
            iter_hits += u64::from(hit);
            if observed {
                let usage = planner.token_usage();
                batch.push(CampaignEvent::ResultObserved {
                    lane: li,
                    experiment: tally.experiments(),
                    score,
                    hit,
                    peak,
                    tokens_in: usage.input_tokens,
                    tokens_out: usage.output_tokens,
                });
            }
            if best.as_ref().map_or(!score.is_nan(), |b| score > b.score) {
                best = Some(Evidence {
                    params: c.params.clone(),
                    score,
                });
            }
        }

        // ---- Meta-optimization (Ω) --------------------------------------
        planner.end_iteration(chosen.len(), iter_hits);
        // Drain the planner's cooperative transcript unconditionally —
        // the planner builds it either way (emission must never feed
        // back into decisions) — and ledger it only when observed.
        ensemble_events.clear();
        planner.drain_events(&mut ensemble_events);
        if observed {
            for event in ensemble_events.drain(..) {
                batch.push(event);
            }
            // Surface planner-internal decisions (gate rejections, Ω
            // rewrites) as events the moment their counters move.
            let t = planner.telemetry();
            if t.rejected_proposals != last_telemetry.rejected_proposals {
                batch.push(CampaignEvent::GateDecision {
                    lane: li,
                    rejected_total: t.rejected_proposals,
                });
            }
            if t.omega_rewrites != last_telemetry.omega_rewrites {
                batch.push(CampaignEvent::OmegaRewrite {
                    lane: li,
                    rewrites_total: t.omega_rewrites,
                });
            }
            last_telemetry = t;
            batch.push(CampaignEvent::IterationEnded {
                lane: li,
                proposed: chosen.len(),
                hits: iter_hits,
                tokens_total: planner.token_usage().total(),
            });
        }
        // Iteration boundary: one `on_batch` per observer for everything
        // the iteration produced.
        flush_events(&mut batch, prof, observers);

        clocks[li] = done_at;
    }

    // No planner call follows the last iteration, so these are the
    // totals its gate, Ω and iteration-end events carried.
    let telemetry = planner.telemetry();
    tally.gated(telemetry.rejected_proposals);
    tally.rewritten(telemetry.omega_rewrites);
    tally.spent(planner.token_usage().total());
    // The librarian records one hypothesis → experiment → result per
    // executed experiment; replay counts the records it pairs from the
    // stream and checks them against these.
    let records = if records_knowledge {
        tally.experiments() as usize
    } else {
        0
    };
    let kg_nodes = records * LibrarianAgent::NODES_PER_ITERATION;
    let prov_activities = records * LibrarianAgent::ACTIVITIES_PER_ITERATION;
    if observed {
        // Every report total, recorded for the replay audit's integrity
        // cross-check.
        batch.push(tally.finished(kg_nodes, prov_activities));
        flush_events(&mut batch, prof, observers);
    }
    prof.add_batches(batch.flushes(), batch.emitted());
    tally.report(cell_label, cfg.horizon, kg_nodes, prov_activities)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> MaterialsSpace {
        MaterialsSpace::generate(3, 8, 20260610)
    }

    fn run_cell(
        level: IntelligenceLevel,
        pattern: Pattern,
        coord: Option<CoordinationMode>,
        days: u64,
    ) -> CampaignReport {
        let mut cfg = CampaignConfig::for_cell(Cell::new(level, pattern), 7);
        cfg.horizon = SimDuration::from_days(days);
        cfg.coordination = coord;
        run_campaign(&space(), &cfg)
    }

    #[test]
    fn autonomous_swarm_processes_far_more_samples() {
        let manual = run_cell(
            IntelligenceLevel::Static,
            Pattern::Pipeline,
            Some(CoordinationMode::HumanGated(HumanModel::typical_pi())),
            14,
        );
        let auto = run_cell(
            IntelligenceLevel::Intelligent,
            Pattern::Swarm { k: 4 },
            Some(CoordinationMode::Autonomous),
            14,
        );
        let ratio = auto.samples_per_day / manual.samples_per_day.max(1e-9);
        assert!(
            ratio > 10.0,
            "samples/day ratio {ratio:.1} (auto {:.1} vs manual {:.1})",
            auto.samples_per_day,
            manual.samples_per_day
        );
    }

    #[test]
    fn autonomous_swarm_discovers_more_materials() {
        let manual = run_cell(
            IntelligenceLevel::Adaptive,
            Pattern::Pipeline,
            Some(CoordinationMode::HumanGated(HumanModel::typical_pi())),
            21,
        );
        let auto = run_cell(
            IntelligenceLevel::Intelligent,
            Pattern::Swarm { k: 4 },
            Some(CoordinationMode::Autonomous),
            21,
        );
        assert!(
            auto.distinct_discoveries > manual.distinct_discoveries,
            "auto {} vs manual {}",
            auto.distinct_discoveries,
            manual.distinct_discoveries
        );
        assert!(
            auto.time_to_first_hours.unwrap_or(f64::INFINITY)
                < manual.time_to_first_hours.unwrap_or(f64::INFINITY)
        );
    }

    #[test]
    fn decision_wait_dominates_human_campaigns() {
        let manual = run_cell(
            IntelligenceLevel::Static,
            Pattern::Pipeline,
            Some(CoordinationMode::HumanGated(HumanModel::typical_pi())),
            14,
        );
        assert!(
            manual.decision_wait_hours > manual.execution_hours,
            "wait {:.1}h vs exec {:.1}h",
            manual.decision_wait_hours,
            manual.execution_hours
        );
        let auto = run_cell(
            IntelligenceLevel::Intelligent,
            Pattern::Swarm { k: 4 },
            Some(CoordinationMode::Autonomous),
            14,
        );
        assert!(auto.decision_wait_hours < auto.execution_hours);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_cell(IntelligenceLevel::Learning, Pattern::Mesh, None, 7);
        let b = run_cell(IntelligenceLevel::Learning, Pattern::Mesh, None, 7);
        assert_eq!(a.experiments, b.experiments);
        assert_eq!(a.distinct_discoveries, b.distinct_discoveries);
        assert_eq!(a.best_score, b.best_score);

        // Seeded replay of an autonomous-science campaign.
        let space = MaterialsSpace::generate(3, 8, 42);
        let mut cfg = CampaignConfig::for_cell(Cell::autonomous_science(), 11);
        cfg.horizon = SimDuration::from_days(1);
        cfg.coordination = Some(CoordinationMode::Autonomous);
        assert_eq!(run_campaign(&space, &cfg), run_campaign(&space, &cfg));
    }

    #[test]
    fn intelligent_campaign_builds_knowledge_and_provenance() {
        let auto = run_cell(
            IntelligenceLevel::Intelligent,
            Pattern::Swarm { k: 4 },
            Some(CoordinationMode::Autonomous),
            3,
        );
        assert!(auto.kg_nodes > 0);
        assert!(auto.prov_activities > 0);
        assert!(auto.tokens > 0);
        // Static campaigns record nothing in the KG.
        let stat = run_cell(IntelligenceLevel::Static, Pattern::Pipeline, None, 3);
        assert_eq!(stat.kg_nodes, 0);
    }

    #[test]
    fn sample_budget_caps_experiments() {
        let mut cfg = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
            3,
        );
        cfg.horizon = SimDuration::from_days(30);
        cfg.coordination = Some(CoordinationMode::Autonomous);
        cfg.max_experiments = 100;
        let r = run_campaign(&space(), &cfg);
        assert!(r.experiments <= 100);
    }

    #[test]
    fn lanes_derived_from_composition() {
        let c = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Static, Pattern::Single), 0);
        assert_eq!(c.effective_lanes(), 1);
        let c = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Static, Pattern::Swarm { k: 4 }),
            0,
        );
        assert_eq!(c.effective_lanes(), 8);
        // Zero lanes means "derive", like an absent count.
        let mut zero = c.clone();
        zero.lanes = Some(0);
        assert_eq!(zero.effective_lanes(), 8);
    }
}
