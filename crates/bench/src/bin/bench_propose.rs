//! **Propose-path harness — is the optimized surrogate hot path
//! bit-identical, and how much does a proposal cost?**
//!
//! The propose overhaul (flat surrogate storage, cached incumbents,
//! batched acquisition scoring, incremental anchors) is only allowed to
//! change *wall-clock*, never trajectories. This binary gates that
//! contract end to end:
//!
//! * **Bit-identity.** For every surrogate-backed planner (surrogate,
//!   agentic, meta, ensemble) a seeded campaign is run and its ledger's
//!   proposal→result stream is replayed into a mirrored pair of
//!   surrogates: the optimized [`RbfSurrogate`] and the retained naive
//!   [`NaiveRbfSurrogate`] reference. At every step the cached
//!   incumbent must match the reference's full rescan bit-for-bit, and
//!   on periodic seeded candidate pools every batched prediction and
//!   acquisition score must match the naive per-candidate path
//!   bit-for-bit (`f64::to_bits` equality, not epsilon).
//! * **Overhead budget.** The profiled propose phase must average under
//!   [`PROPOSE_BUDGET_NANOS`] per proposal. The measured cost lives on
//!   stdout only — the artifact records just the verdict.
//! * **Determinism.** Phase counts and the ledger are identical on
//!   rerun; CI additionally runs this binary twice and byte-diffs
//!   `BENCH_propose.json`.
//!
//! Read `BENCH_propose.json` as: one entry per planner with its
//! proposal/anchor/model/score counts (the `propose.*` sub-phase
//! taxonomy of `evoflow_core::profile`) plus the mirror-replay check
//! counts; `equivalence_mismatches` must be 0 everywhere, and `gates`
//! records every check above.

use evoflow_bench::{print_table, write_bench_summary, Gates};
use evoflow_core::{
    run_campaign_profiled, CampaignConfig, CampaignEvent, CampaignLedger, Cell, MaterialsSpace,
    Phase, PhaseBreakdown, PhaseProfiler, PlannerKind,
};
use evoflow_learn::{AccScratch, NaiveRbfSurrogate, RbfSurrogate};
use evoflow_sim::{SimDuration, SimRng};
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::collections::VecDeque;
use std::process::ExitCode;

/// Acquisition exploration weight used by the analysis agents.
const KAPPA: f64 = 0.6;
/// Candidates per seeded comparison pool.
const POOL: usize = 16;
/// Compare a candidate pool every this many mirrored observations.
const POOL_EVERY: usize = 8;
/// Surrogate bandwidth, matching [`evoflow_agents::AnalysisAgent`].
const BANDWIDTH: f64 = 0.12;
/// Propose overhead budget: mean nanoseconds per proposal, umbrella
/// phase (anchor + model + score). Wall-clock gate.
const PROPOSE_BUDGET_NANOS: u64 = 2_000_000;

fn nanos_of(bd: &PhaseBreakdown, phase: Phase) -> u64 {
    bd.phases
        .iter()
        .find(|s| s.phase == phase.name())
        .map(|s| s.nanos)
        .unwrap_or(0)
}

/// Replay a campaign ledger's proposal→result stream into mirrored
/// optimized/naive surrogates, bit-comparing incumbents, predictions,
/// and acquisition scores. Returns `(observations, checks, mismatches)`.
fn mirror_replay(ledger: &CampaignLedger, dim: usize, lanes: usize, seed: u64) -> (u64, u64, u64) {
    let mut fast = RbfSurrogate::new(BANDWIDTH);
    let mut naive = NaiveRbfSurrogate::new(BANDWIDTH);
    let mut pending: Vec<VecDeque<Vec<f64>>> = vec![VecDeque::new(); lanes];
    let mut rng = SimRng::from_seed_u64(seed ^ 0x9E3779B97F4A7C15);
    let mut scratch = AccScratch::default();
    let (mut cands, mut preds, mut scores) = (Vec::new(), Vec::new(), Vec::new());
    let (mut observations, mut checks, mut mismatches) = (0u64, 0u64, 0u64);

    let mut compare_pool = |fast: &RbfSurrogate, naive: &NaiveRbfSurrogate| -> (u64, u64) {
        cands.clear();
        for _ in 0..POOL * dim {
            cands.push(rng.uniform());
        }
        preds.clear();
        fast.predict_batch_with(dim, &cands, &mut scratch, &mut preds);
        scores.clear();
        fast.score_batch_with(dim, &cands, KAPPA, &mut scratch, &mut scores);
        let (mut c_checks, mut c_miss) = (0u64, 0u64);
        for j in 0..POOL {
            let c = &cands[j * dim..(j + 1) * dim];
            let (nm, nu) = naive.predict(c);
            let ns = naive.acquisition(c, KAPPA);
            c_checks += 3;
            c_miss += u64::from(preds[j].0.to_bits() != nm.to_bits());
            c_miss += u64::from(preds[j].1.to_bits() != nu.to_bits());
            c_miss += u64::from(scores[j].to_bits() != ns.to_bits());
        }
        (c_checks, c_miss)
    };

    // Degenerate pass: the empty surrogate must already agree.
    let (c, m) = compare_pool(&fast, &naive);
    checks += c;
    mismatches += m;

    for ev in &ledger.events {
        match ev {
            CampaignEvent::CandidateProposed { lane, params, .. } => {
                pending[*lane].push_back(params.clone());
            }
            CampaignEvent::ResultObserved { lane, score, .. } => {
                let params = pending[*lane]
                    .pop_front()
                    .expect("every result follows its lane's proposal");
                // Mirror the analysis agents: minimize the negated score.
                fast.observe(&params, -score);
                naive.observe(&params, -score);
                observations += 1;
                let fb = fast.best().map(|(x, y)| (x.to_vec(), y.to_bits()));
                let nb = naive.best().map(|(x, y)| (x.to_vec(), y.to_bits()));
                checks += 1;
                mismatches += u64::from(fb != nb);
                if (observations as usize).is_multiple_of(POOL_EVERY) {
                    let (c, m) = compare_pool(&fast, &naive);
                    checks += c;
                    mismatches += m;
                }
            }
            _ => {}
        }
    }
    (observations, checks, mismatches)
}

fn config(kind: &PlannerKind, seed: u64) -> CampaignConfig {
    let pattern = evoflow_agents::Pattern::Swarm { k: 4 };
    let mut cfg = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Optimizing, pattern), seed);
    cfg.horizon = SimDuration::from_days(5);
    cfg.with_planner(kind.clone())
}

#[derive(Serialize)]
struct PlannerOut {
    planner: String,
    experiments: u64,
    proposals: u64,
    anchor_scans: u64,
    model_calls: u64,
    candidates_scored: u64,
    observations_mirrored: u64,
    equivalence_checks: u64,
    equivalence_mismatches: u64,
}

#[derive(Serialize)]
struct Out {
    kappa: f64,
    pool: usize,
    budget_nanos_per_proposal: u64,
    planners: Vec<PlannerOut>,
    gates: Gates,
}

fn main() -> ExitCode {
    let space = MaterialsSpace::generate(3, 8, 777);
    let kinds: Vec<(&str, PlannerKind)> = vec![
        ("surrogate", PlannerKind::Surrogate),
        ("agentic", PlannerKind::Agentic),
        ("meta", PlannerKind::meta()),
        ("ensemble", PlannerKind::ensemble()),
    ];

    let mut rows = Vec::new();
    let mut planners = Vec::new();
    let (mut reruns_identical, mut within_budget) = (true, true);
    for (i, (label, kind)) in kinds.iter().enumerate() {
        let seed = 4100 + i as u64;
        let cfg = config(kind, seed);
        let lanes = cfg.effective_lanes();
        let mut ledger = CampaignLedger::new();
        let mut prof = PhaseProfiler::enabled();
        let report = run_campaign_profiled(&space, &cfg, &mut [&mut ledger], &mut prof);
        let bd = prof.breakdown();

        // ---- Gate: deterministic on rerun --------------------------------
        let mut ledger2 = CampaignLedger::new();
        let mut prof2 = PhaseProfiler::enabled();
        run_campaign_profiled(&space, &cfg, &mut [&mut ledger2], &mut prof2);
        reruns_identical &=
            ledger == ledger2 && bd.counts_only() == prof2.breakdown().counts_only();

        // ---- Gate: optimized surrogate ≡ naive reference, bit for bit ----
        let (obs, checks, mismatches) = mirror_replay(&ledger, space.dim(), lanes, seed);

        // ---- Gate: propose overhead within budget (wall-clock, stdout) ---
        let proposals = bd.count_of(Phase::Propose);
        let per_proposal = nanos_of(&bd, Phase::Propose) / proposals.max(1);
        within_budget &= per_proposal <= PROPOSE_BUDGET_NANOS;

        rows.push(vec![
            (*label).to_string(),
            proposals.to_string(),
            bd.count_of(Phase::ProposeAnchor).to_string(),
            bd.count_of(Phase::ProposeScore).to_string(),
            obs.to_string(),
            checks.to_string(),
            mismatches.to_string(),
            format!("{:.1}", per_proposal as f64 / 1e3),
        ]);
        planners.push(PlannerOut {
            planner: (*label).to_string(),
            experiments: report.experiments,
            proposals,
            anchor_scans: bd.count_of(Phase::ProposeAnchor),
            model_calls: bd.count_of(Phase::ProposeModel),
            candidates_scored: bd.count_of(Phase::ProposeScore),
            observations_mirrored: obs,
            equivalence_checks: checks,
            equivalence_mismatches: mismatches,
        });
    }

    print_table(
        "Propose path: bit-identity mirror + overhead (µs/proposal is wall-clock)",
        &[
            "planner",
            "proposals",
            "anchors",
            "scored",
            "mirrored",
            "checks",
            "mismatches",
            "µs/prop",
        ],
        &rows,
    );
    println!();
    let mut gates = Gates::new();
    let n = planners.len();
    gates.check(
        format!("ledger and phase counts identical on rerun ({n} planners)"),
        reruns_identical,
    );
    gates.check(
        format!("optimized surrogate bit-identical to the naive reference ({n} planners)"),
        planners.iter().all(|p| p.equivalence_mismatches == 0),
    );
    gates.check(
        format!("mean propose cost ≤ {PROPOSE_BUDGET_NANOS} ns/proposal ({n} planners)"),
        within_budget,
    );

    let out = Out {
        kappa: KAPPA,
        pool: POOL,
        budget_nanos_per_proposal: PROPOSE_BUDGET_NANOS,
        planners,
        gates,
    };
    write_bench_summary("propose", &out);
    out.gates.exit_code()
}
