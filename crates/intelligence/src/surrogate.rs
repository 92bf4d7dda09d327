//! RBF surrogate model + Bayesian optimization (expected improvement).
//!
//! This is the "ML-guided parameter selection" → "automated tuning" pair of
//! §3.2's existing-system mapping: a cheap model of an expensive objective,
//! plus an acquisition loop that balances exploration and exploitation —
//! `δ* = argmin_δ J(δ)` made concrete.
//!
//! The surrogate is the innermost kernel of the campaign propose path
//! (every surrogate-backed planner scores tens of candidates against
//! hundreds of observations per proposal), so its layout is tuned for
//! that loop:
//!
//! * **Contiguous flat storage.** Observations live in one stride-`dim`
//!   `Vec<f64>` instead of a `Vec<Vec<f64>>` — one allocation that grows
//!   amortized, no pointer chase per observation when scanning.
//! * **Cached incumbent.** [`observe`](RbfSurrogate::observe) maintains
//!   the best index as observations arrive, so
//!   [`best`](RbfSurrogate::best) and every [`acquisition`] call are
//!   O(1) instead of rescanning all values per candidate.
//! * **Batched scoring.** [`score_batch_with`](RbfSurrogate::score_batch_with)
//!   scores a whole candidate pool in one pass over the observations
//!   with reused scratch buffers, preserving the exact float-op order of
//!   the naive per-candidate path — predictions are bit-identical, which
//!   the [`mod@reference`] module and `bench_propose` gate.

use crate::objective::Objective;
use evoflow_sim::SimRng;
use serde::{Deserialize, Serialize};

pub mod reference;

/// Reusable per-candidate accumulators for
/// [`RbfSurrogate::score_batch_with`] /
/// [`RbfSurrogate::predict_batch_with`]. One instance can be shared by
/// every surrogate in a planner pool — the buffers are resized to the
/// candidate count on each call and carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct AccScratch {
    wsum: Vec<f64>,
    vsum: Vec<f64>,
    min_d2: Vec<f64>,
}

impl AccScratch {
    /// Reset the accumulators for `n` candidates.
    fn reset(&mut self, n: usize) {
        self.wsum.clear();
        self.wsum.resize(n, 0.0);
        self.vsum.clear();
        self.vsum.resize(n, 0.0);
        self.min_d2.clear();
        self.min_d2.resize(n, f64::INFINITY);
    }
}

/// Full scoring scratch for a propose loop: candidate buffer, score
/// buffer, and the accumulator set, all reused across iterations. Each
/// scorer (e.g. an analysis agent) owns one, and every call resizes the
/// buffers it uses.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// Flat stride-`dim` candidate coordinates.
    pub candidates: Vec<f64>,
    /// One acquisition score (or prediction slot) per candidate.
    pub scores: Vec<f64>,
    /// Per-candidate accumulators for the batched kernels.
    pub acc: AccScratch,
}

/// A Gaussian-kernel RBF regressor with Nadaraya–Watson weighting.
///
/// Chosen over full kriging because it needs no linear solves (no external
/// linear-algebra dependency) while still giving smooth interpolation and a
/// distance-based uncertainty proxy — all BO here needs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RbfSurrogate {
    /// Flat observation coordinates, stride [`dim`](Self::dim).
    points: Vec<f64>,
    values: Vec<f64>,
    /// Coordinates per observation (fixed by the first `observe`).
    dim: usize,
    /// Cached incumbent: index of the first minimal value, maintained by
    /// `observe` so `best` never rescans.
    best_idx: Option<usize>,
    /// Kernel bandwidth.
    pub bandwidth: f64,
}

impl RbfSurrogate {
    /// Create an empty surrogate with the given kernel bandwidth.
    pub fn new(bandwidth: f64) -> Self {
        RbfSurrogate {
            points: Vec::new(),
            values: Vec::new(),
            dim: 0,
            best_idx: None,
            bandwidth: bandwidth.max(1e-6),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the surrogate has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `i`-th observed point.
    fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Add an observation.
    ///
    /// Non-finite coordinates or values are rejected: a NaN observation
    /// would poison the cached incumbent and make every downstream
    /// comparison lie. A campaign reaches them from its input (a space
    /// whose noise or background is not finite), so they are dropped,
    /// never asserted. Points whose dimensionality differs from the first
    /// observation's are rejected the same way — flat storage is
    /// stride-`dim` by construction.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        if !(y.is_finite() && x.iter().all(|v| v.is_finite())) {
            return;
        }
        if self.values.is_empty() {
            self.dim = x.len();
        } else if x.len() != self.dim {
            // Flat storage is stride-`dim`; points of any other length
            // cannot be stored. Dropped silently (not asserted): test
            // fixtures legitimately mix literature-bootstrap dims with
            // a smaller probe dim, and the old nested storage merely
            // zip-truncated such points into noise anyway.
            return;
        }
        self.points.extend_from_slice(x);
        self.values.push(y);
        let idx = self.values.len() - 1;
        // First minimal value wins ties, matching a front-to-back scan.
        if self.best_idx.map(|b| y < self.values[b]).unwrap_or(true) {
            self.best_idx = Some(idx);
        }
    }

    /// Best (lowest) observed value, if any. O(1) — the incumbent is
    /// maintained by [`observe`](Self::observe) — and total: only finite
    /// values are ever stored, so no comparison can fail.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        let idx = self.best_idx?;
        Some((self.point(idx), self.values[idx]))
    }

    /// The incumbent value with the empty-surrogate default the
    /// acquisition uses.
    fn incumbent(&self) -> f64 {
        self.best_idx.map(|b| self.values[b]).unwrap_or(0.0)
    }

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
    }

    /// Predict `(mean, uncertainty)` at `x`. Uncertainty is a distance-to-
    /// data proxy in \[0,1\]: 0 on top of data, →1 far from all data.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        if self.values.is_empty() {
            return (0.0, 1.0);
        }
        let h2 = self.bandwidth * self.bandwidth;
        let mut wsum = 0.0;
        let mut vsum = 0.0;
        let mut min_d2 = f64::INFINITY;
        for (i, v) in self.values.iter().enumerate() {
            let d2 = Self::sq_dist(self.point(i), x);
            min_d2 = min_d2.min(d2);
            let w = (-d2 / (2.0 * h2)).exp().max(1e-300);
            wsum += w;
            vsum += w * v;
        }
        let mean = vsum / wsum;
        let uncertainty = 1.0 - (-min_d2 / (2.0 * h2)).exp();
        (mean, uncertainty)
    }

    /// [`predict`](Self::predict) for a flat stride-`dim` candidate
    /// buffer in one pass over the observations, appending one
    /// `(mean, uncertainty)` pair per candidate to `out`.
    ///
    /// The accumulation visits observations in storage order for every
    /// candidate — exactly the order the naive per-candidate loop uses —
    /// so results are bit-identical to calling `predict` per candidate.
    pub fn predict_batch_with(
        &self,
        dim: usize,
        candidates: &[f64],
        scratch: &mut AccScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        let n = self.accumulate(dim, candidates, scratch);
        let h2 = self.bandwidth * self.bandwidth;
        for j in 0..n {
            if self.values.is_empty() {
                out.push((0.0, 1.0));
            } else {
                let mean = scratch.vsum[j] / scratch.wsum[j];
                let uncertainty = 1.0 - (-scratch.min_d2[j] / (2.0 * h2)).exp();
                out.push((mean, uncertainty));
            }
        }
    }

    /// Score a flat stride-`dim` candidate buffer under the
    /// exploration-weighted [`acquisition`], one score per candidate
    /// appended to `out`, in a single cache-friendly pass over the
    /// observations with reused scratch buffers.
    ///
    /// Bit-identical to calling [`acquisition`] per candidate (gated by
    /// `bench_propose` and the `surrogate_equivalence` battery): the
    /// per-candidate accumulators see observations in the same order and
    /// the finishing ops are identical, and the incumbent is the cached
    /// O(1) one.
    pub fn score_batch_with(
        &self,
        dim: usize,
        candidates: &[f64],
        kappa: f64,
        scratch: &mut AccScratch,
        out: &mut Vec<f64>,
    ) {
        let n = self.accumulate(dim, candidates, scratch);
        let h2 = self.bandwidth * self.bandwidth;
        let incumbent = self.incumbent();
        for j in 0..n {
            let (mean, unc) = if self.values.is_empty() {
                (0.0, 1.0)
            } else {
                let mean = scratch.vsum[j] / scratch.wsum[j];
                let unc = 1.0 - (-scratch.min_d2[j] / (2.0 * h2)).exp();
                (mean, unc)
            };
            out.push((incumbent - mean) + kappa * unc);
        }
    }

    /// [`score_batch_with`](Self::score_batch_with) with a throwaway
    /// scratch, for callers outside the hot loop.
    pub fn score_batch(&self, dim: usize, candidates: &[f64], kappa: f64, out: &mut Vec<f64>) {
        let mut scratch = AccScratch::default();
        self.score_batch_with(dim, candidates, kappa, &mut scratch, out);
    }

    /// The shared inner pass: stream the observations once, feeding every
    /// candidate's `(wsum, vsum, min_d2)` accumulators. Candidate `j`'s
    /// accumulators receive contributions in observation order whichever
    /// loop is outermost, which is what keeps the batch bit-identical to
    /// the naive path. Returns the candidate count.
    fn accumulate(&self, dim: usize, candidates: &[f64], scratch: &mut AccScratch) -> usize {
        let stride = dim.max(1);
        let n = candidates.len() / stride;
        scratch.reset(n);
        if self.values.is_empty() {
            return n;
        }
        let h2 = self.bandwidth * self.bandwidth;
        for (i, v) in self.values.iter().enumerate() {
            let p = self.point(i);
            for j in 0..n {
                let x = &candidates[j * stride..j * stride + dim];
                let d2 = Self::sq_dist(p, x);
                scratch.min_d2[j] = scratch.min_d2[j].min(d2);
                let w = (-d2 / (2.0 * h2)).exp().max(1e-300);
                scratch.wsum[j] += w;
                scratch.vsum[j] += w * v;
            }
        }
        n
    }
}

/// Expected-improvement-style acquisition: improvement of the predicted
/// mean over the incumbent, plus an exploration bonus proportional to
/// uncertainty. Higher is better. The incumbent is the surrogate's cached
/// one — O(1), not a rescan of every value per candidate.
pub fn acquisition(surrogate: &RbfSurrogate, x: &[f64], kappa: f64) -> f64 {
    let incumbent = surrogate.incumbent();
    let (mean, unc) = surrogate.predict(x);
    (incumbent - mean) + kappa * unc
}

/// Configuration for the Bayesian-optimization loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BoConfig {
    /// Random initial samples before the model drives.
    pub init_samples: usize,
    /// Candidate points scored per iteration.
    pub candidates_per_iter: usize,
    /// Exploration weight κ in the acquisition.
    pub kappa: f64,
    /// RBF kernel bandwidth.
    pub bandwidth: f64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            init_samples: 8,
            candidates_per_iter: 64,
            kappa: 0.5,
            bandwidth: 0.15,
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptResult {
    /// Best point found.
    pub best_x: Vec<f64>,
    /// Best value found.
    pub best_y: f64,
    /// Objective evaluations used.
    pub evals: u64,
    /// Best-so-far trace, one entry per evaluation.
    pub trace: Vec<f64>,
}

/// Run Bayesian optimization for `budget` evaluations of `f`.
///
/// The candidate pool is drawn first (scoring consumes no randomness, so
/// the draw sequence matches the old interleaved loop) and scored in one
/// [`RbfSurrogate::score_batch_with`] pass with scratch reused across
/// iterations; the argmax keeps the first maximal score, matching the
/// naive strict-greater scan.
pub fn bayes_opt<O: Objective>(
    f: &mut O,
    budget: u64,
    cfg: BoConfig,
    rng: &mut SimRng,
) -> OptResult {
    let dim = f.dim();
    let mut surrogate = RbfSurrogate::new(cfg.bandwidth);
    let mut trace = Vec::with_capacity(budget as usize);
    let mut best_x = vec![0.5; dim];
    let mut best_y = f64::INFINITY;
    let mut cands: Vec<f64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let mut scratch = AccScratch::default();

    for i in 0..budget {
        let x: Vec<f64> = if (i as usize) < cfg.init_samples || surrogate.is_empty() {
            (0..dim).map(|_| rng.uniform()).collect()
        } else {
            // Draw the candidate pool (half global, half near incumbent),
            // then score it in one batched pass.
            let incumbent = surrogate
                .best()
                .map(|(p, _)| p)
                .expect("non-empty")
                .to_vec();
            cands.clear();
            for c in 0..cfg.candidates_per_iter.max(1) {
                if c % 2 == 0 {
                    for _ in 0..dim {
                        cands.push(rng.uniform());
                    }
                } else {
                    for v in &incumbent {
                        cands.push((v + rng.normal_with(0.0, 0.1)).clamp(0.0, 1.0));
                    }
                }
            }
            scores.clear();
            surrogate.score_batch_with(dim, &cands, cfg.kappa, &mut scratch, &mut scores);
            let mut bi = 0;
            for (j, s) in scores.iter().enumerate().skip(1) {
                if *s > scores[bi] {
                    bi = j;
                }
            }
            cands[bi * dim..(bi + 1) * dim].to_vec()
        };

        let y = f.eval(&x);
        surrogate.observe(&x, y);
        if y < best_y {
            best_y = y;
            best_x = x;
        }
        trace.push(best_y);
    }

    OptResult {
        best_x,
        best_y,
        evals: budget,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Rastrigin, Sphere};

    #[test]
    fn surrogate_interpolates() {
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.0, 0.0], 1.0);
        s.observe(&[1.0, 1.0], 3.0);
        let (at_a, unc_a) = s.predict(&[0.0, 0.0]);
        assert!((at_a - 1.0).abs() < 0.05, "at_a {at_a}");
        assert!(unc_a < 0.01);
        let (_, unc_far) = s.predict(&[0.5, 0.9]);
        assert!(unc_far > unc_a);
        let (mid, _) = s.predict(&[0.5, 0.5]);
        assert!(mid > 1.0 && mid < 3.0);
    }

    #[test]
    fn empty_surrogate_is_maximally_uncertain() {
        let s = RbfSurrogate::new(0.2);
        assert_eq!(s.predict(&[0.3]), (0.0, 1.0));
        assert!(s.best().is_none());
    }

    #[test]
    fn cached_incumbent_tracks_first_minimum() {
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.1], 2.0);
        s.observe(&[0.2], 1.0);
        s.observe(&[0.3], 1.0); // tie: first minimum keeps the incumbency
        s.observe(&[0.4], 5.0);
        let (p, v) = s.best().expect("non-empty");
        assert_eq!((p, v), (&[0.2][..], 1.0));
    }

    #[test]
    fn best_is_total_when_nan_was_observed() {
        // The old implementation panicked in `best()` via
        // `.expect("finite values")`; now the poison is rejected at the
        // door, in every build, and every query stays total.
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.5], 1.0);
        s.observe(&[0.6], f64::NAN);
        s.observe(&[f64::INFINITY], 0.1);
        s.observe(&[0.7], f64::NEG_INFINITY);
        assert_eq!(s.len(), 1);
        let (p, v) = s.best().expect("finite observation retained");
        assert_eq!((p, v), (&[0.5][..], 1.0));
        assert!(s.predict(&[0.5]).0.is_finite());
    }

    #[test]
    fn score_batch_matches_per_candidate_acquisition() {
        let mut s = RbfSurrogate::new(0.15);
        let mut rng = SimRng::from_seed_u64(5);
        for _ in 0..40 {
            let x = [rng.uniform(), rng.uniform(), rng.uniform()];
            s.observe(&x, rng.uniform() * 4.0 - 2.0);
        }
        let dim = 3;
        let cands: Vec<f64> = (0..32 * dim).map(|_| rng.uniform()).collect();
        let mut batch = Vec::new();
        s.score_batch(dim, &cands, 0.6, &mut batch);
        assert_eq!(batch.len(), 32);
        for (j, b) in batch.iter().enumerate() {
            let naive = acquisition(&s, &cands[j * dim..(j + 1) * dim], 0.6);
            assert_eq!(naive.to_bits(), b.to_bits(), "candidate {j}");
        }
        // Empty surrogate: acquisition degenerates to kappa.
        let empty = RbfSurrogate::new(0.15);
        let mut out = Vec::new();
        empty.score_batch(dim, &cands[..dim], 0.6, &mut out);
        assert_eq!(out, vec![0.6]);
    }

    #[test]
    fn acquisition_prefers_unexplored_when_kappa_high() {
        let mut s = RbfSurrogate::new(0.1);
        s.observe(&[0.5, 0.5], 1.0);
        let near = acquisition(&s, &[0.5, 0.5], 2.0);
        let far = acquisition(&s, &[0.05, 0.95], 2.0);
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn bo_beats_random_on_sphere() {
        let mut rng = SimRng::from_seed_u64(10);
        let mut f = Sphere::new(3);
        let bo = bayes_opt(&mut f, 60, BoConfig::default(), &mut rng);

        // Pure random baseline with the same budget and a fresh stream.
        let mut rng2 = SimRng::from_seed_u64(11);
        let mut f2 = Sphere::new(3);
        let mut best_rand = f64::INFINITY;
        for _ in 0..60 {
            let x: Vec<f64> = (0..3).map(|_| rng2.uniform()).collect();
            best_rand = best_rand.min(f2.eval(&x));
        }
        assert!(
            bo.best_y < best_rand,
            "bo {:.4} vs random {:.4}",
            bo.best_y,
            best_rand
        );
        assert_eq!(bo.evals, 60);
        assert_eq!(bo.trace.len(), 60);
    }

    #[test]
    fn bo_trace_is_monotone_nonincreasing() {
        let mut rng = SimRng::from_seed_u64(12);
        let mut f = Rastrigin::new(2);
        let r = bayes_opt(&mut f, 40, BoConfig::default(), &mut rng);
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
