//! The synthetic materials-discovery domain.
//!
//! Stands in for the paper's materials campaigns (A-lab, §2.3; the Fig 4
//! scenario): a latent figure-of-merit landscape over a `[0,1]^d` design
//! space built from seeded Gaussian peaks on a smooth background. "Novel
//! materials" are design points whose measured score crosses a threshold
//! near one of the peaks. The substitution argument (DESIGN.md §2): the
//! discovery loop only needs a black-box objective with realistic structure
//! — sparse sharp optima, broad mediocre regions, measurement noise, and
//! costly evaluations.

use evoflow_agents::Evidence;
use evoflow_sim::{RngRegistry, SimRng};
use serde::{Deserialize, Serialize};

/// A Gaussian peak in the landscape.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Peak {
    center: Vec<f64>,
    height: f64,
    width: f64,
}

/// The latent materials landscape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaterialsSpace {
    dim: usize,
    peaks: Vec<Peak>,
    /// Discovery threshold: measured score ≥ this counts as a novel
    /// material.
    pub threshold: f64,
    /// Measurement noise standard deviation.
    pub noise_sd: f64,
}

impl MaterialsSpace {
    /// Generate a landscape with `n_peaks` seeded peaks in `dim` dimensions.
    ///
    /// Peaks have heights in [0.7, 1.0] and widths in [0.05, 0.15]; the
    /// background is a gentle slope capped well below the threshold, so
    /// discoveries require actually finding peaks.
    pub fn generate(dim: usize, n_peaks: usize, seed: u64) -> Self {
        let reg = RngRegistry::new(seed);
        let mut rng = reg.stream("materials-space");
        let peaks = (0..n_peaks)
            .map(|_| Peak {
                center: (0..dim).map(|_| rng.uniform_range(0.1, 0.9)).collect(),
                height: rng.uniform_range(0.7, 1.0),
                width: rng.uniform_range(0.05, 0.15),
            })
            .collect();
        MaterialsSpace {
            dim,
            peaks,
            threshold: 0.6,
            noise_sd: 0.03,
        }
    }

    /// Design-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of latent peaks (ground truth, for evaluation only).
    pub fn peak_count(&self) -> usize {
        self.peaks.len()
    }

    /// The latent (noise-free) figure of merit at `x`.
    pub fn latent(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        // Gentle background slope keeps naive hill-climbers honest.
        let background = 0.1 * x.iter().sum::<f64>() / self.dim as f64;
        let peaks: f64 = self
            .peaks
            .iter()
            .map(|p| {
                let d2: f64 = x.iter().zip(&p.center).map(|(a, b)| (a - b).powi(2)).sum();
                p.height * (-d2 / (2.0 * p.width * p.width)).exp()
            })
            .fold(0.0, f64::max);
        background + peaks
    }

    /// A noisy measurement of the figure of merit (one characterization).
    pub fn measure(&self, x: &[f64], rng: &mut SimRng) -> f64 {
        self.latent(x) + rng.normal_with(0.0, self.noise_sd)
    }

    /// Whether a measured score counts as a novel-material discovery.
    pub fn is_discovery(&self, score: f64) -> bool {
        score >= self.threshold
    }

    /// Which peak (if any) a point belongs to — used to count *distinct*
    /// discoveries, since re-measuring the same peak is not a new material.
    pub fn peak_of(&self, x: &[f64]) -> Option<usize> {
        self.peaks
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let d2: f64 = x.iter().zip(&p.center).map(|(a, b)| (a - b).powi(2)).sum();
                d2.sqrt() < 2.0 * p.width
            })
            // The filter keeps only finite, non-negative distances, where
            // `total_cmp` orders exactly as `partial_cmp` does.
            .min_by(|(_, a), (_, b)| {
                let da: f64 = x.iter().zip(&a.center).map(|(u, v)| (u - v).powi(2)).sum();
                let db: f64 = x.iter().zip(&b.center).map(|(u, v)| (u - v).powi(2)).sum();
                da.total_cmp(&db)
            })
            .map(|(i, _)| i)
    }

    /// Synthesize a "published literature" corpus: noisy, mostly-mediocre
    /// historical measurements with a few hints near peaks (what a
    /// literature agent can mine).
    pub fn literature_corpus(&self, n: usize, seed: u64) -> Vec<Evidence> {
        let reg = RngRegistry::new(seed);
        let mut rng = reg.stream("literature");
        (0..n)
            .map(|i| {
                let params: Vec<f64> = if i % 10 == 0 && !self.peaks.is_empty() {
                    // Occasional near-peak prior art, displaced and noisy.
                    let p = &self.peaks[i / 10 % self.peaks.len()];
                    p.center
                        .iter()
                        .map(|c| (c + rng.normal_with(0.0, 0.1)).clamp(0.0, 1.0))
                        .collect()
                } else {
                    (0..self.dim).map(|_| rng.uniform()).collect()
                };
                let score = self.measure(&params, &mut rng);
                Evidence { params, score }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = MaterialsSpace::generate(3, 5, 42);
        let b = MaterialsSpace::generate(3, 5, 42);
        let x = [0.3, 0.6, 0.9];
        assert_eq!(a.latent(&x), b.latent(&x));
        let c = MaterialsSpace::generate(3, 5, 43);
        assert_ne!(a.latent(&x), c.latent(&x));
    }

    #[test]
    fn peaks_rise_above_background() {
        let s = MaterialsSpace::generate(2, 3, 7);
        // Background alone is at most 0.1; peak centers reach ≥ 0.7.
        let far = [0.001, 0.001];
        assert!(s.latent(&far) < s.threshold);
        // At least one point near a peak center crosses the threshold.
        let best = (0..s.peak_count())
            .map(|i| s.latent(&s.peaks[i].center))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best >= 0.7);
    }

    #[test]
    fn measurement_noise_is_bounded() {
        let s = MaterialsSpace::generate(2, 2, 1);
        let mut rng = SimRng::from_seed_u64(9);
        let x = [0.5, 0.5];
        let latent = s.latent(&x);
        let mean: f64 = (0..500).map(|_| s.measure(&x, &mut rng)).sum::<f64>() / 500.0;
        assert!((mean - latent).abs() < 0.01);
    }

    #[test]
    fn peak_attribution() {
        let s = MaterialsSpace::generate(2, 4, 11);
        for i in 0..s.peak_count() {
            let center = s.peaks[i].center.clone();
            assert_eq!(s.peak_of(&center), Some(i));
        }
        assert_eq!(s.peak_of(&[0.0, 0.0]), s.peak_of(&[0.0, 0.0])); // stable
    }

    #[test]
    fn literature_contains_hints() {
        let s = MaterialsSpace::generate(3, 5, 2);
        let corpus = s.literature_corpus(100, 3);
        assert_eq!(corpus.len(), 100);
        // The hinted entries (every 10th) should contain some high scores.
        let best = corpus
            .iter()
            .map(|e| e.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 0.3, "best literature score {best}");
        assert!(corpus
            .iter()
            .all(|e| e.params.iter().all(|v| (0.0..=1.0).contains(v))));
    }
}
