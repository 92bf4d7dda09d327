//! Multi-armed bandits: the minimal exploration/exploitation machinery
//! behind Table 1's Learning and Optimizing levels.
//!
//! Used by facility agents for instrument selection, by the campaign engine
//! for strategy choice, and by the Table 3 matrix cells that need a
//! learning single machine.

use evoflow_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A bandit policy over `arms()` arms.
pub trait BanditPolicy {
    /// Number of arms.
    fn arms(&self) -> usize;
    /// Choose an arm.
    fn select(&mut self, rng: &mut SimRng) -> usize;
    /// Report the observed reward for an arm (higher is better).
    fn update(&mut self, arm: usize, reward: f64);
    /// Empirical mean reward of an arm (0 when unplayed).
    fn mean(&self, arm: usize) -> f64;
    /// Total pulls so far.
    fn pulls(&self) -> u64;
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArmStats {
    pulls: u64,
    sum: f64,
}

/// ε-greedy: explore uniformly with probability ε, else exploit the best
/// empirical mean.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpsilonGreedy {
    stats: Vec<ArmStats>,
    /// Exploration probability.
    pub epsilon: f64,
    total: u64,
}

impl EpsilonGreedy {
    /// Create with `n_arms` arms and exploration rate `epsilon`.
    pub fn new(n_arms: usize, epsilon: f64) -> Self {
        EpsilonGreedy {
            stats: vec![ArmStats { pulls: 0, sum: 0.0 }; n_arms],
            epsilon: epsilon.clamp(0.0, 1.0),
            total: 0,
        }
    }
}

impl BanditPolicy for EpsilonGreedy {
    fn arms(&self) -> usize {
        self.stats.len()
    }
    fn select(&mut self, rng: &mut SimRng) -> usize {
        if rng.chance(self.epsilon) {
            rng.below(self.stats.len())
        } else {
            (0..self.stats.len())
                .max_by(|&a, &b| {
                    self.mean(a)
                        .partial_cmp(&self.mean(b))
                        .expect("finite means")
                })
                .expect("at least one arm")
        }
    }
    fn update(&mut self, arm: usize, reward: f64) {
        self.stats[arm].pulls += 1;
        self.stats[arm].sum += reward;
        self.total += 1;
    }
    fn mean(&self, arm: usize) -> f64 {
        let s = &self.stats[arm];
        if s.pulls == 0 {
            0.0
        } else {
            s.sum / s.pulls as f64
        }
    }
    fn pulls(&self) -> u64 {
        self.total
    }
}

/// UCB1 (Auer et al.): optimism in the face of uncertainty.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ucb1 {
    stats: Vec<ArmStats>,
    total: u64,
    /// Exploration coefficient (√2 classically).
    pub c: f64,
}

impl Ucb1 {
    /// Create with `n_arms` arms and the classic √2 coefficient.
    pub fn new(n_arms: usize) -> Self {
        Ucb1 {
            stats: vec![ArmStats { pulls: 0, sum: 0.0 }; n_arms],
            total: 0,
            c: std::f64::consts::SQRT_2,
        }
    }
}

impl BanditPolicy for Ucb1 {
    fn arms(&self) -> usize {
        self.stats.len()
    }
    fn select(&mut self, _rng: &mut SimRng) -> usize {
        // Play each arm once first.
        if let Some(unplayed) = self.stats.iter().position(|s| s.pulls == 0) {
            return unplayed;
        }
        let t = self.total as f64;
        (0..self.stats.len())
            .max_by(|&a, &b| {
                let ucb =
                    |i: usize| self.mean(i) + self.c * (t.ln() / self.stats[i].pulls as f64).sqrt();
                ucb(a).total_cmp(&ucb(b))
            })
            .expect("at least one arm")
    }
    fn update(&mut self, arm: usize, reward: f64) {
        self.stats[arm].pulls += 1;
        self.stats[arm].sum += reward;
        self.total += 1;
    }
    fn mean(&self, arm: usize) -> f64 {
        let s = &self.stats[arm];
        if s.pulls == 0 {
            0.0
        } else {
            s.sum / s.pulls as f64
        }
    }
    fn pulls(&self) -> u64 {
        self.total
    }
}

/// Thompson sampling with Beta posteriors over Bernoulli rewards.
/// Non-Bernoulli rewards are clamped to \[0,1\] and treated as success
/// probabilities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThompsonBeta {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    total: u64,
}

impl ThompsonBeta {
    /// Create with uniform Beta(1,1) priors.
    pub fn new(n_arms: usize) -> Self {
        ThompsonBeta {
            alpha: vec![1.0; n_arms],
            beta: vec![1.0; n_arms],
            total: 0,
        }
    }

    /// Sample Beta(a,b) via two Gamma draws (Marsaglia–Tsang would be
    /// heavy; the ratio-of-sums of exponentials suffices for integer-ish
    /// shapes here, so we use the Jöhnk-style uniform trick for small
    /// parameters and a normal approximation otherwise).
    fn sample_beta(a: f64, b: f64, rng: &mut SimRng) -> f64 {
        // Normal approximation is accurate enough once counts grow.
        if a + b > 30.0 {
            let mean = a / (a + b);
            let var = a * b / ((a + b).powi(2) * (a + b + 1.0));
            return (mean + rng.normal_with(0.0, var.sqrt())).clamp(0.0, 1.0);
        }
        // Small counts: rejection-free Jöhnk only works for a,b ≤ 1, so use
        // sum-of-exponentials Gamma sampling (integer shape + fractional
        // remainder approximated by one more exponential scaled).
        let gamma = |shape: f64, rng: &mut SimRng| -> f64 {
            let k = shape.floor() as u64;
            let mut g = 0.0;
            for _ in 0..k {
                g += rng.exponential(1.0);
            }
            let frac = shape - k as f64;
            if frac > 1e-9 {
                g += rng.exponential(1.0) * frac;
            }
            g.max(f64::MIN_POSITIVE)
        };
        let x = gamma(a, rng);
        let y = gamma(b, rng);
        x / (x + y)
    }
}

impl BanditPolicy for ThompsonBeta {
    fn arms(&self) -> usize {
        self.alpha.len()
    }
    fn select(&mut self, rng: &mut SimRng) -> usize {
        (0..self.alpha.len())
            .map(|i| (i, Self::sample_beta(self.alpha[i], self.beta[i], rng)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite samples"))
            .map(|(i, _)| i)
            .expect("at least one arm")
    }
    fn update(&mut self, arm: usize, reward: f64) {
        let r = reward.clamp(0.0, 1.0);
        self.alpha[arm] += r;
        self.beta[arm] += 1.0 - r;
        self.total += 1;
    }
    fn mean(&self, arm: usize) -> f64 {
        self.alpha[arm] / (self.alpha[arm] + self.beta[arm])
    }
    fn pulls(&self) -> u64 {
        self.total
    }
}

/// Run a policy against Bernoulli arms with the given success rates;
/// returns (total_reward, best_arm_plays).
pub fn run_bernoulli<P: BanditPolicy>(
    policy: &mut P,
    rates: &[f64],
    steps: u64,
    rng: &mut SimRng,
) -> (f64, u64) {
    assert_eq!(policy.arms(), rates.len());
    let best = rates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite rates"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let mut total = 0.0;
    let mut best_plays = 0u64;
    for _ in 0..steps {
        let arm = policy.select(rng);
        if arm == best {
            best_plays += 1;
        }
        let r = if rng.chance(rates[arm]) { 1.0 } else { 0.0 };
        total += r;
        policy.update(arm, r);
    }
    (total, best_plays)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATES: [f64; 4] = [0.2, 0.35, 0.8, 0.5];

    fn check_policy<P: BanditPolicy>(mut p: P, seed: u64, min_best_frac: f64) {
        let mut rng = SimRng::from_seed_u64(seed);
        let steps = 4_000;
        let (_, best_plays) = run_bernoulli(&mut p, &RATES, steps, &mut rng);
        let frac = best_plays as f64 / steps as f64;
        assert!(
            frac > min_best_frac,
            "best-arm fraction {frac:.2} below {min_best_frac}"
        );
        assert_eq!(p.pulls(), steps);
    }

    #[test]
    fn epsilon_greedy_finds_best_arm() {
        check_policy(EpsilonGreedy::new(4, 0.1), 1, 0.7);
    }

    #[test]
    fn ucb1_finds_best_arm() {
        check_policy(Ucb1::new(4), 2, 0.75);
    }

    #[test]
    fn thompson_finds_best_arm() {
        check_policy(ThompsonBeta::new(4), 3, 0.75);
    }

    #[test]
    fn ucb1_plays_every_arm_once_first() {
        let mut p = Ucb1::new(3);
        let mut rng = SimRng::from_seed_u64(4);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let a = p.select(&mut rng);
            seen[a] = true;
            p.update(a, 0.0);
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn means_track_updates() {
        let mut p = EpsilonGreedy::new(2, 0.0);
        p.update(0, 1.0);
        p.update(0, 0.0);
        p.update(1, 1.0);
        assert_eq!(p.mean(0), 0.5);
        assert_eq!(p.mean(1), 1.0);
        // Greedy (ε=0) now always exploits arm 1.
        let mut rng = SimRng::from_seed_u64(5);
        for _ in 0..10 {
            assert_eq!(p.select(&mut rng), 1);
        }
    }

    #[test]
    fn thompson_posterior_mean_moves_with_evidence() {
        let mut p = ThompsonBeta::new(2);
        assert!((p.mean(0) - 0.5).abs() < 1e-9); // Beta(1,1)
        for _ in 0..20 {
            p.update(0, 1.0);
        }
        assert!(p.mean(0) > 0.9);
    }
}
