//! **Hot-path phase profiling** — near-zero-overhead scoped counters for
//! the campaign stepping loop and the fleet executor.
//!
//! The recording hot loop has five phases worth telling apart when
//! chasing throughput: **propose** (planner decision), **execute**
//! (simulated measurement), **observe** (feeding outcomes back into the
//! planner), **emit** (event construction + batched observer delivery),
//! and **steal** (fleet task claiming) — with propose further split into
//! **propose.anchor** / **propose.model** / **propose.score** sub-phases
//! (see [`Phase`]). A [`PhaseProfiler`] threads
//! through [`run_campaign_profiled`](crate::run_campaign_profiled) and
//! the fleet executor and aggregates per-phase call counts and wall
//! nanoseconds.
//!
//! Two design rules keep it honest:
//!
//! 1. **Disabled means free.** Every probe is a single branch on
//!    [`PhaseProfiler::is_enabled`] — no clock reads, no counter writes.
//!    `run_campaign_observed` runs with a disabled profiler, so the
//!    production path pays one predictable branch per probe site.
//! 2. **Counts are deterministic, clocks are not.** Phase *counts* are a
//!    pure function of `(space, config)` — byte-identical across reruns
//!    and thread counts — while `nanos` is wall-clock noise. Artifacts
//!    that CI byte-diffs (`BENCH_profile.json`) must serialize
//!    [`PhaseBreakdown::counts_only`]; raw timings belong on stdout.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::time::Instant;

/// A phase of the recording hot path.
///
/// The `propose` umbrella is additionally split into three sub-phases so
/// profiles attribute *where* decision time goes: `propose.anchor`
/// (lending the campaign-wide best), `propose.model` (the planner's own
/// `propose` call, surrogate math included), and `propose.score` (a
/// counts-only tally of candidates scored against a surrogate — its
/// scoring runs inside `propose.model`'s scope, so it carries no
/// separate wall time). Sub-phase counts do not sum to the umbrella's:
/// the umbrella counts iterations, the sub-phases count their own units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Planner decision: anchor lookup + `Planner::propose`.
    Propose,
    /// Simulated measurement of proposed candidates.
    Execute,
    /// Feeding outcomes back into the planner (`Planner::observe`).
    Observe,
    /// Event construction and batched delivery to observers.
    Emit,
    /// Fleet executor task claiming (chunked CAS on the shared cursor).
    Steal,
    /// Propose sub-phase: lending the campaign-wide best as the anchor
    /// (counted only on iterations whose planner wants one).
    ProposeAnchor,
    /// Propose sub-phase: the planner's `propose` call itself.
    ProposeModel,
    /// Propose sub-phase: candidates scored against a surrogate model
    /// (batched acquisition/prediction passes). Counts-only — the time
    /// is inside [`ProposeModel`](Self::ProposeModel).
    ProposeScore,
}

/// Number of phases (array sizing).
const PHASES: usize = 8;

/// Stable names, indexed by `Phase as usize`.
const PHASE_NAMES: [&str; PHASES] = [
    "propose",
    "execute",
    "observe",
    "emit",
    "steal",
    "propose.anchor",
    "propose.model",
    "propose.score",
];

impl Phase {
    /// Stable lowercase name (JSON keys, tables).
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self as usize]
    }

    /// Every phase, in declaration order.
    pub fn all() -> [Phase; PHASES] {
        [
            Phase::Propose,
            Phase::Execute,
            Phase::Observe,
            Phase::Emit,
            Phase::Steal,
            Phase::ProposeAnchor,
            Phase::ProposeModel,
            Phase::ProposeScore,
        ]
    }
}

/// Aggregate for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PhaseAgg {
    count: u64,
    nanos: u64,
}

/// An opaque scope token from [`PhaseProfiler::begin`]. Holds the start
/// instant when profiling is enabled, nothing otherwise.
#[derive(Debug, Clone, Copy)]
pub struct PhaseToken(Option<Instant>);

/// Scoped phase counters. Construct [`enabled`](PhaseProfiler::enabled)
/// for a profiling run or [`disabled`](PhaseProfiler::disabled) for the
/// production path (every probe reduces to one branch).
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    on: bool,
    stats: [PhaseAgg; PHASES],
    batches_flushed: u64,
    events_emitted: u64,
}

impl PhaseProfiler {
    /// A profiler that records.
    pub fn enabled() -> Self {
        PhaseProfiler {
            on: true,
            stats: [PhaseAgg::default(); PHASES],
            batches_flushed: 0,
            events_emitted: 0,
        }
    }

    /// A profiler whose every probe is a no-op branch.
    pub fn disabled() -> Self {
        PhaseProfiler {
            on: false,
            stats: [PhaseAgg::default(); PHASES],
            batches_flushed: 0,
            events_emitted: 0,
        }
    }

    /// Whether probes record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Open a scope. Reads the clock only when enabled.
    #[inline]
    pub fn begin(&self) -> PhaseToken {
        PhaseToken(if self.on { Some(Instant::now()) } else { None })
    }

    /// Close a scope opened by [`begin`](Self::begin): one call, elapsed
    /// wall time.
    #[inline]
    pub fn end(&mut self, phase: Phase, token: PhaseToken) {
        self.end_n(phase, token, 1);
    }

    /// Close a scope that covered `n` units of work (e.g. one flush
    /// delivering `n` events).
    #[inline]
    pub fn end_n(&mut self, phase: Phase, token: PhaseToken, n: u64) {
        if let PhaseToken(Some(start)) = token {
            let agg = &mut self.stats[phase as usize];
            agg.count += n;
            agg.nanos += start.elapsed().as_nanos() as u64;
        }
    }

    /// Bump a phase count without timing (cheap tallies).
    #[inline]
    pub fn bump(&mut self, phase: Phase, n: u64) {
        if self.on {
            self.stats[phase as usize].count += n;
        }
    }

    /// Record batch-emission counters (from an
    /// [`EventBatch`](crate::ledger::EventBatch)).
    pub fn add_batches(&mut self, flushes: u64, events: u64) {
        if self.on {
            self.batches_flushed += flushes;
            self.events_emitted += events;
        }
    }

    /// Record executor claim-side totals into the *steal* phase (from
    /// the fleet executor's chunk-claim counters).
    pub fn add_steals(&mut self, claims: u64, nanos: u64) {
        if self.on {
            let agg = &mut self.stats[Phase::Steal as usize];
            agg.count += claims;
            agg.nanos += nanos;
        }
    }

    /// Fold another profiler's totals into this one (fleet aggregation;
    /// fold in shard order so counts stay deterministic).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for stat in &other.phases {
            for p in Phase::all() {
                if p.name() == stat.phase {
                    self.stats[p as usize].count += stat.count;
                    self.stats[p as usize].nanos += stat.nanos;
                }
            }
        }
        self.batches_flushed += other.batches_flushed;
        self.events_emitted += other.events_emitted;
    }

    /// Snapshot the totals.
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            phases: Phase::all()
                .iter()
                .map(|&p| PhaseStat {
                    phase: Cow::Borrowed(p.name()),
                    count: self.stats[p as usize].count,
                    nanos: self.stats[p as usize].nanos,
                })
                .collect(),
            batches_flushed: self.batches_flushed,
            events_emitted: self.events_emitted,
        }
    }
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::disabled()
    }
}

/// One phase's totals in a [`PhaseBreakdown`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Stable phase name (see [`Phase::name`]).
    pub phase: Cow<'static, str>,
    /// Units of work (calls, experiments, events — per-phase semantics).
    pub count: u64,
    /// Wall nanoseconds inside the phase. **Not deterministic** — zeroed
    /// by [`PhaseBreakdown::counts_only`] for byte-diffed artifacts.
    pub nanos: u64,
}

/// The per-phase totals of a profiled run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PhaseBreakdown {
    /// One entry per [`Phase`], in declaration order.
    pub phases: Vec<PhaseStat>,
    /// Event batches flushed to observers.
    pub batches_flushed: u64,
    /// Events delivered through those batches.
    pub events_emitted: u64,
}

impl PhaseBreakdown {
    /// Total wall nanoseconds across the top-level phases (propose,
    /// execute, observe, emit, steal). The `propose.*` sub-phases run
    /// inside propose's scope, so their time is already in it and is not
    /// added again.
    pub fn total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .filter(|s| !s.phase.contains('.'))
            .map(|s| s.nanos)
            .sum()
    }

    /// The deterministic projection: same counts, `nanos` zeroed. This
    /// is the only form that may land in a byte-diffed artifact.
    pub fn counts_only(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            phases: self
                .phases
                .iter()
                .map(|s| PhaseStat {
                    phase: s.phase.clone(),
                    count: s.count,
                    nanos: 0,
                })
                .collect(),
            batches_flushed: self.batches_flushed,
            events_emitted: self.events_emitted,
        }
    }

    /// Count for a phase by name, 0 if absent.
    pub fn count_of(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|s| s.phase == phase.name())
            .map(|s| s.count)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut prof = PhaseProfiler::disabled();
        let t = prof.begin();
        prof.end(Phase::Propose, t);
        prof.bump(Phase::Execute, 10);
        prof.add_batches(3, 99);
        let b = prof.breakdown();
        assert_eq!(b.total_nanos(), 0);
        assert_eq!(b.batches_flushed, 0);
        assert_eq!(b.events_emitted, 0);
        assert!(b.phases.iter().all(|s| s.count == 0));
    }

    #[test]
    fn enabled_profiler_counts_scopes_and_bumps() {
        let mut prof = PhaseProfiler::enabled();
        let t = prof.begin();
        prof.end(Phase::Propose, t);
        let t = prof.begin();
        prof.end_n(Phase::Emit, t, 7);
        prof.bump(Phase::Observe, 3);
        prof.add_batches(2, 7);
        let b = prof.breakdown();
        assert_eq!(b.count_of(Phase::Propose), 1);
        assert_eq!(b.count_of(Phase::Emit), 7);
        assert_eq!(b.count_of(Phase::Observe), 3);
        assert_eq!(b.count_of(Phase::Execute), 0);
        assert_eq!(b.batches_flushed, 2);
        assert_eq!(b.events_emitted, 7);
    }

    #[test]
    fn counts_only_zeroes_nanos_and_keeps_counts() {
        let mut prof = PhaseProfiler::enabled();
        let t = prof.begin();
        std::thread::yield_now();
        prof.end_n(Phase::Execute, t, 5);
        let b = prof.breakdown().counts_only();
        assert_eq!(b.count_of(Phase::Execute), 5);
        assert_eq!(b.total_nanos(), 0);
    }

    #[test]
    fn total_nanos_sums_top_level_phases_only() {
        let mut b = PhaseProfiler::enabled().breakdown();
        for (i, stat) in b.phases.iter_mut().enumerate() {
            stat.nanos = 10u64.pow(i as u32);
        }
        // propose 1 + execute 10 + observe 100 + emit 1 000 + steal
        // 10 000; the propose.* sub-phases (1e5..1e7) are inside propose.
        assert_eq!(b.total_nanos(), 11_111);
    }

    #[test]
    fn merge_sums_counts_in_any_order() {
        let mut a = PhaseProfiler::enabled();
        a.bump(Phase::Propose, 2);
        a.add_batches(1, 4);
        let mut b = PhaseProfiler::enabled();
        b.bump(Phase::Propose, 3);
        b.bump(Phase::Steal, 1);
        b.add_batches(2, 6);
        let mut merged = PhaseProfiler::enabled();
        merged.merge(&a.breakdown());
        merged.merge(&b.breakdown());
        let m = merged.breakdown();
        assert_eq!(m.count_of(Phase::Propose), 5);
        assert_eq!(m.count_of(Phase::Steal), 1);
        assert_eq!(m.batches_flushed, 3);
        assert_eq!(m.events_emitted, 10);
    }

    #[test]
    fn breakdown_round_trips_through_json() {
        let mut prof = PhaseProfiler::enabled();
        prof.bump(Phase::Emit, 11);
        prof.add_batches(4, 11);
        let b = prof.breakdown().counts_only();
        let json = serde_json::to_string(&b).expect("serializes");
        let back: PhaseBreakdown = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, b);
    }
}
