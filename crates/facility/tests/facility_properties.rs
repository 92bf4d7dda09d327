//! Property tests for facility substrates: batch-scheduler safety and
//! fairness, start-time projection (fresh and spliced) against a
//! clone-and-drain reference, human-latency sanity, and fabric routing
//! laws.

use evoflow_facility::{
    is_working, next_working_instant, BatchScheduler, DataFabric, HumanModel, Link, StartProjection,
};
use evoflow_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The scheduler never oversubscribes the machine, runs every job
    /// exactly once, and respects FCFS: job i's start time is never after
    /// the start of the machine-state that would delay an earlier arrival
    /// unfairly (checked as: starts are consistent with walltimes).
    #[test]
    fn batch_scheduler_is_safe(
        jobs in prop::collection::vec((1u64..16, 1u64..8, 0u64..100), 1..40)
    ) {
        let total_nodes = 16u64;
        let mut s = BatchScheduler::new(total_nodes);
        for (nodes, hours, at_min) in &jobs {
            s.submit(
                *nodes,
                SimDuration::from_hours(*hours),
                SimTime::from_secs(at_min * 60),
            );
        }
        let end = s.drain();
        prop_assert_eq!(s.finished().len(), jobs.len());
        prop_assert_eq!(s.nodes_in_use(), 0);
        prop_assert!(end >= SimTime::ZERO);

        // Reconstruct machine occupancy at every start instant: the set of
        // running jobs never exceeds capacity.
        let recs = s.finished();
        for probe in recs.iter().map(|f| f.started) {
            let in_use: u64 = recs
                .iter()
                .filter(|f| f.started <= probe && probe < f.ended)
                .map(|f| f.job.nodes)
                .sum();
            prop_assert!(in_use <= total_nodes, "oversubscribed at {probe}");
        }

        // Each job runs exactly its walltime.
        for f in recs {
            prop_assert_eq!(f.ended.saturating_since(f.started), f.job.walltime);
            prop_assert!(f.started >= f.job.submitted);
        }
    }

    /// Human decisions complete at or after the request, and with
    /// working-hours gating they complete inside working hours.
    #[test]
    fn human_decisions_are_causal(
        start_hours in 0.0f64..(21.0 * 24.0),
        seed in any::<u64>(),
        cross in any::<bool>(),
    ) {
        let m = HumanModel::typical_pi();
        let mut rng = SimRng::from_seed_u64(seed);
        let now = SimTime::from_secs_f64(start_hours * 3600.0);
        let ready = m.decision_ready_at(now, cross, &mut rng);
        prop_assert!(ready >= now);
        prop_assert!(is_working(ready), "decision completed off-hours at {ready}");
    }

    /// The agent-equivalent model is strictly faster than any human model,
    /// from any instant.
    #[test]
    fn agents_beat_humans(start_hours in 0.0f64..(14.0 * 24.0), seed in any::<u64>()) {
        let human = HumanModel::typical_pi();
        let agent = HumanModel::agent_equivalent();
        let now = SimTime::from_secs_f64(start_hours * 3600.0);
        let mut r1 = SimRng::from_seed_u64(seed);
        let mut r2 = SimRng::from_seed_u64(seed);
        let h = human.decision_ready_at(now, true, &mut r1);
        let a = agent.decision_ready_at(now, true, &mut r2);
        prop_assert!(a <= h);
    }

    /// next_working_instant is idempotent and lands in working hours.
    #[test]
    fn working_instant_is_fixed_point(hours in 0.0f64..(28.0 * 24.0)) {
        let t = SimTime::from_secs_f64(hours * 3600.0);
        let w = next_working_instant(t);
        prop_assert!(is_working(w));
        prop_assert_eq!(next_working_instant(w), w);
        prop_assert!(w >= t);
    }

    /// Fabric routing: transfer time is monotone in size, and routing via
    /// the best path never loses to the direct link.
    #[test]
    fn fabric_routing_is_sane(gb1 in 0.01f64..100.0, extra in 0.01f64..100.0) {
        let mut f = DataFabric::new();
        let a = f.site("a");
        let b = f.site("b");
        let c = f.site("c");
        f.link(a, b, Link { gbps: 10.0, latency_ms: 5.0 });
        f.link(a, c, Link { gbps: 100.0, latency_ms: 5.0 });
        f.link(c, b, Link { gbps: 100.0, latency_ms: 5.0 });
        let small = f.transfer("a", "b", gb1).expect("connected");
        let large = f.transfer("a", "b", gb1 + extra).expect("connected");
        prop_assert!(large.duration >= small.duration);

        // Direct-only fabric for the same size: removing the fast detour
        // can only slow things down.
        let mut direct = DataFabric::new();
        let a2 = direct.site("a");
        let b2 = direct.site("b");
        direct.link(a2, b2, Link { gbps: 10.0, latency_ms: 5.0 });
        let direct_plan = direct.transfer("a", "b", gb1).expect("connected");
        prop_assert!(small.duration <= direct_plan.duration);
    }
}

/// The reference start-time estimator: clone the scheduler, submit the
/// job, drain the clone and look the job up, all through public API.
fn reference_start(
    s: &BatchScheduler,
    nodes: u64,
    walltime: SimDuration,
    at: SimTime,
) -> Option<SimTime> {
    if nodes > s.total_nodes() || nodes == 0 {
        return None;
    }
    let mut probe = s.clone();
    let id = probe.submit(nodes, walltime, at);
    probe.drain();
    probe
        .finished()
        .iter()
        .find(|f| f.job.id == id)
        .map(|f| f.started)
}

/// Coarse time unit of the differential test: coarse enough that
/// arrivals, completions and queries keep landing on the same instant.
const UNIT: SimDuration = SimDuration::from_mins(15);

/// Instant `now` shifted by `units` (saturating both ways).
fn shifted(now: SimTime, units: i64) -> SimTime {
    let step = UNIT.saturating_mul(units.unsigned_abs());
    if units < 0 {
        SimTime::from_nanos(now.as_nanos().saturating_sub(step.as_nanos()))
    } else {
        now + step
    }
}

/// Compare `kept`, the projection carried across the scheduler's changes,
/// a fresh projection and `estimate_start` with the reference for every
/// query, at times before, at and after the scheduler clock, at future
/// start and completion instants, and at offsets from all of them.
fn assert_projection_matches(
    s: &BatchScheduler,
    kept: &StartProjection,
    queries: &[(u64, u64, i64)],
) {
    let fresh = s.projection();
    let mut events: Vec<SimTime> = {
        let mut drained = s.clone();
        drained.drain();
        drained
            .finished()
            .iter()
            .flat_map(|f| [f.started, f.ended])
            .filter(|&t| t >= s.now())
            .collect()
    };
    events.sort();
    events.dedup();
    // Every instant would make each check quadratic in the queue; eight
    // spread over the drain keep the first few and sample the rest.
    let stride = events.len().div_ceil(8).max(1);
    let times = [SimTime::ZERO, shifted(s.now(), -1), s.now()]
        .into_iter()
        .chain(events.iter().copied().take(4))
        .chain(events.iter().copied().skip(4).step_by(stride));
    for at in times {
        for &(nodes_raw, units, offset) in queries {
            let nodes = nodes_raw % (s.total_nodes() + 2);
            let walltime = UNIT.saturating_mul(units);
            for at in [at, shifted(at, offset)] {
                let expected = reference_start(s, nodes, walltime, at);
                for (projection, which) in [(kept, "kept"), (&fresh, "fresh")] {
                    assert_eq!(
                        projection.estimate_start(nodes, walltime, at),
                        expected,
                        "{which} projection: {nodes} nodes × {units} units at {at:?}, clock {:?}",
                        s.now()
                    );
                }
                assert_eq!(s.estimate_start(nodes, walltime, at), expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 2000 }))]

    /// `projection()` and `estimate_start` give exactly the start the
    /// clone-and-drain reference finds, on random schedulers built from
    /// submissions (zero-node and zero-walltime ones included),
    /// `advance_to` and `drain_queued`; one case in eight starts right
    /// below the saturated clock `SimTime::MAX`. One projection is kept
    /// across the ops, spliced after each submission and rebuilt after
    /// any other change, and equals a fresh one after every op.
    #[test]
    fn start_projection_matches_clone_and_drain(
        total in 1u64..41,
        near_max in 0u64..8,
        ops in prop::collection::vec((0u64..100, any::<u64>(), 0u64..6, -1i64..3), 0..300),
        queries in prop::collection::vec((any::<u64>(), 0u64..6, 0i64..6), 1..4),
    ) {
        let mut s = BatchScheduler::new(total);
        if near_max == 0 {
            s.advance_to(shifted(SimTime::MAX, -40));
        }
        let mut kept = s.projection();
        for (i, &(kind, raw, units, offset)) in ops.iter().enumerate() {
            match kind {
                0..=89 => {
                    let nodes = raw % (total + 1);
                    let (walltime, at) = (UNIT.saturating_mul(units), shifted(s.now(), offset));
                    s.submit(nodes, walltime, at);
                    kept.splice(&s, nodes, walltime, at);
                }
                90..=98 => {
                    s.advance_to(shifted(s.now(), offset.max(0)));
                    kept = s.projection();
                }
                _ => {
                    s.drain_queued();
                    kept = s.projection();
                }
            }
            prop_assert!(kept == s.projection(), "kept projection stale after op {}", i);
            if i % 20 == 0 || i + 1 == ops.len() {
                assert_projection_matches(&s, &kept, &queries);
            }
        }
        if ops.is_empty() {
            assert_projection_matches(&s, &kept, &queries);
        }
    }
}
