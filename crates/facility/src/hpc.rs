//! HPC batch scheduling: FCFS with EASY backfill.
//!
//! The "Batch System" cell of Table 3 ([Static × Hierarchical]) and the
//! queue-wait component of every campaign that touches an HPC center. The
//! scheduler is a pure data structure over simulated time: `submit` jobs,
//! then `advance_to(t)` processes starts/completions deterministically.
//! A [`StartProjection`] records the scheduling passes ahead once, so
//! that "when would this job start?" is a lookup, not a re-simulation,
//! and takes in each job submitted at the queue's tail by simulating
//! again only from the completion batch where that job first matters.

use evoflow_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A batch job request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Job id.
    pub id: JobId,
    /// Nodes requested.
    pub nodes: u64,
    /// Requested walltime (used for backfill reservations; actual runtime
    /// equals it in this model).
    pub walltime: SimDuration,
    /// Submission time.
    pub submitted: SimTime,
}

/// A running job with its completion time.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Running {
    job: Job,
    started: SimTime,
    ends: SimTime,
}

impl Running {
    /// A job holding `nodes` until `ends`, as a projection's simulation
    /// sees it: which job it is and when it started no longer matter.
    fn holding(nodes: u64, ends: SimTime) -> Self {
        Running {
            job: Job {
                id: JobId(u64::MAX),
                nodes,
                walltime: SimDuration::ZERO,
                submitted: ends,
            },
            started: ends,
            ends,
        }
    }
}

/// A finished job record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finished {
    /// The job.
    pub job: Job,
    /// When it started.
    pub started: SimTime,
    /// When it completed.
    pub ended: SimTime,
}

impl Finished {
    /// Queue wait time.
    pub fn wait(&self) -> SimDuration {
        self.started.saturating_since(self.job.submitted)
    }
}

/// An FCFS + EASY-backfill batch scheduler over `total_nodes`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchScheduler {
    total_nodes: u64,
    queue: VecDeque<Job>,
    running: Vec<Running>,
    finished: Vec<Finished>,
    next_id: u64,
    now: SimTime,
}

impl Default for BatchScheduler {
    /// A zero-node scheduler: accepts no jobs. Useful as the inert arm of
    /// capacity negative-path tests (a federation of such sites places
    /// nothing).
    fn default() -> Self {
        BatchScheduler::new(0)
    }
}

impl BatchScheduler {
    /// Create a scheduler over a cluster of `total_nodes`.
    pub fn new(total_nodes: u64) -> Self {
        BatchScheduler {
            total_nodes,
            queue: VecDeque::new(),
            running: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
        }
    }

    /// Cluster size.
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    /// Nodes currently allocated.
    pub fn nodes_in_use(&self) -> u64 {
        self.running.iter().map(|r| r.job.nodes).sum()
    }

    /// Free nodes.
    pub fn nodes_free(&self) -> u64 {
        self.total_nodes - self.nodes_in_use()
    }

    /// Jobs waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Completed job records.
    pub fn finished(&self) -> &[Finished] {
        &self.finished
    }

    /// Current scheduler clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submit a job at time `at` (must be ≥ the scheduler clock).
    pub fn submit(&mut self, nodes: u64, walltime: SimDuration, at: SimTime) -> JobId {
        assert!(
            nodes <= self.total_nodes,
            "job wants {nodes} nodes, cluster has {}",
            self.total_nodes
        );
        let at = at.max(self.now);
        self.advance_to(at);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(Job {
            id,
            nodes,
            walltime,
            submitted: at,
        });
        self.schedule(|_, _| {});
        id
    }

    /// Advance the clock to `t`, completing jobs and starting queued ones.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.now < t {
            match self.next_end() {
                Some(end) if end <= t => self.complete_through(end, |_, _| {}),
                _ => self.now = t,
            }
        }
        self.schedule(|_, _| {});
    }

    /// Predict when a hypothetical job of `nodes`×`walltime` submitted at
    /// `at` would start, without perturbing the scheduler: exactly the
    /// start `submit` would produce. The basis of queue-aware
    /// (least-wait) placement policies.
    ///
    /// Shorthand for `self.projection().estimate_start(..)`, so each call
    /// simulates the whole queue once. A caller probing the same
    /// scheduler more than once should keep the [`StartProjection`]
    /// instead, [`splice`](StartProjection::splice) each job it submits
    /// into it, and rebuild it only after any other change.
    ///
    /// Returns `None` when the job can never run (`nodes` is zero or
    /// exceeds the cluster).
    #[must_use]
    pub fn estimate_start(
        &self,
        nodes: u64,
        walltime: SimDuration,
        at: SimTime,
    ) -> Option<SimTime> {
        self.projection().estimate_start(nodes, walltime, at)
    }

    /// Record every scheduling pass from the current state until the
    /// queue and machine are empty, for [`StartProjection::estimate_start`]
    /// to answer any number of start-time queries against.
    ///
    /// Drains a copy of the queue and running set (never the finished
    /// history): O(jobs × (queue + running · log running)) once, after
    /// which each query is a binary search plus a scan of the passes until
    /// the job's start. [`StartProjection::splice`] keeps it current
    /// across later submissions for a fraction of that.
    #[must_use]
    pub fn projection(&self) -> StartProjection {
        let mut running: Vec<(SimTime, u64)> =
            self.running.iter().map(|r| (r.ends, r.job.nodes)).collect();
        running.sort_unstable();
        let mut projection = StartProjection {
            total_nodes: self.total_nodes,
            now: self.now,
            passes: Vec::new(),
            rests: Vec::new(),
            running,
            queued: self
                .queue
                .iter()
                .map(|job| Queued {
                    nodes: job.nodes,
                    walltime: job.walltime,
                    pass: 0,
                })
                .collect(),
        };
        // The copy numbers its queue by position, so each start it
        // records lands on the right `queued` entry.
        let mut sim = BatchScheduler {
            total_nodes: self.total_nodes,
            queue: (self.queue.iter().enumerate())
                .map(|(i, job)| Job {
                    id: JobId(i as u64),
                    ..*job
                })
                .collect(),
            running: self.running.clone(),
            finished: Vec::new(),
            next_id: 0,
            now: self.now,
        };
        projection.record_drain(&mut sim, true);
        projection
    }

    /// Remove and return every job still waiting in the queue (submitted
    /// but not started as of the current clock), in submission order. The
    /// drain semantics of a facility outage: running jobs complete, queued
    /// work must be re-routed elsewhere.
    pub fn drain_queued(&mut self) -> Vec<Job> {
        self.queue.drain(..).collect()
    }

    /// Drain: run the clock forward until queue and machine are empty;
    /// returns the time the last job completes.
    pub fn drain(&mut self) -> SimTime {
        while !self.queue.is_empty() || !self.running.is_empty() {
            let next = self.next_end().unwrap_or(self.now);
            let step = next.max(self.now + SimDuration::from_nanos(1));
            if step > self.now {
                self.advance_to(step);
            } else {
                // The clock is saturated at `SimTime::MAX` and cannot
                // advance, so every running job ends at this instant:
                // complete them here instead of waiting for a later one.
                self.complete_through(self.now, |_, _| {});
            }
        }
        self.now
    }

    /// Earliest completion among running jobs.
    fn next_end(&self) -> Option<SimTime> {
        self.running.iter().map(|r| r.ends).min()
    }

    /// Set the clock to `end`, move every running job that ends by then
    /// to the finished history (in start order), and schedule.
    fn complete_through(&mut self, end: SimTime, record: impl FnMut(Pass, &[Running])) {
        self.now = end;
        let finished = &mut self.finished;
        self.running.retain(|r| {
            let done = r.ends <= end;
            if done {
                finished.push(Finished {
                    job: r.job.clone(),
                    started: r.started,
                    ended: r.ends,
                });
            }
            !done
        });
        self.schedule(record);
    }

    /// FCFS head start + EASY backfill: the head of the queue reserves the
    /// earliest time enough nodes free up; later jobs may jump ahead only
    /// if [`admits`] lets them. Passes repeat until one starts nothing,
    /// and each is handed to `record`, with the jobs it started, once its
    /// starts are placed.
    fn schedule(&mut self, mut record: impl FnMut(Pass, &[Running])) {
        let mut free = self.nodes_free();
        loop {
            let first_start = self.running.len();

            // Start the head while it fits.
            while let Some(head) = self.queue.front() {
                if !admits(head.nodes, head.walltime, self.now, free, None) {
                    break;
                }
                let job = self.queue.pop_front().expect("head exists");
                free -= job.nodes;
                self.start(job);
            }

            // Backfill behind a blocked head.
            let blocked = self.queue.front().map(|head| Reservation {
                shadow: self.reservation_time(head.nodes, free),
                spare: free.saturating_sub(head.nodes),
            });
            if blocked.is_some() {
                let mut i = 1;
                while i < self.queue.len() {
                    let cand = &self.queue[i];
                    if admits(cand.nodes, cand.walltime, self.now, free, blocked) {
                        let job = self.queue.remove(i).expect("index valid");
                        free -= job.nodes;
                        self.start(job);
                    } else {
                        i += 1;
                    }
                }
            }

            let started = &self.running[first_start..];
            record(
                Pass {
                    clock: self.now,
                    free,
                    blocked,
                },
                started,
            );
            if started.is_empty() {
                break;
            }
        }
    }

    /// Start `job` now.
    fn start(&mut self, job: Job) {
        self.running.push(Running {
            started: self.now,
            ends: self.now + job.walltime,
            job,
        });
    }

    /// Earliest time at which `nodes` will be free, given `free` idle now
    /// and running jobs completing at their walltime.
    fn reservation_time(&self, nodes: u64, mut free: u64) -> SimTime {
        let mut ends: Vec<(SimTime, u64)> =
            self.running.iter().map(|r| (r.ends, r.job.nodes)).collect();
        ends.sort();
        for (t, n) in ends {
            if free >= nodes {
                break;
            }
            free += n;
            if free >= nodes {
                return t;
            }
        }
        self.now
    }

    /// Mean queue wait over finished jobs, in hours.
    pub fn mean_wait_hours(&self) -> f64 {
        if self.finished.is_empty() {
            return 0.0;
        }
        self.finished
            .iter()
            .map(|f| f.wait().as_hours())
            .sum::<f64>()
            / self.finished.len() as f64
    }
}

/// The reservation a blocked queue head holds during one scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    /// When enough nodes free up for the head (its shadow time).
    shadow: SimTime,
    /// Nodes idle at the start of backfill that the head does not need:
    /// a job no wider than this can never delay it.
    spare: u64,
}

/// One scheduling pass, as seen by a job waiting at the queue's tail: it
/// is the last backfill candidate, so it meets the pass's leftovers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pass {
    /// Scheduler clock during the pass.
    clock: SimTime,
    /// Nodes still free once the pass's starts are placed.
    free: u64,
    /// The blocked head's reservation; `None` once the queue is empty.
    blocked: Option<Reservation>,
}

/// The EASY admission test: may a queued job of `nodes`×`walltime` start
/// at `now` with `free` nodes idle? At the head of the queue
/// (`blocked` is `None`) it only has to fit; behind a blocked head it must
/// also leave the head's reservation intact, by finishing by the shadow
/// time or by fitting in the head's spare nodes.
fn admits(
    nodes: u64,
    walltime: SimDuration,
    now: SimTime,
    free: u64,
    blocked: Option<Reservation>,
) -> bool {
    nodes <= free && blocked.is_none_or(|r| now + walltime <= r.shadow || nodes <= r.spare)
}

/// A job queued when a projection was taken: its request and the pass of
/// the projection's drain that starts it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Queued {
    nodes: u64,
    walltime: SimDuration,
    pass: usize,
}

/// Every scheduling pass a [`BatchScheduler`] runs from one state until
/// it drains, built by [`BatchScheduler::projection`]. Answers any number
/// of start-time queries against that state without re-simulating it,
/// and follows the scheduler through each job it submits by
/// [`splice`](Self::splice); any other change (`advance_to`,
/// `drain_queued`) needs a fresh projection.
///
/// Exact, because a job submitted at the queue's tail changes nothing
/// until it starts or the queue ahead of it empties: in every pass before
/// that it is the last backfill candidate, and it is turned away. So the
/// passes of the drain without it are the passes it would see, and it
/// starts in the first one whose EASY admission test, the same test the
/// scheduler applies to its own queue, lets it in.
#[derive(Debug, Clone, PartialEq)]
pub struct StartProjection {
    total_nodes: u64,
    now: SimTime,
    passes: Vec<Pass>,
    /// For each state the scheduler comes to rest in (the current one,
    /// then the one after each batch of completions), the index of its
    /// last pass: the first a job submitted in that state meets.
    rests: Vec<usize>,
    /// `(end, nodes)` of every job running at `now`, sorted.
    running: Vec<(SimTime, u64)>,
    /// Every job queued at `now`, in queue order.
    queued: Vec<Queued>,
}

impl StartProjection {
    /// When a job of `nodes`×`walltime` submitted at `at` would start:
    /// the same answer as [`BatchScheduler::estimate_start`] on the
    /// scheduler this projection was taken from.
    #[must_use]
    pub fn estimate_start(
        &self,
        nodes: u64,
        walltime: SimDuration,
        at: SimTime,
    ) -> Option<SimTime> {
        if nodes > self.total_nodes || nodes == 0 {
            return None;
        }
        let at = at.max(self.now);
        self.passes[self.rests[self.rest_at(at)]..]
            .iter()
            .find_map(|p| {
                let clock = p.clock.max(at);
                admits(nodes, walltime, clock, p.free, p.blocked).then_some(clock)
            })
    }

    /// Take in the job `scheduler` has just accepted through
    /// `submit(nodes, walltime, at)`, where `scheduler` is the one this
    /// projection follows; afterwards the projection equals
    /// `scheduler.projection()`, which a debug build asserts.
    ///
    /// The job waits at the queue's tail, so every pass before the first
    /// in which it starts, or in which the queue ahead of it empties and
    /// it becomes the head (from then on the head's reservation is its
    /// own), stays as it was. The splice keeps every completion batch
    /// before that pass and simulates again from the start of its batch.
    /// Only a job that starts or heads the queue at once is projected
    /// whole again.
    pub fn splice(
        &mut self,
        scheduler: &BatchScheduler,
        nodes: u64,
        walltime: SimDuration,
        at: SimTime,
    ) {
        let at = at.max(self.now);
        let rest = self.rest_at(at);
        let meets = self.rests[rest];
        let matters = self.passes[meets..].iter().position(|p| {
            p.blocked.is_none() || admits(nodes, walltime, p.clock.max(at), p.free, p.blocked)
        });
        match matters.map(|i| self.rests.partition_point(|&last| last < meets + i)) {
            Some(batch) if batch > rest => self.resimulate_from(batch, rest, at, nodes, walltime),
            _ => *self = scheduler.projection(),
        }
        debug_assert!(
            *self == scheduler.projection(),
            "spliced start projection differs from a fresh one"
        );
    }

    /// Index into `rests` of the state a job submitted at `at` (no
    /// earlier than `now`) meets. `submit` first runs `advance_to(at)`:
    /// every completion batch before `at`, and, if the clock has to move,
    /// the first batch at `at` itself. Zero-walltime jobs that batch
    /// starts stay running until the next advance, so later batches at
    /// `at` come after the submission.
    fn rest_at(&self, at: SimTime) -> usize {
        let batches = &self.rests[1..];
        let mut rest = batches.partition_point(|&p| self.passes[p].clock < at);
        if at > self.now
            && batches
                .get(rest)
                .is_some_and(|&p| self.passes[p].clock == at)
        {
            rest += 1;
        }
        rest
    }

    /// `(end, nodes)` of every job running once the scheduler rests in
    /// state `rest`: those running at `now` or started since, less those
    /// a completion batch has retired by then. A batch retires every job
    /// that has ended by its clock, except the ones it starts itself.
    fn running_at(&self, rest: usize) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let last = self.rests[rest];
        let clock = self.passes[last].clock;
        let first = if rest == 0 {
            0
        } else {
            self.rests[rest - 1] + 1
        };
        let earlier =
            (self.running.iter().copied()).filter(move |&(ends, _)| rest == 0 || ends > clock);
        let started = (self.queued.iter().filter(move |q| q.pass <= last)).filter_map(move |q| {
            let ends = self.passes[q.pass].clock + q.walltime;
            (q.pass >= first || ends > clock).then_some((ends, q.nodes))
        });
        earlier.chain(started)
    }

    /// The splice proper: the new job first matters in completion batch
    /// `batch`, after rest state `rest`, the one its submission at `at`
    /// meets. Keep the passes from that rest up to `batch`, renumbered
    /// from the submission, and simulate the rest of the drain again from
    /// the state before `batch`, the new job at the queue's tail.
    fn resimulate_from(
        &mut self,
        batch: usize,
        rest: usize,
        at: SimTime,
        nodes: u64,
        walltime: SimDuration,
    ) {
        let meets = self.rests[rest];
        let kept = self.rests[batch - 1] + 1;
        let mut running: Vec<(SimTime, u64)> = self.running_at(rest).collect();
        running.sort_unstable();
        let sim_running = (self.running_at(batch - 1))
            .map(|(ends, nodes)| Running::holding(nodes, ends))
            .collect();
        // The jobs still queued at the submission, renumbered; the new
        // job's pass is only a placeholder past the kept ones, so that it
        // joins the simulated queue like every job not yet started.
        let resumes = kept - meets;
        let mut queued: Vec<Queued> = (self.queued.iter().filter(|q| q.pass > meets))
            .map(|q| Queued {
                pass: q.pass - meets,
                ..*q
            })
            .collect();
        queued.push(Queued {
            nodes,
            walltime,
            pass: resumes,
        });
        let queue = (queued.iter().enumerate())
            .filter(|(_, q)| q.pass >= resumes)
            .map(|(i, q)| Job {
                id: JobId(i as u64),
                nodes: q.nodes,
                walltime: q.walltime,
                submitted: at,
            })
            .collect();
        let mut sim = BatchScheduler {
            total_nodes: self.total_nodes,
            queue,
            running: sim_running,
            finished: Vec::new(),
            next_id: 0,
            now: self.passes[kept - 1].clock.max(at),
        };
        self.passes.truncate(kept);
        self.passes.drain(..meets);
        // The submission's own pass meets the rest at the submit clock:
        // the same leftovers, and a reservation that does not depend on
        // the clock.
        self.passes[0].clock = at;
        self.rests.truncate(batch);
        self.rests.drain(..rest);
        for last in &mut self.rests {
            *last -= meets;
        }
        self.now = at;
        self.running = running;
        self.queued = queued;
        self.record_drain(&mut sim, false);
    }

    /// Drain `sim`, whose queued jobs are numbered by their index in
    /// `queued`, recording every pass, the last pass of every rest state
    /// and the pass each queued job starts in. With `settle`, `sim` may
    /// not be at rest yet and its first rest is recorded too; without
    /// it, that rest is already recorded.
    fn record_drain(&mut self, sim: &mut BatchScheduler, mut settle: bool) {
        loop {
            let (passes, queued) = (&mut self.passes, &mut self.queued);
            let record = |pass, started: &[Running]| {
                for run in started {
                    queued[run.job.id.0 as usize].pass = passes.len();
                }
                passes.push(pass);
            };
            if std::mem::take(&mut settle) {
                sim.schedule(record);
            } else if let Some(end) = sim.next_end() {
                sim.complete_through(end, record);
            } else {
                return;
            }
            self.rests.push(self.passes.len() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u64) -> SimDuration {
        SimDuration::from_hours(x)
    }

    fn t(x: u64) -> SimTime {
        SimTime::ZERO + h(x)
    }

    #[test]
    fn fcfs_orders_starts() {
        let mut s = BatchScheduler::new(10);
        s.submit(10, h(2), SimTime::ZERO); // fills machine
        s.submit(10, h(1), SimTime::ZERO); // must wait
        let end = s.drain();
        assert_eq!(end.as_hours(), 3.0);
        assert_eq!(s.finished().len(), 2);
        assert_eq!(s.finished()[0].job.id, JobId(0));
        assert_eq!(s.finished()[1].started.as_hours(), 2.0);
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        let mut s = BatchScheduler::new(10);
        s.submit(6, h(4), SimTime::ZERO); // A: runs on 6 nodes
        s.submit(10, h(2), SimTime::ZERO); // B: blocked head, reserved at t=4
        s.submit(4, h(3), SimTime::ZERO); // C: fits 4 free nodes, ends t=3 ≤ 4 → backfills
        s.advance_to(SimTime::from_secs(1));
        assert_eq!(s.running_len(), 2, "C should backfill next to A");
        let end = s.drain();
        // A ends 4, C ends 3, B starts 4 ends 6.
        assert_eq!(end.as_hours(), 6.0);
        let b = s.finished().iter().find(|f| f.job.id == JobId(1)).unwrap();
        assert_eq!(b.started.as_hours(), 4.0, "backfill must not delay head");
    }

    #[test]
    fn backfill_rejects_jobs_that_would_delay_head() {
        let mut s = BatchScheduler::new(10);
        s.submit(6, h(4), SimTime::ZERO); // A
        s.submit(10, h(2), SimTime::ZERO); // B head reservation t=4
        s.submit(4, h(6), SimTime::ZERO); // D: fits but ends t=6 > 4 → no backfill
        s.advance_to(SimTime::from_secs(1));
        assert_eq!(s.running_len(), 1);
        let end = s.drain();
        // A:0-4, B:4-6, D:6-12.
        assert_eq!(end.as_hours(), 12.0);
    }

    #[test]
    fn waits_are_recorded() {
        let mut s = BatchScheduler::new(4);
        s.submit(4, h(2), SimTime::ZERO);
        s.submit(4, h(2), SimTime::ZERO);
        s.drain();
        assert_eq!(s.mean_wait_hours(), 1.0); // 0h + 2h over 2 jobs
    }

    #[test]
    fn utilization_accounting() {
        let mut s = BatchScheduler::new(8);
        s.submit(3, h(1), SimTime::ZERO);
        s.submit(5, h(1), SimTime::ZERO);
        s.advance_to(SimTime::from_secs(1));
        assert_eq!(s.nodes_in_use(), 8);
        assert_eq!(s.nodes_free(), 0);
        s.drain();
        assert_eq!(s.nodes_in_use(), 0);
    }

    #[test]
    fn estimate_start_matches_actual_submit() {
        let mut s = BatchScheduler::new(10);
        s.submit(10, h(2), SimTime::ZERO);
        s.submit(6, h(4), SimTime::ZERO);
        // A fresh 10-node job must wait for both: estimate it, then
        // actually submit it and compare.
        let est = s
            .estimate_start(10, h(1), SimTime::ZERO)
            .expect("job fits cluster");
        let id = s.submit(10, h(1), SimTime::ZERO);
        s.drain();
        let actual = s
            .finished()
            .iter()
            .find(|f| f.job.id == id)
            .expect("job ran")
            .started;
        assert_eq!(est, actual);
        // Estimation never perturbs the real scheduler's job ids.
        assert_eq!(id, JobId(2));
    }

    #[test]
    fn estimate_start_rejects_impossible_jobs() {
        let s = BatchScheduler::new(4);
        assert_eq!(s.estimate_start(5, h(1), SimTime::ZERO), None);
        assert_eq!(s.estimate_start(0, h(1), SimTime::ZERO), None);
    }

    #[test]
    fn zero_walltime_starts_stay_running_until_the_next_advance() {
        let mut s = BatchScheduler::new(4);
        s.submit(4, h(1), SimTime::ZERO); // A: 0–1h
        s.submit(1, h(0), SimTime::ZERO); // Z: starts and ends at 1h
        s.submit(4, h(1), SimTime::ZERO); // W: 1h–2h, once Z has retired
        let p = s.projection();
        // Submitted at 1h, a job sees the state `advance_to(1h)` leaves:
        // Z still holds a node and W is blocked behind it with its shadow
        // at 1h, so a zero-walltime job backfills at once.
        assert_eq!(p.estimate_start(1, h(0), t(1)), Some(t(1)));
        // One that would outlive the shadow waits for W.
        assert_eq!(p.estimate_start(1, h(1), t(1)), Some(t(2)));
        for (nodes, hours) in [(1, 0), (1, 1), (4, 0)] {
            for at in [0, 1, 2, 3].map(t) {
                let expected = s.estimate_start(nodes, h(hours), at);
                assert_eq!(p.estimate_start(nodes, h(hours), at), expected);
                let mut real = s.clone();
                let id = real.submit(nodes, h(hours), at);
                real.drain();
                let started = real.finished().iter().find(|f| f.job.id == id);
                assert_eq!(
                    started.map(|f| f.started),
                    expected,
                    "{nodes}×{hours}h at {at}"
                );
            }
        }
    }

    #[test]
    fn splice_follows_a_job_that_heads_the_queue_before_it_starts() {
        let mut s = BatchScheduler::new(4);
        s.submit(4, h(1), SimTime::ZERO); // A: 0–1h
        s.submit(2, h(1), SimTime::ZERO); // B: 1h–2h
        let mut p = s.projection();
        // C cannot start at 1h, when B leaves it the head: from then on
        // the reservation behind the head is C's, not none.
        s.submit(4, h(1), SimTime::ZERO); // C: 2h–3h
        p.splice(&s, 4, h(1), SimTime::ZERO);
        assert!(p == s.projection());
        // D fits next to B at 1h but would outlive C's reservation at 2h,
        // so it waits for C.
        assert_eq!(p.estimate_start(2, h(2), SimTime::ZERO), Some(t(3)));
        let id = s.submit(2, h(2), SimTime::ZERO);
        p.splice(&s, 2, h(2), SimTime::ZERO);
        assert!(p == s.projection());
        s.drain();
        let started = s.finished().iter().find(|f| f.job.id == id);
        assert_eq!(started.map(|f| f.started), Some(t(3)));
    }

    #[test]
    fn splice_keeps_the_batches_before_a_late_start() {
        let mut s = BatchScheduler::new(4);
        s.submit(4, h(1), SimTime::ZERO); // A: 0–1h
        s.submit(4, h(1), SimTime::ZERO); // B: 1h–2h
        s.submit(4, h(1), SimTime::ZERO); // C: 2h–3h
        let mut p = s.projection();
        // Each job but the last arrives behind a full machine and waiting
        // work, so it first matters one or more completion batches on:
        // the first at 2h, when C starts and leaves it the head. The
        // zero-node job starts at once and is projected whole.
        for (nodes, hours, at) in [(1, 1, 90), (4, 0, 150), (2, 3, 0), (0, 1, 30)] {
            let at = SimTime::from_secs(at * 60);
            s.submit(nodes, h(hours), at);
            p.splice(&s, nodes, h(hours), at);
            assert!(p == s.projection(), "{nodes}×{hours}h at {at}");
        }
    }

    #[test]
    fn drain_completes_jobs_at_the_saturated_clock() {
        let mut s = BatchScheduler::new(4);
        s.submit(1, h(1), SimTime::MAX);
        assert_eq!(s.drain(), SimTime::MAX);
        assert_eq!(s.finished().len(), 1);
        assert_eq!(s.finished()[0].ended, SimTime::MAX);
    }

    #[test]
    fn estimate_start_terminates_at_the_saturated_clock() {
        let mut s = BatchScheduler::new(4);
        s.submit(1, h(1), SimTime::MAX);
        assert_eq!(s.estimate_start(4, h(1), SimTime::MAX), Some(SimTime::MAX));
        assert_eq!(s.estimate_start(1, h(0), SimTime::ZERO), Some(SimTime::MAX));
    }

    #[test]
    fn drain_queued_returns_waiting_jobs_in_order() {
        let mut s = BatchScheduler::new(4);
        s.submit(4, h(2), SimTime::ZERO); // running
        let b = s.submit(4, h(1), SimTime::ZERO); // queued
        let c = s.submit(4, h(1), SimTime::ZERO); // queued
        let drained = s.drain_queued();
        assert_eq!(drained.iter().map(|j| j.id).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.running_len(), 1, "running jobs survive the drain");
        let end = s.drain();
        assert_eq!(end.as_hours(), 2.0);
    }

    #[test]
    fn default_scheduler_has_no_capacity() {
        let s = BatchScheduler::default();
        assert_eq!(s.total_nodes(), 0);
        assert_eq!(s.estimate_start(1, h(1), SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "cluster has")]
    fn oversized_job_rejected() {
        let mut s = BatchScheduler::new(4);
        s.submit(5, h(1), SimTime::ZERO);
    }

    #[test]
    fn late_submission_advances_clock() {
        let mut s = BatchScheduler::new(4);
        s.submit(1, h(1), SimTime::from_secs(3600));
        let end = s.drain();
        assert_eq!(end.as_hours(), 2.0);
        assert_eq!(s.finished()[0].started.as_hours(), 1.0);
    }
}
