//! The fleet executor: many campaigns, one machine, every core busy.
//!
//! The paper's end-state is facility-scale autonomous science — swarms of
//! concurrent discovery campaigns sharing infrastructure (§5.3, §6). This
//! module runs M independent [`run_campaign`] instances across N OS
//! threads with three guarantees:
//!
//! 1. **Bit-reproducibility at any parallelism.** Every campaign's seed is
//!    derived from the fleet master seed via
//!    [`evoflow_sim::RngRegistry::shard_seed`], a pure function of
//!    `(master_seed, index)`. Which thread runs a campaign — or how many
//!    threads exist — cannot change any result, so
//!    [`run_campaign_fleet`] returns an identical [`FleetReport`] at
//!    `threads = 1` and `threads = 64`.
//! 2. **Load balancing over heterogeneous cells.** A `[Static × Single]`
//!    campaign finishes orders of magnitude sooner than
//!    `[Intelligent × Swarm]`. Workers pull from a lock-free claim queue
//!    (each task is an atomic flag): a worker drains its own stripe, then
//!    steals any unclaimed task, so no thread idles while work remains.
//! 3. **Deterministic aggregation.** Workers store each result in its
//!    task slot; the calling thread receives them strictly in task
//!    order — each as soon as it and every earlier task have committed,
//!    while the workers keep running — and folds them using
//!    [`evoflow_sim::SampleStats::merge`], so the per-cell distributions
//!    are independent of completion order.
//!
//! Every entry point here, and the federated and service sessions above
//! them, is a few lines over one commit-slot table, filled by one driver
//! (skip committed slots, run the rest, hand each result to a commit hook
//! in task order) and refilled from a checkpoint by one resume handshake
//! (lengths, then seeds, then report/ledger presence).
//!
//! The executor is generic over its task: the fleet replays
//! ([`replay_fleet_ledger`](crate::replay_fleet_ledger) and
//! [`replay_fleet_ledger_bytes`](crate::replay_fleet_ledger_bytes)) run
//! it over recorded campaigns instead of configs, with the same
//! guarantees — results in task order, whatever the worker count.
//!
//! Wall-clock timing deliberately lives *outside* [`FleetReport`]:
//! callers time a run themselves, because a report that embedded its own
//! elapsed time could never be byte-identical across thread counts.
//!
//! ```
//! use evoflow_core::{run_campaign_fleet, Cell, FleetConfig, MaterialsSpace};
//! use evoflow_sim::SimDuration;
//!
//! let space = MaterialsSpace::generate(3, 8, 42);
//! let mut cfg = FleetConfig::new(7);
//! cfg.horizon = SimDuration::from_days(1);
//! cfg.push_cell(Cell::autonomous_science(), 2);
//! cfg.push_cell(Cell::traditional_wms(), 2);
//!
//! cfg.threads = 1;
//! let serial = run_campaign_fleet(&space, &cfg);
//! cfg.threads = 4;
//! let parallel = run_campaign_fleet(&space, &cfg);
//!
//! // Same master seed ⇒ identical results, regardless of thread count.
//! assert_eq!(serial.total_experiments, parallel.total_experiments);
//! assert_eq!(serial.reports.len(), 4);
//! assert_eq!(serial.per_cell.len(), 2);
//! ```

use crate::campaign::{
    run_campaign, run_campaign_profiled, run_campaign_recorded, CampaignConfig, CampaignReport,
};
use crate::domain::MaterialsSpace;
use crate::ledger::{CampaignEvent, CampaignLedger, FleetLedger};
use crate::matrix::Cell;
use crate::profile::{PhaseBreakdown, PhaseProfiler};
use evoflow_sim::{ChaosSchedule, ChaosSpec, RngRegistry, SampleStats, SimDuration};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Stream label under which fleet campaign seeds are derived from the
/// master seed (`RngRegistry::shard_seed(FLEET_SHARD_LABEL, index)`).
pub const FLEET_SHARD_LABEL: &str = "fleet-campaign";

/// Configuration for a campaign fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master seed; every campaign's seed is derived from it by index.
    pub master_seed: u64,
    /// Worker threads. **0 means "one per host core"**
    /// (`available_parallelism()`) — the one host-dependent knob in the
    /// config: results never change with it, but anything that
    /// *records* the thread count must pin an explicit value to stay
    /// byte-identical across machines.
    pub threads: usize,
    /// Per-campaign configs, in shard order. Their `seed` fields are
    /// overwritten with derived shard seeds at run time.
    pub campaigns: Vec<CampaignConfig>,
    /// Horizon applied by [`FleetConfig::push_cell`] to new campaigns.
    pub horizon: SimDuration,
    /// Experiment cap applied by [`FleetConfig::push_cell`].
    pub max_experiments: u64,
}

impl FleetConfig {
    /// An empty fleet with the given master seed (30-day horizon,
    /// effectively unbounded experiment budget).
    pub fn new(master_seed: u64) -> Self {
        FleetConfig {
            master_seed,
            threads: 0,
            campaigns: Vec::new(),
            horizon: SimDuration::from_days(30),
            max_experiments: 1_000_000,
        }
    }

    /// Append `replications` campaigns at `cell`, inheriting the fleet's
    /// horizon and budget. Returns `&mut self` for chaining.
    pub fn push_cell(&mut self, cell: Cell, replications: usize) -> &mut Self {
        for _ in 0..replications {
            // Placeholder seed: overwritten with the derived shard seed.
            let mut c = CampaignConfig::for_cell(cell, 0);
            c.horizon = self.horizon;
            c.max_experiments = self.max_experiments;
            self.campaigns.push(c);
        }
        self
    }

    /// Append one fully customised campaign config.
    pub fn push_campaign(&mut self, cfg: CampaignConfig) -> &mut Self {
        self.campaigns.push(cfg);
        self
    }

    /// Worker threads that will actually be used.
    ///
    /// When [`threads`](FleetConfig::threads) is 0 this consults
    /// `available_parallelism()` and therefore **varies across hosts**;
    /// pin an explicit thread count wherever the value ends up in a
    /// host-independent artifact.
    pub fn effective_threads(&self) -> usize {
        worker_threads(self.threads, self.campaigns.len())
    }

    /// The campaign configs with their derived shard seeds filled in —
    /// the exact inputs the fleet will execute, in shard order.
    pub fn sharded_campaigns(&self) -> Vec<CampaignConfig> {
        let reg = RngRegistry::new(self.master_seed);
        self.campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut c = c.clone();
                c.seed = reg.shard_seed(FLEET_SHARD_LABEL, i as u64);
                c
            })
            .collect()
    }
}

/// Worker threads for `tasks` tasks: `threads`, or one per host core when
/// it is 0, never more than the tasks.
pub(crate) fn worker_threads(threads: usize, tasks: usize) -> usize {
    let n = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    n.min(tasks.max(1))
}

/// Five-number-free summary of a per-campaign metric across one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl From<&SampleStats> for DistSummary {
    fn from(s: &SampleStats) -> Self {
        DistSummary {
            mean: s.mean(),
            std_dev: s.std_dev(),
            min: s.min(),
            max: s.max(),
        }
    }
}

/// Aggregated outcomes for every campaign that ran at one matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Cell label (e.g. `"Intelligent × Swarm(k=4)"`).
    pub cell_label: String,
    /// Campaigns that ran at this cell.
    pub campaigns: usize,
    /// Total experiments across those campaigns.
    pub experiments: u64,
    /// Total distinct discoveries (summed; campaigns are independent).
    pub distinct_discoveries: u64,
    /// Distribution of per-campaign discoveries per simulated week.
    pub discoveries_per_week: DistSummary,
    /// Distribution of per-campaign samples per simulated day.
    pub samples_per_day: DistSummary,
    /// Best score any campaign at this cell measured.
    pub best_score: f64,
}

/// Outcome of a fleet run. Pure function of `(space, FleetConfig minus
/// threads)`: thread count never changes any field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Master seed the shard seeds were derived from.
    pub master_seed: u64,
    /// Per-campaign reports, in shard (task) order.
    pub reports: Vec<CampaignReport>,
    /// Per-cell aggregates, in first-appearance order of the cell label.
    pub per_cell: Vec<CellSummary>,
    /// Total experiments across the fleet.
    pub total_experiments: u64,
    /// Total above-threshold measurements across the fleet.
    pub total_hits: u64,
    /// Summed distinct discoveries across the fleet.
    pub total_distinct_discoveries: u64,
    /// Best score measured anywhere in the fleet.
    pub best_score: f64,
    /// Total simulated inference tokens consumed.
    pub tokens: u64,
}

impl FleetReport {
    /// Fold per-campaign reports (in shard order) into a fleet report.
    ///
    /// Public so property tests can verify that the parallel executor's
    /// aggregation equals the merge of independent serial runs.
    pub fn from_reports(master_seed: u64, reports: Vec<CampaignReport>) -> Self {
        // Group by cell label, preserving first-appearance order.
        struct CellAcc {
            label: String,
            campaigns: usize,
            experiments: u64,
            distinct: u64,
            dpw: SampleStats,
            spd: SampleStats,
            best: f64,
        }
        let mut cells: Vec<CellAcc> = Vec::new();
        let mut total_experiments = 0u64;
        let mut total_hits = 0u64;
        let mut total_distinct = 0u64;
        let mut best_score = f64::NEG_INFINITY;
        let mut tokens = 0u64;
        for r in &reports {
            total_experiments += r.experiments;
            total_hits += r.total_hits;
            total_distinct += r.distinct_discoveries as u64;
            best_score = best_score.max(r.best_score);
            tokens += r.tokens;
            let acc = match cells.iter_mut().find(|c| c.label == r.cell_label) {
                Some(acc) => acc,
                None => {
                    cells.push(CellAcc {
                        label: r.cell_label.clone(),
                        campaigns: 0,
                        experiments: 0,
                        distinct: 0,
                        dpw: SampleStats::new(),
                        spd: SampleStats::new(),
                        best: f64::NEG_INFINITY,
                    });
                    cells.last_mut().expect("just pushed")
                }
            };
            acc.campaigns += 1;
            acc.experiments += r.experiments;
            acc.distinct += r.distinct_discoveries as u64;
            acc.dpw.record(r.discoveries_per_week);
            acc.spd.record(r.samples_per_day);
            acc.best = acc.best.max(r.best_score);
        }
        let per_cell = cells
            .into_iter()
            .map(|c| CellSummary {
                cell_label: c.label,
                campaigns: c.campaigns,
                experiments: c.experiments,
                distinct_discoveries: c.distinct,
                discoveries_per_week: DistSummary::from(&c.dpw),
                samples_per_day: DistSummary::from(&c.spd),
                best_score: c.best,
            })
            .collect();
        FleetReport {
            master_seed,
            per_cell,
            total_experiments,
            total_hits,
            total_distinct_discoveries: total_distinct,
            best_score: if best_score.is_finite() {
                best_score
            } else {
                0.0
            },
            tokens,
            reports,
        }
    }
}

/// A lock-free claim queue over task indices, claiming tasks in
/// *chunks*.
///
/// One shared cursor replaces the old per-task claim flags: a single
/// `fetch_add` claims the next `chunk` task indices at once, so the
/// atomic-RMW (and its cache-line ping between workers) is amortized
/// over K tasks instead of paid per task — and a worker that exhausts
/// its chunk transparently "steals" the next one, so no worker idles
/// while tasks remain. The chunk size bounds tail imbalance at
/// `threads × (chunk − 1)` tasks, so it scales down as
/// `tasks / (threads × 4)` and never below 1 (the old one-task-per-claim
/// behaviour is the `chunk == 1` special case).
struct TaskQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl TaskQueue {
    fn new(tasks: usize, threads: usize) -> Self {
        TaskQueue {
            next: AtomicUsize::new(0),
            len: tasks,
            chunk: (tasks / (threads.max(1) * 4)).max(1),
        }
    }

    /// Claim the next chunk of unclaimed task indices (empty ⇒ `None`).
    /// Exactly `ceil(len / chunk)` claims succeed across all workers,
    /// regardless of interleaving; each index is handed out exactly once.
    fn claim(&self) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::AcqRel);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// Claim-side counters from one fleet execution — the *steal* phase of
/// [`crate::profile`]. `claims` counts successful chunk claims (a pure
/// function of task count and thread count); `nanos` is wall time inside
/// `claim` and is only measured when profiling is on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StealStats {
    pub(crate) claims: u64,
    pub(crate) nanos: u64,
}

/// The results workers hand to the calling thread: one slot per task,
/// filled as the task commits, and the number of workers still running.
struct Handoff<R> {
    state: Mutex<HandoffState<R>>,
    /// Signalled once per finished chunk and once per exiting worker.
    progress: Condvar,
}

struct HandoffState<R> {
    slots: Vec<Option<R>>,
    running: usize,
}

impl<R> Handoff<R> {
    fn lock(&self) -> MutexGuard<'_, HandoffState<R>> {
        // Every update under this lock is a single store or decrement, so
        // the state is valid even if a panic poisoned it; the panic
        // itself surfaces when its worker is joined.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks a worker as exited when dropped — also while unwinding from a
/// panicking task — so the calling thread never waits on a worker that
/// is gone.
struct WorkerExit<'a, R>(&'a Handoff<R>);

impl<R> Drop for WorkerExit<'_, R> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.progress.notify_one();
    }
}

/// The fleet executor: run the tasks `tasks` (pairs of slot index +
/// task — a campaign config, or a recorded campaign to replay) across
/// `threads` workers with the task runner `run`, committing at most
/// `commit_cap` results and handing each to `deliver`.
///
/// The cap models a coordinator crash: workers stop claiming once the
/// fleet-wide commit counter reaches the cap, and a campaign that
/// finishes after the counter is exhausted is *discarded* — exactly the
/// in-flight work a real crash loses. `None` commits everything.
///
/// `deliver` runs on the calling thread and receives every committed
/// result with its slot index, **in task order**: a result is delivered
/// as soon as it and every earlier task have committed, while the workers
/// keep running. Results a commit cap left behind a gap (a discarded or
/// never-run task) are delivered, still in task order, once every worker
/// has exited.
///
/// With `time_steals` false the claim path reads no clock (one local
/// counter increment per chunk); with it true, each `claim` call is
/// wall-timed — the *steal* phase of a profiled fleet run.
///
/// A panicking task surfaces as a panic of this call once every worker
/// has exited; results delivered before it stay delivered.
pub(crate) fn execute_fleet_tasks_steal_timed<T, R, F, D>(
    tasks: &[(usize, T)],
    threads: usize,
    commit_cap: Option<usize>,
    time_steals: bool,
    run: F,
    mut deliver: D,
) -> StealStats
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    D: FnMut(usize, R),
{
    let cap = commit_cap.unwrap_or(usize::MAX);
    if tasks.is_empty() || cap == 0 {
        return StealStats::default();
    }
    if threads <= 1 {
        // Serial fast path: no thread machinery, no claims.
        for (i, c) in tasks.iter().take(cap) {
            deliver(*i, run(c));
        }
        return StealStats::default();
    }
    let queue = TaskQueue::new(tasks.len(), threads);
    let commits = AtomicUsize::new(0);
    let handoff = Handoff {
        state: Mutex::new(HandoffState {
            slots: (0..tasks.len()).map(|_| None).collect(),
            running: threads,
        }),
        progress: Condvar::new(),
    };
    let queue_ref = &queue;
    let commits_ref = &commits;
    let handoff_ref = &handoff;
    let run_ref = &run;
    let (delivered, steals) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let _exit = WorkerExit(handoff_ref);
                    let mut steals = StealStats::default();
                    'claiming: while commits_ref.load(Ordering::Acquire) < cap {
                        let started = time_steals.then(Instant::now);
                        let claimed = queue_ref.claim();
                        if let Some(t) = started {
                            steals.nanos += t.elapsed().as_nanos() as u64;
                        }
                        let Some(range) = claimed else {
                            break;
                        };
                        steals.claims += 1;
                        for i in range {
                            // Commit-or-discard: the crash point is a
                            // total order on completions, so work
                            // finishing after it is lost, like a real
                            // kill -9 — and the rest of a chunk claimed
                            // past the cap is in-flight work the crash
                            // never ran.
                            if commits_ref.load(Ordering::Acquire) >= cap {
                                break 'claiming;
                            }
                            let result = run_ref(&tasks[i].1);
                            if commits_ref.fetch_add(1, Ordering::AcqRel) < cap {
                                handoff_ref.lock().slots[i] = Some(result);
                            }
                        }
                        // One wake-up per chunk, not per task.
                        handoff_ref.progress.notify_one();
                    }
                    steals
                })
            })
            .collect();

        // Deliver the committed prefix as it grows, until it is complete
        // or every worker has exited.
        let mut next = 0;
        loop {
            let mut ready = Vec::new();
            let running = {
                let mut state = handoff_ref.lock();
                while state.running > 0 && state.slots[next].is_none() {
                    state = handoff_ref
                        .progress
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                while let Some(result) = state.slots.get_mut(next).and_then(Option::take) {
                    ready.push((next, result));
                    next += 1;
                }
                state.running
            };
            for (i, result) in ready {
                deliver(tasks[i].0, result);
            }
            if running == 0 || next == tasks.len() {
                break;
            }
        }
        let mut steals = StealStats::default();
        for h in handles {
            let s = h.join().expect("fleet worker panicked");
            steals.claims += s.claims;
            steals.nanos += s.nanos;
        }
        (next, steals)
    });
    // Every worker has exited: what is left are results a commit cap
    // stranded behind a gap.
    let state = handoff
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    for (i, slot) in state.slots.into_iter().enumerate().skip(delivered) {
        if let Some(result) = slot {
            deliver(tasks[i].0, result);
        }
    }
    steals
}

// ---- the commit-slot driver ---------------------------------------------------

/// What one fleet task commits into its slot: its report, plus its
/// ledger when the session records.
pub(crate) trait SlotOutput: Send {
    /// Split into the slot's report and ledger.
    fn into_slot(self) -> (CampaignReport, Option<CampaignLedger>);
}

impl SlotOutput for CampaignReport {
    fn into_slot(self) -> (CampaignReport, Option<CampaignLedger>) {
        (self, None)
    }
}

impl SlotOutput for (CampaignReport, CampaignLedger) {
    fn into_slot(self) -> (CampaignReport, Option<CampaignLedger>) {
        (self.0, Some(self.1))
    }
}

/// A profiled campaign's breakdown goes to the commit hook, not a slot.
impl SlotOutput for (CampaignReport, CampaignLedger, PhaseBreakdown) {
    fn into_slot(self) -> (CampaignReport, Option<CampaignLedger>) {
        (self.0, Some(self.1))
    }
}

/// The commit-slot table under every fleet and service session: one
/// report slot per campaign, plus one ledger slot per campaign when the
/// session records, each `None` until its campaign commits.
///
/// A slot is a campaign's place in seed order — its shard index in a
/// fleet, its admission index in a service session — whatever order the
/// tasks run in. A kill leaves some slots empty; a checkpoint stores the
/// table; a resume refills it through [`CommitSlots::resume`] and runs
/// only the empty slots.
pub(crate) struct CommitSlots {
    pub(crate) reports: Vec<Option<CampaignReport>>,
    /// Empty when the session does not record.
    pub(crate) ledgers: Vec<Option<CampaignLedger>>,
}

impl CommitSlots {
    /// A table of `slots` empty slots, with ledger slots when `recorded`.
    pub(crate) fn new(slots: usize, recorded: bool) -> Self {
        CommitSlots {
            reports: vec![None; slots],
            ledgers: vec![None; if recorded { slots } else { 0 }],
        }
    }

    /// The one resume handshake. A checkpoint's per-slot lists are
    /// spliced back into a table only if every list has one entry per
    /// slot of `seeds` (`ledgers` is `None` for an unrecorded checkpoint),
    /// then every stored seed equals the re-derived one, then every slot
    /// holds its report and ledger together or neither; otherwise the
    /// first failing check is refused, at its first failing slot.
    pub(crate) fn resume(
        seeds: &[u64],
        checkpoint_seeds: &[u64],
        reports: &[Option<CampaignReport>],
        ledgers: Option<&[Option<CampaignLedger>]>,
    ) -> Result<Self, FleetResumeError> {
        let ledger_slots = ledgers.map_or(reports.len(), <[_]>::len);
        if let Some(checkpoint) = [checkpoint_seeds.len(), reports.len(), ledger_slots]
            .into_iter()
            .find(|&len| len != seeds.len())
        {
            return Err(FleetResumeError::ShapeMismatch {
                checkpoint,
                fleet: seeds.len(),
            });
        }
        if let Some(index) = seeds.iter().zip(checkpoint_seeds).position(|(a, b)| a != b) {
            return Err(FleetResumeError::SeedMismatch { index });
        }
        let ledgers = ledgers.unwrap_or_default();
        if let Some(index) = ledgers
            .iter()
            .zip(reports)
            .position(|(l, r)| l.is_some() != r.is_some())
        {
            return Err(FleetResumeError::LedgerMismatch { index });
        }
        Ok(CommitSlots {
            reports: reports.to_vec(),
            ledgers: ledgers.to_vec(),
        })
    }

    /// The one driver: run every task whose slot is still empty, in the
    /// order given, through the fleet executor
    /// ([`execute_fleet_tasks_steal_timed`]); commit at most `commit_cap`
    /// of them; store each result in its slot; and hand each to
    /// `on_commit` on the calling thread, in task order, as it commits.
    /// Returns the executor's claim counters.
    pub(crate) fn drive<R: SlotOutput>(
        &mut self,
        tasks: impl IntoIterator<Item = (usize, CampaignConfig)>,
        threads: usize,
        commit_cap: Option<usize>,
        time_steals: bool,
        run: impl Fn(&CampaignConfig) -> R + Sync,
        mut on_commit: impl FnMut(usize, &R),
    ) -> StealStats {
        let tasks: Vec<(usize, CampaignConfig)> = tasks
            .into_iter()
            .filter(|(slot, _)| self.reports[*slot].is_none())
            .collect();
        execute_fleet_tasks_steal_timed(
            &tasks,
            threads,
            commit_cap,
            time_steals,
            run,
            |slot, out| {
                on_commit(slot, &out);
                let (report, ledger) = out.into_slot();
                self.reports[slot] = Some(report);
                if ledger.is_some() {
                    self.ledgers[slot] = ledger;
                }
            },
        )
    }

    /// The audit trail of a kill: the coordinator died after the commits
    /// it truly absorbed (a cap larger than the session never fires
    /// mid-run), and the checkpoint holds them. Deliberately not part of
    /// any merged ledger: the uninterrupted session never crashed.
    pub(crate) fn kill_events(&self) -> Vec<CampaignEvent> {
        let committed = self.reports.iter().filter(|r| r.is_some()).count();
        vec![
            CampaignEvent::CoordinatorKilled {
                after_commits: committed,
            },
            CampaignEvent::CheckpointTaken {
                committed,
                total: self.reports.len(),
            },
        ]
    }

    /// Fold a fully committed table into its report and merged ledger,
    /// in slot order (the ledger is empty unless the session recorded).
    pub(crate) fn finish(self, master_seed: u64) -> (FleetReport, FleetLedger) {
        let all = "every slot is checkpointed or just run";
        let reports = self.reports.into_iter().map(|r| r.expect(all)).collect();
        let campaigns = self.ledgers.into_iter().map(|l| l.expect(all)).collect();
        (
            FleetReport::from_reports(master_seed, reports),
            FleetLedger {
                master_seed,
                campaigns,
            },
        )
    }
}

/// Drive the fleet's shards through `slots` (slot = shard index) with
/// `run`, committing at most `commit_cap`.
fn drive_shards<R: SlotOutput>(
    slots: &mut CommitSlots,
    cfg: &FleetConfig,
    shards: Vec<CampaignConfig>,
    commit_cap: Option<usize>,
    run: impl Fn(&CampaignConfig) -> R + Sync,
) {
    let tasks = shards.into_iter().enumerate();
    slots.drive(
        tasks,
        cfg.effective_threads(),
        commit_cap,
        false,
        run,
        |_, _| {},
    );
}

/// The shard seeds of `shards`, in shard order — the resume handshake key.
fn shard_seeds(shards: &[CampaignConfig]) -> Vec<u64> {
    shards.iter().map(|c| c.seed).collect()
}

/// Run a fleet of campaigns: M campaigns sharded across N worker threads,
/// deterministic regardless of N. See the module docs for the design.
pub fn run_campaign_fleet(space: &MaterialsSpace, cfg: &FleetConfig) -> FleetReport {
    let mut slots = CommitSlots::new(cfg.campaigns.len(), false);
    drive_shards(&mut slots, cfg, cfg.sharded_campaigns(), None, |c| {
        run_campaign(space, c)
    });
    slots.finish(cfg.master_seed).0
}

/// A durable record of a partially executed fleet: which campaigns
/// committed their reports before the coordinator died, and the derived
/// shard seeds that make re-running the rest exact.
///
/// The unit of fleet checkpointing is the *campaign*: each campaign is a
/// pure function of `(space, config, shard seed)`, so a resume re-derives
/// the missing results bit-for-bit no matter which subset happened to
/// commit, which workers ran what, or how many threads either run used.
/// That is why [`resume_campaign_fleet`] produces a [`FleetReport`]
/// byte-identical to the uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Master seed of the interrupted fleet.
    pub master_seed: u64,
    /// Derived shard seed per campaign, in shard order — the resume
    /// handshake: a checkpoint only resumes against a config that derives
    /// the same seeds.
    pub shard_seeds: Vec<u64>,
    /// Committed per-campaign reports, in shard order (`None` = lost or
    /// never run; re-executed on resume).
    pub completed: Vec<Option<CampaignReport>>,
}

impl FleetCheckpoint {
    /// An empty checkpoint for `cfg` (nothing committed yet).
    pub fn empty(cfg: &FleetConfig) -> Self {
        FleetCheckpoint {
            master_seed: cfg.master_seed,
            shard_seeds: shard_seeds(&cfg.sharded_campaigns()),
            completed: vec![None; cfg.campaigns.len()],
        }
    }

    /// Campaigns whose reports committed.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|c| c.is_some()).count()
    }

    /// Campaigns still to run (lost in flight or never claimed).
    pub fn remaining_count(&self) -> usize {
        self.completed.len() - self.completed_count()
    }

    /// Whether every campaign committed.
    pub fn is_complete(&self) -> bool {
        self.remaining_count() == 0
    }
}

/// Why a resume was refused by the one handshake every fleet, federated
/// and service checkpoint goes through. Checkpoint bytes are decoded
/// first, by the checkpoint's `from_bytes`, which refuses them with a
/// [`WireError`](crate::ledger::WireError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetResumeError {
    /// A checkpoint's per-slot list does not have one entry per campaign
    /// of the config.
    ShapeMismatch {
        /// Entries in the first checkpoint list whose length differs.
        checkpoint: usize,
        /// Campaigns in the config.
        fleet: usize,
    },
    /// A derived seed differs from the checkpoint's — the checkpoint
    /// belongs to a different fleet or session (or the config drifted),
    /// so splicing its reports would fabricate results.
    SeedMismatch {
        /// First slot whose seed disagrees.
        index: usize,
    },
    /// A recorded checkpoint slot has a committed report without its
    /// ledger (or a ledger without its report) — the checkpoint was
    /// assembled inconsistently, so splicing it would desynchronise the
    /// report from the audit trail.
    LedgerMismatch {
        /// First slot whose report/ledger presence disagrees.
        index: usize,
    },
}

impl std::fmt::Display for FleetResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetResumeError::ShapeMismatch { checkpoint, fleet } => write!(
                f,
                "checkpoint has {checkpoint} campaigns, config has {fleet}"
            ),
            FleetResumeError::SeedMismatch { index } => write!(
                f,
                "slot {index}'s derived seed differs from the checkpoint — \
                 checkpoint does not belong to this config"
            ),
            FleetResumeError::LedgerMismatch { index } => write!(
                f,
                "slot {index} has a committed report and ledger that disagree \
                 on presence — the checkpoint is inconsistent"
            ),
        }
    }
}

impl std::error::Error for FleetResumeError {}

/// Derive the seeded crash point for a fleet of `campaigns` campaigns:
/// the number of commits after which the coordinator dies. Pure function
/// of `(chaos_seed, campaigns)`, drawn through the
/// [`evoflow_sim::chaos`] machinery so fleet kills and task-level chaos
/// share one schedule vocabulary.
pub fn fleet_death_point(chaos_seed: u64, campaigns: usize) -> usize {
    ChaosSchedule::derive(
        &RngRegistry::new(chaos_seed),
        &ChaosSpec::fatal(),
        campaigns,
    )
    .death
    .map(|d| d.after_commits as usize)
    .unwrap_or(0)
}

/// Run a fleet until `max_completions` campaigns have committed, then
/// die — the chaos-engineering entry point for fleet crash tests.
///
/// Work in flight at the crash point is lost (a finished campaign whose
/// commit lost the race is discarded), exactly like a coordinator
/// `kill -9`. Which campaigns committed depends on scheduling and is
/// *not* deterministic across thread counts — that is the point: the
/// resume invariant must hold from any crash state, and
/// [`resume_campaign_fleet`] reconstructs the identical [`FleetReport`]
/// from every one of them.
pub fn run_campaign_fleet_until(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    max_completions: usize,
) -> FleetCheckpoint {
    let shards = cfg.sharded_campaigns();
    let shard_seeds = shard_seeds(&shards);
    let mut slots = CommitSlots::new(shards.len(), false);
    drive_shards(&mut slots, cfg, shards, Some(max_completions), |c| {
        run_campaign(space, c)
    });
    FleetCheckpoint {
        master_seed: cfg.master_seed,
        shard_seeds,
        completed: slots.reports,
    }
}

/// Resume an interrupted fleet from a [`FleetCheckpoint`]: re-run only
/// the campaigns that never committed, splice the reports in shard
/// order, and aggregate.
///
/// Because shard seeds are pure functions of `(master seed, index)` and
/// campaigns never observe each other, the result is **byte-identical**
/// to the report of an uninterrupted [`run_campaign_fleet`] — at any
/// thread count on either side of the crash.
pub fn resume_campaign_fleet(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    checkpoint: &FleetCheckpoint,
) -> Result<FleetReport, FleetResumeError> {
    let shards = cfg.sharded_campaigns();
    let mut slots = CommitSlots::resume(
        &shard_seeds(&shards),
        &checkpoint.shard_seeds,
        &checkpoint.completed,
        None,
    )?;
    drive_shards(&mut slots, cfg, shards, None, |c| run_campaign(space, c));
    Ok(slots.finish(cfg.master_seed).0)
}

// ---- ledger-recording execution ---------------------------------------------

/// Run a fleet with full event recording: every campaign emits its ledger
/// alongside its report, and the per-campaign ledgers are merged in
/// deterministic shard order into one [`FleetLedger`].
///
/// The report equals [`run_campaign_fleet`]'s exactly (recording never
/// perturbs a campaign), and both the report *and the merged ledger* are
/// byte-identical at any thread count.
pub fn run_campaign_fleet_recorded(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
) -> (FleetReport, FleetLedger) {
    let mut slots = CommitSlots::new(cfg.campaigns.len(), true);
    drive_shards(&mut slots, cfg, cfg.sharded_campaigns(), None, |c| {
        run_campaign_recorded(space, c)
    });
    slots.finish(cfg.master_seed)
}

/// Run a *recording* fleet with hot-path phase profiling: every campaign
/// runs under [`run_campaign_profiled`], the executor's chunk-claim path
/// is wall-timed as the *steal* phase, and the per-campaign breakdowns
/// are merged **in shard order** — so every count in the returned
/// [`PhaseBreakdown`] is byte-identical across reruns and thread counts
/// (only `nanos` is wall-clock). The report and ledger are identical to
/// [`run_campaign_fleet_recorded`]'s: profiling observes, never perturbs.
pub fn run_campaign_fleet_profiled(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
) -> (FleetReport, FleetLedger, PhaseBreakdown) {
    let mut slots = CommitSlots::new(cfg.campaigns.len(), true);
    let mut merged = PhaseProfiler::enabled();
    let steals = slots.drive(
        cfg.sharded_campaigns().into_iter().enumerate(),
        cfg.effective_threads(),
        None,
        true,
        |c| {
            let mut ledger = CampaignLedger::new();
            let mut prof = PhaseProfiler::enabled();
            let report = run_campaign_profiled(space, c, &mut [&mut ledger], &mut prof);
            (report, ledger, prof.breakdown())
        },
        |_, (_, _, breakdown)| merged.merge(breakdown),
    );
    merged.add_steals(steals.claims, steals.nanos);
    let (report, ledger) = slots.finish(cfg.master_seed);
    (report, ledger, merged.breakdown())
}

/// A durable record of a partially executed *recording* fleet: the plain
/// [`FleetCheckpoint`] plus the committed campaigns' event ledgers and a
/// fleet-level audit trail of the crash itself.
///
/// The audit `events` (checkpoint taken, coordinator killed) are
/// deliberately *not* part of the merged [`FleetLedger`]: the merged
/// ledger must stay byte-identical to the uninterrupted run's, and the
/// uninterrupted run never crashed. The crash's own history lives here,
/// with the checkpoint it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetLedgerCheckpoint {
    /// The underlying fleet checkpoint (reports + seed handshake).
    pub fleet: FleetCheckpoint,
    /// Committed per-campaign ledgers, in shard order (`None` = lost or
    /// never run; re-recorded on resume).
    pub ledgers: Vec<Option<CampaignLedger>>,
    /// Fleet-level audit trail of the interrupted run.
    pub events: Vec<CampaignEvent>,
}

/// Run a recording fleet until `max_completions` campaigns have
/// committed, then die — the ledger-carrying analogue of
/// [`run_campaign_fleet_until`]. Each committed campaign's report *and*
/// ledger survive in the checkpoint; in-flight work loses both.
pub fn run_campaign_fleet_recorded_until(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    max_completions: usize,
) -> FleetLedgerCheckpoint {
    let shards = cfg.sharded_campaigns();
    let shard_seeds = shard_seeds(&shards);
    let mut slots = CommitSlots::new(shards.len(), true);
    drive_shards(&mut slots, cfg, shards, Some(max_completions), |c| {
        run_campaign_recorded(space, c)
    });
    FleetLedgerCheckpoint {
        events: slots.kill_events(),
        fleet: FleetCheckpoint {
            master_seed: cfg.master_seed,
            shard_seeds,
            completed: slots.reports,
        },
        ledgers: slots.ledgers,
    }
}

/// Resume an interrupted recording fleet: re-record only the campaigns
/// that never committed, splice reports *and ledgers* in shard order,
/// and aggregate.
///
/// Both the [`FleetReport`] and the merged [`FleetLedger`] are
/// **byte-identical** to the uninterrupted
/// [`run_campaign_fleet_recorded`] outputs — at any thread count on
/// either side of the crash. The kill+resume boundary is therefore
/// invisible to any downstream audit that replays the ledger.
pub fn resume_campaign_fleet_recorded(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    checkpoint: &FleetLedgerCheckpoint,
) -> Result<(FleetReport, FleetLedger), FleetResumeError> {
    let shards = cfg.sharded_campaigns();
    let mut slots = CommitSlots::resume(
        &shard_seeds(&shards),
        &checkpoint.fleet.shard_seeds,
        &checkpoint.fleet.completed,
        Some(&checkpoint.ledgers),
    )?;
    drive_shards(&mut slots, cfg, shards, None, |c| {
        run_campaign_recorded(space, c)
    });
    Ok(slots.finish(cfg.master_seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Cell;
    use evoflow_agents::Pattern;
    use evoflow_sm::IntelligenceLevel;
    use std::time::Duration;

    fn space() -> MaterialsSpace {
        MaterialsSpace::generate(3, 8, 20260610)
    }

    fn small_fleet(threads: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(99);
        cfg.horizon = SimDuration::from_days(1);
        cfg.threads = threads;
        cfg.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Single), 2);
        cfg.push_cell(
            Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
            2,
        );
        cfg
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let space = space();
        let serial = run_campaign_fleet(&space, &small_fleet(1));
        let two = run_campaign_fleet(&space, &small_fleet(2));
        let four = run_campaign_fleet(&space, &small_fleet(4));
        assert_eq!(serial, two);
        assert_eq!(serial, four);
    }

    #[test]
    fn shard_seeds_differ_between_campaigns() {
        let cfg = small_fleet(1);
        let seeds: std::collections::BTreeSet<u64> =
            cfg.sharded_campaigns().iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 4, "all four campaigns get distinct seeds");
    }

    #[test]
    fn aggregation_totals_match_reports() {
        let space = space();
        let report = run_campaign_fleet(&space, &small_fleet(2));
        let sum: u64 = report.reports.iter().map(|r| r.experiments).sum();
        assert_eq!(report.total_experiments, sum);
        assert_eq!(report.per_cell.len(), 2);
        assert_eq!(
            report.per_cell.iter().map(|c| c.campaigns).sum::<usize>(),
            4
        );
        let cell_sum: u64 = report.per_cell.iter().map(|c| c.experiments).sum();
        assert_eq!(report.total_experiments, cell_sum);
    }

    #[test]
    fn empty_fleet_is_empty_report() {
        let report = run_campaign_fleet(&space(), &FleetConfig::new(1));
        assert_eq!(report.reports.len(), 0);
        assert_eq!(report.total_experiments, 0);
        assert_eq!(report.best_score, 0.0);
    }

    #[test]
    fn killed_fleet_resumes_to_identical_report() {
        let space = space();
        let cfg = small_fleet(2);
        let uninterrupted = run_campaign_fleet(&space, &cfg);
        for kill_after in 0..=4usize {
            let ckpt = run_campaign_fleet_until(&space, &cfg, kill_after);
            assert!(ckpt.completed_count() <= kill_after);
            let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
            assert_eq!(resumed, uninterrupted, "kill_after={kill_after}");
        }
    }

    #[test]
    fn resume_reruns_only_missing_campaigns() {
        let space = space();
        let mut cfg = small_fleet(1);
        cfg.threads = 1;
        let ckpt = run_campaign_fleet_until(&space, &cfg, 2);
        // Serial kill is deterministic: the first two shards committed.
        assert_eq!(ckpt.completed_count(), 2);
        assert!(ckpt.completed[0].is_some() && ckpt.completed[1].is_some());
        assert_eq!(ckpt.remaining_count(), 2);
        assert!(!ckpt.is_complete());
        let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
        // The checkpointed reports are spliced, not recomputed: the
        // resumed report's first shards are the very ones checkpointed.
        assert_eq!(&resumed.reports[0], ckpt.completed[0].as_ref().unwrap());
        assert_eq!(&resumed.reports[1], ckpt.completed[1].as_ref().unwrap());
    }

    #[test]
    fn checkpoint_refuses_a_different_fleet() {
        let space = space();
        let cfg = small_fleet(1);
        let ckpt = run_campaign_fleet_until(&space, &cfg, 1);

        let mut other_seed = small_fleet(1);
        other_seed.master_seed = 100;
        assert_eq!(
            resume_campaign_fleet(&space, &other_seed, &ckpt),
            Err(FleetResumeError::SeedMismatch { index: 0 })
        );

        let mut bigger = small_fleet(1);
        bigger.push_cell(Cell::traditional_wms(), 1);
        assert!(matches!(
            resume_campaign_fleet(&space, &bigger, &ckpt),
            Err(FleetResumeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_checkpoint_resume_equals_full_run() {
        let space = space();
        let cfg = small_fleet(2);
        let resumed = resume_campaign_fleet(&space, &cfg, &FleetCheckpoint::empty(&cfg)).unwrap();
        assert_eq!(resumed, run_campaign_fleet(&space, &cfg));
    }

    #[test]
    fn complete_checkpoint_resume_recomputes_nothing() {
        let space = space();
        let cfg = small_fleet(1);
        let ckpt = run_campaign_fleet_until(&space, &cfg, cfg.campaigns.len());
        assert!(ckpt.is_complete());
        let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
        assert_eq!(resumed, run_campaign_fleet(&space, &cfg));
    }

    #[test]
    fn inconsistent_ledger_checkpoint_is_refused() {
        let space = space();
        let cfg = small_fleet(1);
        let mut ckpt = run_campaign_fleet_recorded_until(&space, &cfg, 2);
        assert!(ckpt.fleet.completed[0].is_some());
        ckpt.ledgers[0] = None; // committed report, ledger lost
        assert_eq!(
            resume_campaign_fleet_recorded(&space, &cfg, &ckpt).unwrap_err(),
            FleetResumeError::LedgerMismatch { index: 0 }
        );
    }

    #[test]
    fn recorded_kill_audit_trail_reflects_actual_commits() {
        let space = space();
        let cfg = small_fleet(1);
        // Cap beyond the fleet: everything commits, and the audit trail
        // must say so rather than echoing the configured cap.
        let ckpt = run_campaign_fleet_recorded_until(&space, &cfg, 100);
        assert!(ckpt.fleet.is_complete());
        assert!(ckpt.events.contains(&CampaignEvent::CoordinatorKilled {
            after_commits: cfg.campaigns.len()
        }));
    }

    #[test]
    fn fleet_death_point_is_seeded_and_in_range() {
        for seed in 0..30u64 {
            assert_eq!(fleet_death_point(seed, 8), fleet_death_point(seed, 8));
            assert!((1..=8).contains(&fleet_death_point(seed, 8)));
        }
        assert_eq!(fleet_death_point(1, 0), 0);
        let distinct: std::collections::BTreeSet<usize> =
            (0..30).map(|s| fleet_death_point(s, 8)).collect();
        assert!(distinct.len() > 1, "death points must vary with the seed");
    }

    /// `n` executor tasks; each config's seed is its task index.
    fn indexed_tasks(n: usize) -> Vec<(usize, CampaignConfig)> {
        (0..n)
            .map(|i| {
                (
                    i,
                    CampaignConfig::for_cell(Cell::traditional_wms(), i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn executor_delivers_in_task_order_whatever_the_completion_order() {
        let tasks = indexed_tasks(24);
        for threads in [1usize, 2, 4] {
            // With other workers to run the rest, task 0 is held until the
            // last task has finished, so every later chunk completes
            // before the first one.
            let last_done = (Mutex::new(false), Condvar::new());
            let completed = Mutex::new(Vec::new());
            let mut delivered = Vec::new();
            execute_fleet_tasks_steal_timed(
                &tasks,
                threads,
                None,
                false,
                |c| {
                    let (done, cv) = &last_done;
                    if c.seed == 0 && threads > 1 {
                        let held = done.lock().unwrap();
                        let _ = cv.wait_timeout_while(held, Duration::from_secs(30), |d| !*d);
                    }
                    if c.seed == 23 {
                        *done.lock().unwrap() = true;
                        cv.notify_all();
                    }
                    completed.lock().unwrap().push(c.seed);
                    c.seed
                },
                |i, seed| delivered.push((i, seed)),
            );
            let expected: Vec<(usize, u64)> = (0..24).map(|i| (i, i as u64)).collect();
            assert_eq!(delivered, expected, "threads={threads}");
            let completed = completed.into_inner().unwrap();
            assert_eq!(
                completed[0] == 0,
                threads == 1,
                "threads={threads}: completion order {completed:?}"
            );
        }
    }

    #[test]
    fn executor_surfaces_a_panicking_task_instead_of_hanging() {
        for threads in [1usize, 2, 4] {
            // A watchdog turns a hang into a failure.
            let (done, outcome) = std::sync::mpsc::channel();
            let watched = std::thread::spawn(move || {
                let tasks = indexed_tasks(16);
                let mut delivered = 0;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute_fleet_tasks_steal_timed(
                        &tasks,
                        threads,
                        None,
                        false,
                        |c| {
                            assert_ne!(c.seed, 5, "task 5 fails");
                            c.seed
                        },
                        |_, _| delivered += 1,
                    )
                }));
                let _ = done.send((result.is_err(), delivered));
            });
            let (panicked, delivered) = outcome
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("executor hung at threads={threads}"));
            watched.join().unwrap();
            assert!(panicked, "threads={threads}");
            // Only the prefix before the failed task can have been delivered.
            assert!(delivered <= 5, "threads={threads}: {delivered} delivered");
        }
    }

    #[test]
    fn executor_commit_cap_delivers_exactly_that_many() {
        // Later tasks commit first, so a cap strands results behind gaps.
        let tasks = indexed_tasks(12);
        for threads in [1usize, 2, 4] {
            for cap in 0..=14usize {
                let mut delivered = Vec::new();
                execute_fleet_tasks_steal_timed(
                    &tasks,
                    threads,
                    Some(cap),
                    false,
                    |c| std::thread::sleep(Duration::from_micros(200 * (12 - c.seed))),
                    |i, _| delivered.push(i),
                );
                assert_eq!(delivered.len(), cap.min(12), "threads={threads} cap={cap}");
                assert!(
                    delivered.windows(2).all(|w| w[0] < w[1]),
                    "threads={threads} cap={cap}: not in task order: {delivered:?}"
                );
            }
        }
    }

    #[test]
    fn task_queue_claims_each_task_once() {
        // 17 tasks / 2 workers ⇒ chunk = 2: every index handed out
        // exactly once, in exactly ceil(17/2) = 9 chunk claims, no
        // matter how claims interleave.
        let q = TaskQueue::new(17, 2);
        assert_eq!(q.chunk, 2);
        let mut seen = std::collections::BTreeSet::new();
        let mut claims = 0u64;
        while let Some(range) = q.claim() {
            claims += 1;
            for i in range {
                assert!(seen.insert(i), "task {i} claimed twice");
            }
        }
        assert_eq!(seen.len(), 17);
        assert_eq!(claims, 9);
        assert!(q.claim().is_none(), "drained queue must stay drained");
    }

    #[test]
    fn task_queue_chunk_scales_with_load_and_never_hits_zero() {
        assert_eq!(TaskQueue::new(12, 2).chunk, 1);
        assert_eq!(TaskQueue::new(800, 4).chunk, 50);
        assert_eq!(TaskQueue::new(3, 16).chunk, 1);
        assert_eq!(TaskQueue::new(0, 2).chunk, 1);
    }
}
