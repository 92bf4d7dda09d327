//! Replay allocates per campaign body, not per record.
//!
//! A counting global allocator tallies, per thread, every call that
//! obtains memory (`alloc`, `alloc_zeroed`, `realloc`). A one-campaign
//! fleet replays on the calling thread, because the fleet executor never
//! starts more workers than it has campaigns, so the tally is the whole
//! replay's. Four simulated days of a campaign hold about three times the
//! records of one day. Replaying either may allocate at most [`SLACK`]
//! more blocks: the strings a longer campaign adds to the intern table
//! and the growth of that table, never a block per record.

use evoflow_agents::Pattern;
use evoflow_core::{
    replay_fleet_ledger_bytes, replay_ledger_bytes, run_campaign_fleet_recorded,
    run_campaign_recorded, CampaignConfig, Cell, FleetConfig, LedgerEncoding, MaterialsSpace,
    PlannerKind,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

struct Counting;

thread_local! {
    static BLOCKS: Counter<u64> = const { Counter::new(0) };
}

fn count() {
    // No destructor is registered for a const `Cell`, so this never fails.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds `GlobalAlloc`'s contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // hence from `System`, with `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // hence from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Blocks this thread allocates while `f` runs, and `f`'s result.
fn blocks<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BLOCKS.with(Counter::get);
    let out = f();
    (BLOCKS.with(Counter::get) - before, out)
}

/// How many more blocks a 4-day replay may allocate than a 1-day one.
const SLACK: u64 = 8;

fn space() -> MaterialsSpace {
    MaterialsSpace::generate(3, 8, 20260610)
}

/// A Learning × Mesh campaign of `days`, on `planner` when given.
fn campaign(planner: Option<PlannerKind>, days: u64) -> CampaignConfig {
    let mut cfg =
        CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, Pattern::Mesh), 3);
    cfg.planner = planner;
    cfg.horizon = SimDuration::from_days(days);
    cfg
}

/// `(blocks at 1 day, events at 1 day)` and the same at 4 days, where
/// `replay` returns the blocks and events of one horizon.
fn bounded(label: &str, replay: impl Fn(u64) -> (u64, usize)) {
    let [(one, one_events), (four, four_events)] = [1, 4].map(&replay);
    assert!(
        four_events > 2 * one_events,
        "{label}: 4 days hold {four_events} events, 1 day {one_events}"
    );
    assert!(
        four <= one + SLACK,
        "{label}: replay allocated {one} blocks over {one_events} events and {four} over {four_events}"
    );
}

#[test]
fn fleet_replay_allocates_per_body_not_per_record() {
    let space = space();
    for planner in [
        None,
        Some(PlannerKind::Agentic),
        Some(PlannerKind::ensemble()),
    ] {
        let cfg = campaign(planner, 1);
        let label = cfg.effective_planner().descriptor();
        bounded(&label, |days| {
            let mut fleet = FleetConfig::new(4242);
            fleet.threads = 1;
            fleet.push_campaign(campaign(cfg.planner.clone(), days));
            let (live, ledger) = run_campaign_fleet_recorded(&space, &fleet);
            let bytes = ledger.to_bytes(LedgerEncoding::Binary);
            let (blocks, replayed) = blocks(|| replay_fleet_ledger_bytes(&bytes));
            assert_eq!(replayed, Ok(live), "{label}");
            (blocks, ledger.total_events())
        });
    }
}

#[test]
fn campaign_replay_allocates_per_body_not_per_record() {
    let space = space();
    bounded("Learning × Mesh", |days| {
        let (live, ledger) = run_campaign_recorded(&space, &campaign(None, days));
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        let (blocks, replayed) = blocks(|| replay_ledger_bytes(&bytes));
        assert_eq!(replayed.map(|r| r.report), Ok(live));
        (blocks, ledger.len())
    });
}
