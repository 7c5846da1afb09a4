//! The oracle's allocation budget: heap allocations and bytes per driver
//! event when a fixed-seed E3 schedule is replayed under the oracle,
//! inline and with the incremental abstraction cache.
//!
//! A counting global allocator makes this its own test binary, with one
//! test, so nothing else allocates while it counts. Only the replaying
//! thread's allocations between the first and the last event are
//! counted; boot and schedule generation are not. The test prints its
//! figures and fails when either mode allocates more than its budget: the
//! figures measured when the budget was set, plus 10%. Run it alone with
//! `cargo test --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pkvm_repro::ghost::event::Event;
use pkvm_repro::ghost::oracle::OracleOpts;
use pkvm_repro::harness::campaign::ReplayMachine;
use pkvm_repro::harness::proxy::Proxy;
use pkvm_repro::harness::random::{RandomCfg, RandomTester};
use pkvm_repro::harness::tracefile::TraceHeader;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The E3 schedule: the default op mix at the E12 gate's seed.
const SEED: u64 = 0xe12;
const STEPS: u64 = 1000;

/// Budgets per driver event, as (allocations, bytes): the figures this
/// test measured when they were set (inline 55.3 and 21,795; cached 38.7
/// and 9,699), plus 10%.
const INLINE_BUDGET: (f64, f64) = (60.8, 23_975.0);
const CACHED_BUDGET: (f64, f64) = (42.6, 10_669.0);

fn schedule() -> (TraceHeader, Vec<Event>) {
    let proxy = Proxy::builder().with_oracle(false).record(true).boot();
    let mut tester = RandomTester::new(proxy, RandomCfg::builder().seed(SEED).build());
    tester.run(STEPS);
    let header = TraceHeader {
        config: tester.proxy.machine.config().clone(),
        oracle_opts: OracleOpts::default(),
        fault_bits: 0,
        chaos: None,
        seeds: Vec::new(),
    };
    let events = tester
        .proxy
        .events()
        .take_events()
        .into_iter()
        .map(|r| r.event)
        .filter(Event::is_driver)
        .collect();
    (header, events)
}

/// Replays `events` under `opts` and returns (allocations, bytes) per
/// executed driver event.
fn per_event(header: &TraceHeader, events: &[Event], opts: OracleOpts) -> (f64, f64) {
    let mut m = ReplayMachine::boot(&TraceHeader {
        oracle_opts: opts,
        ..header.clone()
    });
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for ev in events {
        m.step(ev);
    }
    COUNTING.with(|c| c.set(false));
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let outcome = m.outcome();
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert!(outcome.hyp_panic.is_none(), "{:?}", outcome.hyp_panic);
    let n = outcome.steps.max(1) as f64;
    (allocs as f64 / n, bytes as f64 / n)
}

#[test]
fn oracle_allocations_per_driver_event_stay_within_budget() {
    let (header, events) = schedule();
    let cached = OracleOpts::builder().incremental_abstraction(true).build();
    for (mode, opts, (max_allocs, max_bytes)) in [
        ("inline", OracleOpts::default(), INLINE_BUDGET),
        ("cached", cached, CACHED_BUDGET),
    ] {
        let (allocs, bytes) = per_event(&header, &events, opts);
        println!(
            "alloc-budget: {mode} {allocs:.1} allocations/event (budget {max_allocs:.1}), \
             {bytes:.0} bytes/event (budget {max_bytes:.0}), {} driver events",
            events.len()
        );
        assert!(
            allocs <= max_allocs,
            "{mode}: {allocs:.1} allocations/event"
        );
        assert!(bytes <= max_bytes, "{mode}: {bytes:.0} bytes/event");
    }
}
