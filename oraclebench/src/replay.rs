//! The timed phase: replaying a schedule's driver events into a freshly
//! booted `Machine` under one oracle configuration.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pkvm_aarch64::addr::PhysAddr;
use pkvm_ghost::event::Event;
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_ghost::{CacheStats, CheckMode, StatsSnapshot};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hooks::{GhostHooks, NoHooks};
use pkvm_hyp::machine::Machine;

use crate::ledger::{fold, HookLedger, LedgerHooks};
use crate::schedule::Schedule;

/// How the replayed machine is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No oracle (`NoHooks`).
    Unchecked,
    /// Default `OracleOpts`: what campaigns, replay and fuzzing run.
    Inline,
    /// Inline with the incremental abstraction cache.
    Cached,
    /// Pipelined with the incremental abstraction cache (E12).
    Pipelined,
}

impl Mode {
    /// The three checked modes, in ledger order.
    pub const CHECKED: [Mode; 3] = [Mode::Inline, Mode::Cached, Mode::Pipelined];

    /// The mode's metric-name segment.
    pub const fn name(self) -> &'static str {
        match self {
            Mode::Unchecked => "unchecked",
            Mode::Inline => "inline",
            Mode::Cached => "cached",
            Mode::Pipelined => "pipelined",
        }
    }

    fn opts(self) -> Option<OracleOpts> {
        let cached = || OracleOpts::builder().incremental_abstraction(true);
        match self {
            Mode::Unchecked => None,
            Mode::Inline => Some(OracleOpts::default()),
            Mode::Cached => Some(cached().build()),
            Mode::Pipelined => Some(cached().check_mode(CheckMode::pipelined()).build()),
        }
    }
}

/// Executes one driver event the way `campaign::ReplayMachine::step`
/// does; returns whether it ran (nothing runs after a hypervisor panic).
pub fn step(m: &Machine, ev: &Event) -> bool {
    if m.panicked().is_some() {
        return false;
    }
    match ev {
        Event::Hvc { cpu, func, args } => {
            black_box(m.hvc(*cpu, *func, args));
        }
        Event::WriteMem { pa, value } => {
            let _ = black_box(m.host_write(0, *pa, *value));
        }
        Event::CorruptMem { pa, value } => {
            let _ = black_box(m.mem.write_u64(PhysAddr::new(*pa), *value));
        }
        Event::HostAccess { cpu, addr, access } => {
            let _ = black_box(m.host_access(*cpu, *addr, *access));
        }
        Event::PushGuestOp { handle, idx, op } => {
            let _ = black_box(m.push_guest_op(*handle, *idx, *op));
        }
        _ => return false,
    }
    true
}

/// The settled verdict of a checked replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    /// The oracle's counters after `Verdict::wait`.
    pub stats: StatsSnapshot,
    /// Violation kinds with their event anchors, in report order.
    pub violations: Vec<(&'static str, Option<u64>)>,
    /// The abstraction cache's resolution counters.
    pub cache: CacheStats,
    /// `Oracle::approx_ghost_bytes` at the end of the run.
    pub ghost_bytes: u64,
}

/// `Checker::in_flight` samples taken during a pipelined replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lag {
    /// Largest sample.
    pub max: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Number of samples.
    pub samples: u64,
}

/// The traced part of a replay.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Per-family hook totals and the hypervisor's self time.
    pub ledger: HookLedger,
    /// Each event's wall time, in nanoseconds, in schedule order.
    pub event_ns: Vec<u64>,
}

/// What one replay measured.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Driver events executed.
    pub events: u64,
    /// Wall time from the first event to the settled verdict.
    pub ns: u64,
    /// Part of `ns` spent in `Verdict::wait` after the last event.
    pub drain_ns: u64,
    /// Event-loop time of each quarter of the schedule.
    pub quarter_ns: [u64; 4],
    /// The verdict (`None` unchecked).
    pub verdict: Option<Verdict>,
    /// The hypervisor's panic, if it hit one.
    pub panic: Option<String>,
    /// Checker lag samples (pipelined only).
    pub lag: Option<Lag>,
    /// Span ledger (traced replays only).
    pub traced: Option<Traced>,
}

impl Replay {
    /// Driver events per second over the whole timed region.
    pub fn eps(&self) -> f64 {
        self.events as f64 * 1e9 / self.ns.max(1) as f64
    }
}

/// Checker lag is sampled every this many events.
pub const LAG_SAMPLE_EVERY: usize = 64;

/// Boots a fresh machine for `mode` (wrapped in the timing decorator
/// when `traced`) and replays `schedule` into it. Boot is not timed; the
/// clock runs from the first event until the verdict has settled.
pub fn replay(schedule: &Schedule, mode: Mode, traced: bool) -> Replay {
    let epoch = Instant::now();
    let oracle = mode.opts().map(|o| Oracle::new(&schedule.config, o));
    let ledger = match (&oracle, traced) {
        (Some(o), true) => Some(Arc::new(LedgerHooks::new(o.clone(), epoch))),
        _ => None,
    };
    let hooks: Arc<dyn GhostHooks> = match (&ledger, &oracle) {
        (Some(l), _) => l.clone(),
        (None, Some(o)) => o.clone(),
        (None, None) => Arc::new(NoHooks),
    };
    let machine = Machine::boot(schedule.config.clone(), hooks, Arc::new(FaultSet::none()));
    let verdict = oracle.as_ref().map(|o| o.verdict());
    let checker = oracle
        .as_ref()
        .filter(|_| mode == Mode::Pipelined)
        .map(|o| o.checker());
    if let Some(v) = &verdict {
        v.wait();
    }
    if let Some(l) = &ledger {
        l.take_spans();
    }

    let n = schedule.events.len();
    let mut events = 0u64;
    let mut lag = checker.as_ref().map(|_| Lag::default());
    let mut event_spans = Vec::with_capacity(if traced { n } else { 0 });
    let quarter_end = [n / 4, n / 2, 3 * n / 4, n];
    let mut quarter_ns = [0u64; 4];
    let mut q = 0;
    let start = Instant::now();
    let mut quarter_start = start;
    for (i, ev) in schedule.events.iter().enumerate() {
        if traced {
            let t0 = epoch.elapsed().as_nanos() as u64;
            events += step(&machine, ev) as u64;
            event_spans.push((t0, epoch.elapsed().as_nanos() as u64));
        } else {
            events += step(&machine, ev) as u64;
        }
        if let (Some(c), Some(l)) = (&checker, lag.as_mut()) {
            if i % LAG_SAMPLE_EVERY == 0 {
                let x = c.in_flight();
                l.max = l.max.max(x);
                l.sum += x;
                l.samples += 1;
            }
        }
        while q < 4 && i + 1 == quarter_end[q] {
            let now = Instant::now();
            quarter_ns[q] = (now - quarter_start).as_nanos() as u64;
            quarter_start = now;
            q += 1;
        }
    }
    let loop_end = Instant::now();
    if let Some(v) = &verdict {
        v.wait();
    }
    let end = Instant::now();

    let traced = ledger.map(|l| {
        let spans = l.take_spans();
        Traced {
            ledger: fold(&event_spans, &spans),
            event_ns: event_spans.iter().map(|(a, b)| b - a).collect(),
        }
    });
    let verdict = verdict.map(|v| Verdict {
        stats: v.stats(),
        violations: v
            .violations()
            .iter()
            .map(|x| (x.kind(), x.event_seq()))
            .collect(),
        cache: v.oracle().cache_stats(),
        ghost_bytes: v.oracle().approx_ghost_bytes() as u64,
    });
    Replay {
        events,
        ns: (end - start).as_nanos() as u64,
        drain_ns: (end - loop_end).as_nanos() as u64,
        quarter_ns,
        verdict,
        panic: machine.panicked(),
        lag,
        traced,
    }
}
