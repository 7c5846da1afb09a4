//! Panic containment and component quarantine for the oracle.
//!
//! A runtime oracle embedded in a production hypervisor can never be
//! allowed to take down the system it monitors. This module gives the
//! oracle a blast shield: every abstraction/spec/check step runs under
//! [`contain`], which converts a panic into an error string the caller
//! turns into `ViolationKind::OracleInternal`; a [`Quarantine`] tracks
//! components whose processing fails repeatedly and benches them for a
//! fixed number of traps, after which the caller re-seeds them from a
//! full abstraction pass and resumes checking.
//!
//! Nothing here knows about ghost states — it is deliberately a small,
//! self-contained mechanism so the policy (what to skip, how to recover)
//! stays readable in `oracle.rs`.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

use pkvm_aarch64::sync::Mutex;

thread_local! {
    // Depth of nested `contain` calls on this thread. While positive, the
    // process-global panic hook stays silent: a contained panic is a
    // *report*, not an event worth a stderr backtrace per occurrence.
    static CONTAIN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr noise for panics that are about to be contained, and delegates
/// to the previous hook for everything else.
pub fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAIN_DEPTH.with(|d| d.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Renders a panic payload (from `catch_unwind`) into a `String`.
pub fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panics contained: `Err(payload)` instead of unwinding.
///
/// The closure is wrapped in `AssertUnwindSafe` deliberately: the oracle's
/// shared structures live behind panic-tolerant locks
/// (`pkvm_aarch64::sync` ignores poisoning), and a component whose
/// processing panicked mid-update is exactly what the quarantine/re-seed
/// machinery exists to repair.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    CONTAIN_DEPTH.with(|d| d.set(d.get() + 1));
    let out = catch_unwind(AssertUnwindSafe(f));
    CONTAIN_DEPTH.with(|d| d.set(d.get() - 1));
    out.map_err(payload_to_string)
}

/// Per-key failure accounting with time-boxed quarantine.
///
/// Keys are free-form strings — component names (`"host"`, `"vm[3]"`) and
/// per-trap spec steps (`"spec:host_share_hyp"`) — given as anything that
/// renders to one. Time is measured in traps: the oracle ticks the clock
/// once per `trap_enter`.
///
/// Until the first failure is recorded every key is healthy, so the
/// lookups answer without rendering the key or taking the lock: a clean
/// run pays one atomic load per hook.
#[derive(Debug)]
pub struct Quarantine {
    /// Consecutive failures before a key is quarantined.
    threshold: u32,
    /// How many trap ticks a quarantined key sits out.
    duration: u64,
    tick: AtomicU64,
    /// Set (for good) by the first recorded failure, under `inner`'s lock
    /// (Release); a lookup that reads it set (Acquire) then takes that
    /// lock, which orders the map itself.
    struck: AtomicBool,
    inner: Mutex<HashMap<String, Health>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Health {
    consecutive_failures: u32,
    quarantined_until: Option<u64>,
}

/// What the oracle should do with a key right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Healthy (or still accumulating failures): process normally.
    Process,
    /// Benched: skip all processing for this key.
    Skip,
    /// Quarantine just expired: re-seed from a full pass, then process.
    Recover,
}

impl Quarantine {
    /// A quarantine that benches a key after `threshold` consecutive
    /// failures for `duration` trap ticks.
    pub fn new(threshold: u32, duration: u64) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            duration: duration.max(1),
            tick: AtomicU64::new(0),
            struck: AtomicBool::new(false),
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Advances the trap clock (call once per trap entry).
    pub fn tick(&self) {
        self.tick.fetch_add(1, Ordering::Relaxed);
    }

    /// Current trap clock, for reports.
    pub fn now(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Looks up the key's disposition, transitioning `Skip -> Recover`
    /// exactly once when its quarantine expires.
    pub fn disposition(&self, key: impl fmt::Display) -> Disposition {
        if !self.struck.load(Ordering::Acquire) {
            return Disposition::Process;
        }
        let now = self.tick.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let Some(h) = inner.get_mut(key.to_string().as_str()) else {
            return Disposition::Process;
        };
        match h.quarantined_until {
            Some(until) if now < until => Disposition::Skip,
            Some(_) => {
                // Served its time: one caller gets the Recover signal and
                // the slate is wiped clean.
                *h = Health::default();
                Disposition::Recover
            }
            None => Disposition::Process,
        }
    }

    /// Records a contained failure for `key`. Returns `true` when this
    /// failure pushed the key over the threshold into quarantine.
    pub fn record_failure(&self, key: impl fmt::Display) -> bool {
        let now = self.tick.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        self.struck.store(true, Ordering::Release);
        let h = inner.entry(key.to_string()).or_default();
        if h.quarantined_until.is_some() {
            return false;
        }
        h.consecutive_failures += 1;
        if h.consecutive_failures >= self.threshold {
            h.quarantined_until = Some(now + self.duration);
            true
        } else {
            false
        }
    }

    /// Records a successful pass for `key`, resetting its failure streak.
    pub fn record_success(&self, key: impl fmt::Display) {
        if !self.struck.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(h) = inner.get_mut(key.to_string().as_str()) {
            if h.quarantined_until.is_none() {
                h.consecutive_failures = 0;
            }
        }
    }

    /// Number of keys currently benched.
    pub fn active(&self) -> usize {
        let now = self.tick.load(Ordering::Relaxed);
        self.inner
            .lock()
            .values()
            .filter(|h| h.quarantined_until.is_some_and(|u| now < u))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_passes_values_and_catches_panics() {
        assert_eq!(contain(|| 7), Ok(7));
        let err = contain(|| -> u32 { panic!("boom {}", 3) }).unwrap_err();
        assert_eq!(err, "boom 3");
        let err = contain(|| -> u32 { panic!("static") }).unwrap_err();
        assert_eq!(err, "static");
    }

    #[test]
    fn quarantine_benches_after_threshold_and_recovers() {
        let q = Quarantine::new(2, 3);
        assert_eq!(q.disposition("host"), Disposition::Process);
        assert!(!q.record_failure("host"));
        assert_eq!(q.disposition("host"), Disposition::Process);
        assert!(q.record_failure("host"), "second failure quarantines");
        assert_eq!(q.disposition("host"), Disposition::Skip);
        assert_eq!(q.active(), 1);
        q.tick();
        q.tick();
        assert_eq!(q.disposition("host"), Disposition::Skip);
        q.tick();
        assert_eq!(q.disposition("host"), Disposition::Recover);
        // Recover is delivered once; afterwards the key is healthy again.
        assert_eq!(q.disposition("host"), Disposition::Process);
        assert_eq!(q.active(), 0);
    }

    #[test]
    fn a_quarantine_without_failures_processes_everything_and_keeps_nothing() {
        let q = Quarantine::new(1, 2);
        for key in ["host", "vm[1]", "spec:host_share_hyp"] {
            assert_eq!(q.disposition(key), Disposition::Process);
            q.record_success(key);
            q.tick();
        }
        assert_eq!(q.active(), 0);
        assert!(q.inner.lock().is_empty());
        // The first failure switches the keyed bookkeeping on.
        assert!(q.record_failure("host"));
        assert_eq!(q.disposition("host"), Disposition::Skip);
        assert_eq!(q.disposition("pkvm"), Disposition::Process);
        assert_eq!(q.inner.lock().len(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let q = Quarantine::new(2, 4);
        assert!(!q.record_failure("vm[1]"));
        q.record_success("vm[1]");
        assert!(!q.record_failure("vm[1]"), "streak was reset");
        assert!(q.record_failure("vm[1]"));
    }

    #[test]
    fn failures_while_quarantined_do_not_extend_the_bench() {
        let q = Quarantine::new(1, 2);
        assert!(q.record_failure("pkvm"));
        assert!(!q.record_failure("pkvm"));
        q.tick();
        q.tick();
        assert_eq!(q.disposition("pkvm"), Disposition::Recover);
    }
}
