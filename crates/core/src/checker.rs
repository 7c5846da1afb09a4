//! The `Checker` API: where, and when, the oracle's checks run.
//!
//! The oracle's work splits into two halves. The *front half* runs on the
//! mutator thread, inside the [`GhostHooks`](pkvm_hyp::hooks::GhostHooks)
//! callbacks: it emits the hook's event into the stream, computes the
//! component abstraction **while the component's lock is held** (the one
//! thing that cannot be deferred — the paper's recording discipline), and
//! packages both into a [`CheckMsg`]. The *back half* applies the message:
//! it maintains the shared ghost copy and the per-trap pre/post records,
//! runs the non-interference and separation checks, and at trap exit
//! computes the spec and compares (`Oracle::apply_msg`).
//!
//! [`CheckMode`] selects where the back half runs:
//!
//! - [`CheckMode::Inline`]: the hook applies the message synchronously
//!   before returning — bit-identical to the classic fully synchronous
//!   oracle (same verdicts, same violation sequence ids).
//! - [`CheckMode::Pipelined`]: messages flow through a bounded channel to
//!   a checker thread that applies them behind the execution frontier.
//!   The mutator keeps running; it blocks only when the channel is full
//!   (backpressure — memory stays bounded by `channel_cap`), at an
//!   explicit [`Checker::barrier`], or at [`Verdict::wait`].
//!
//! The checker thread holds only a [`Weak`] reference to the oracle and
//! the channel's receiving end, so dropping the last external handle tears
//! the pipeline down: the oracle (and with it the sender) is dropped, the
//! channel disconnects, and the thread exits. Messages still in flight at
//! that point are discarded — call [`Verdict::wait`] before dropping the
//! oracle if the run's verdict matters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};

use pkvm_aarch64::sysreg::GprFile;
use pkvm_hyp::hooks::Component;

use crate::calldata::GhostCallData;
use crate::check::Violation;
use crate::oracle::{ComponentValue, Oracle, ResilienceSnapshot, TrapRecord};
use crate::state::GhostCpu;

/// Where the oracle's back half (ghost-copy maintenance and spec checks)
/// runs, relative to the hypervisor code that triggered it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// Check synchronously inside each hook (the classic oracle). The
    /// hypervisor thread pays the full check cost per event, but every
    /// accessor is up to date the moment a hook returns. Required when
    /// the caller inspects oracle state *between* individual operations
    /// (e.g. the quickstart's per-trap diff).
    #[default]
    Inline,
    /// Check on a dedicated thread behind the execution frontier. Hooks
    /// only abstract-and-forward; the mutator synchronises with the
    /// checker at [`Verdict::wait`]/[`Checker::barrier`] or when the
    /// bounded channel exerts backpressure.
    ///
    /// The check core is order-dependent (one shared ghost copy, version
    /// stamps, deferred seeding), so one ordered checker thread consumes
    /// every message.
    Pipelined {
        /// Bound on in-flight messages. A stalled checker blocks the
        /// mutator once this many messages are queued, so memory is
        /// bounded by the cap instead of growing with the run. Messages
        /// travel in per-trap batches, so the bound holds at batch
        /// granularity (the cap may be exceeded by at most one batch).
        channel_cap: usize,
    },
}

impl CheckMode {
    /// The pipelined mode with default sizing (a 1024-message channel).
    pub fn pipelined() -> CheckMode {
        CheckMode::Pipelined { channel_cap: 1024 }
    }

    /// `true` for [`CheckMode::Pipelined`].
    pub fn is_pipelined(&self) -> bool {
        matches!(self, CheckMode::Pipelined { .. })
    }
}

/// A completion gate carried by [`CheckMsg::Barrier`]: the poster blocks
/// on the condvar; the checker flips the flag and notifies once every
/// earlier message has been applied.
pub(crate) type BarrierGate = Arc<(StdMutex<bool>, Condvar)>;

/// One unit of back-half work: everything the check core needs that had
/// to be captured on the mutator thread (lock-held abstractions, register
/// files, read-once values), keyed by the primary event's stream seq.
///
/// Variant sizes are deliberately unequal: messages are moved exactly
/// once into a batch `Vec` and consumed in place, so boxing the big
/// trap payloads would trade one memcpy for a per-trap allocation on
/// the hot path for no benefit.
#[allow(clippy::large_enum_variant)]
pub(crate) enum CheckMsg {
    /// `trap_enter` ran: reset the per-CPU record.
    TrapEnter {
        cpu: usize,
        /// Stream seq of the `TrapEnter` event (the trap's identity).
        seq: u64,
        call: GhostCallData,
        cpu_state: GhostCpu,
    },
    /// `trap_exit` ran: finish the recording and run the ternary check.
    TrapExit {
        cpu: usize,
        trap: Option<u64>,
        name: String,
        cpu_state: GhostCpu,
        regs_post: GprFile,
        /// The per-trap budget ran out mid-trap: skip the check.
        degraded: bool,
    },
    /// A lock acquisition, with the abstraction computed under the lock.
    LockAcquired {
        cpu: usize,
        trap: Option<u64>,
        comp: Component,
        value: ComponentValue,
        /// Abstraction anomalies / shadow divergences collected while
        /// abstracting (reported by the back half, in order).
        reports: Vec<Violation>,
        check_ni: bool,
    },
    /// A lock release, with the abstraction computed under the lock.
    LockReleasing {
        cpu: usize,
        trap: Option<u64>,
        comp: Component,
        value: ComponentValue,
        reports: Vec<Violation>,
    },
    /// A degraded lock event (quarantine or budget): evict the component
    /// from the shared copy instead of recording anything.
    Evict {
        cpu: usize,
        trap: Option<u64>,
        comp: Component,
        /// Quarantine eviction also marks the component interleaved for
        /// the running trap; budget eviction does not (the whole trap's
        /// check is already being skipped).
        quarantine: bool,
    },
    /// A `READ_ONCE` value for the running trap's call data.
    ReadOnce {
        cpu: usize,
        tag: &'static str,
        value: u64,
    },
    /// Separation-footprint tracking.
    TablePageAlloc {
        cpu: usize,
        trap: Option<u64>,
        comp: Component,
        pfn: u64,
    },
    /// Separation-footprint tracking.
    TablePageFree { comp: Component, pfn: u64 },
    /// A live mapping was unmapped or tightened (the "break" of
    /// break-before-make). `seq` is the downgrade event's stream seq —
    /// the anchor a later [`Violation::BreakBeforeMake`] carries.
    PteDowngrade {
        cpu: usize,
        seq: u64,
        vmid: u16,
        ia: u64,
        nr: u64,
    },
    /// A TLB invalidation was issued; clears matching pending breaks
    /// (broadcast only — a local TLBI cannot retire a break other CPUs
    /// may still hold stale).
    Tlbi {
        cpu: usize,
        vmid: u16,
        ia: u64,
        nr: u64,
        broadcast: bool,
    },
    /// A barrier completing outstanding TLBIs on this CPU.
    Dsb { cpu: usize },
    /// A page range crossed an ownership-transfer edge; `seq` is the
    /// transfer event's stream seq (the anchor a protocol violation
    /// carries).
    Transfer {
        cpu: usize,
        trap: Option<u64>,
        seq: u64,
        edge: pkvm_hyp::hooks::TransferEdge,
        pfn: u64,
        nr: u64,
        dirty: bool,
    },
    /// A firmware region was donated (`vm_load_firmware` succeeded).
    FirmwareDonate {
        handle: u32,
        uniq: u64,
        pfn: u64,
        nr: u64,
    },
    /// The host's stage 2 regained a page range; `seq` is the regain
    /// event's stream seq (the anchor a firmware-protection violation
    /// carries).
    HostRegain {
        cpu: usize,
        trap: Option<u64>,
        seq: u64,
        pfn: u64,
        nr: u64,
    },
    /// Violations produced on the mutator side (hypervisor panics,
    /// contained front-half panics). Routed through the pipeline so every
    /// report lands in checker order — the derived sequence numbering
    /// stays identical across check modes.
    Report {
        cpu: usize,
        trap: Option<u64>,
        violations: Vec<Violation>,
    },
    /// Sync point: signal the gate once all earlier messages are applied.
    Barrier(BarrierGate),
}

/// The sending half of the pipelined checker, owned by the oracle.
///
/// Messages are *batched*: they accumulate in a buffer and go to the
/// channel `flush_max` at a time (or earlier, at a barrier). A trap
/// emits a handful of messages, and paying the channel's send/wakeup
/// synchronisation once per dozens of messages instead of once per
/// message is what keeps the pipelined mode's per-event overhead low.
/// Batching never reorders: batches preserve send order and the checker
/// applies them in arrival order, so the derived sequence numbering is
/// untouched.
pub(crate) struct Pipeline {
    tx: SyncSender<Vec<CheckMsg>>,
    /// Messages awaiting the next flush (not yet counted as sent).
    buf: StdMutex<Vec<CheckMsg>>,
    /// Flush the buffer once it holds this many messages, even mid-trap,
    /// so `channel_cap`'s memory bound holds at batch granularity.
    flush_max: usize,
    /// Messages handed to the channel (blocks counting as sent once the
    /// send returns).
    sent: AtomicU64,
    /// Messages fully applied by the checker thread.
    applied: AtomicU64,
}

impl Pipeline {
    pub(crate) fn new(tx: SyncSender<Vec<CheckMsg>>, flush_max: usize) -> Pipeline {
        Pipeline {
            tx,
            buf: StdMutex::new(Vec::new()),
            flush_max: flush_max.max(1),
            sent: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }

    /// Queues one message. A full buffer flushes the batch to the
    /// channel; the flush blocks while the channel is at capacity (the
    /// backpressure bound). Messages buffered below the threshold ride
    /// with the next flush or barrier — the checker lags the execution
    /// frontier by design, and [`Verdict::wait`]/[`Checker::barrier`]
    /// are the sync points. A flush after the checker thread died
    /// (shutdown race) is dropped silently.
    pub(crate) fn send(&self, msg: CheckMsg) {
        let batch = {
            let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            buf.push(msg);
            if buf.len() < self.flush_max {
                return;
            }
            std::mem::take(&mut *buf)
        };
        self.flush(batch);
    }

    fn flush(&self, batch: Vec<CheckMsg>) {
        let n = batch.len() as u64;
        if n > 0 && self.tx.send(batch).is_ok() {
            self.sent.fetch_add(n, Ordering::Release);
        }
    }

    pub(crate) fn note_applied(&self) {
        self.applied.fetch_add(1, Ordering::Release);
    }

    /// (sent, applied) message counts: the execution frontier vs the
    /// check frontier.
    pub(crate) fn frontier(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Acquire),
            self.applied.load(Ordering::Acquire),
        )
    }

    /// Posts a barrier and blocks until the checker signals it. The
    /// barrier rides in the same batch as any buffered messages, so
    /// everything emitted before it is applied before the gate opens.
    pub(crate) fn barrier(&self) {
        let gate: BarrierGate = Arc::new((StdMutex::new(false), Condvar::new()));
        let mut batch = {
            let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *buf)
        };
        batch.push(CheckMsg::Barrier(gate.clone()));
        let n = batch.len() as u64;
        if self.tx.send(batch).is_err() {
            // Checker already gone (oracle being torn down): every earlier
            // message has either been applied or discarded; nothing to
            // wait for.
            return;
        }
        self.sent.fetch_add(n, Ordering::Release);
        let (lock, cvar) = &*gate;
        let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = cvar.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The checker thread's main loop: drain the channel, applying messages
/// in arrival order. Holds only a `Weak` oracle so the pipeline cannot
/// keep the oracle alive; once the last strong reference drops, the
/// sender disconnects and the loop exits.
pub(crate) fn checker_loop(oracle: Weak<Oracle>, rx: Receiver<Vec<CheckMsg>>) {
    while let Ok(batch) = rx.recv() {
        let Some(o) = oracle.upgrade() else { break };
        for msg in batch {
            o.apply_counted(msg);
        }
        // Drain whatever queued while we worked before re-upgrading.
        while let Ok(next) = rx.try_recv() {
            for msg in next {
                o.apply_counted(msg);
            }
        }
    }
}

/// A handle over a running oracle's checking machinery: mode inspection
/// and explicit synchronisation. Obtain via `Oracle::checker`.
#[derive(Clone)]
pub struct Checker {
    oracle: Arc<Oracle>,
}

impl Checker {
    pub(crate) fn new(oracle: Arc<Oracle>) -> Checker {
        Checker { oracle }
    }

    /// The mode this oracle checks in.
    pub fn mode(&self) -> CheckMode {
        self.oracle.check_mode()
    }

    /// Blocks until every event emitted so far has been checked. A no-op
    /// in [`CheckMode::Inline`] (there is never a lag).
    pub fn barrier(&self) {
        self.oracle.barrier();
    }

    /// (emitted, checked) message counts — the distance between the
    /// execution frontier and the check frontier. `(0, 0)` in inline
    /// mode, where the two frontiers coincide by construction.
    pub fn frontier(&self) -> (u64, u64) {
        self.oracle.frontier()
    }

    /// Messages currently queued between the two frontiers.
    pub fn in_flight(&self) -> u64 {
        let (sent, applied) = self.frontier();
        sent.saturating_sub(applied)
    }
}

/// A plain-value snapshot of the oracle's counters, taken at one instant.
/// The replacement for scraping `Oracle`'s atomic `stats` field directly:
/// a snapshot through [`Verdict::stats`] (after [`Verdict::wait`]) is
/// coherent in both check modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// Traps whose spec was computed and checked.
    pub traps_checked: u64,
    /// Traps skipped under the loose specification.
    pub traps_unchecked: u64,
    /// Component abstractions computed (lock events).
    pub abstractions: u64,
    /// Individual `READ_ONCE` values recorded.
    pub read_onces: u64,
    /// Per-component checks skipped as interleaved.
    pub interleaved_skips: u64,
    /// Oracle-internal panics contained.
    pub contained_panics: u64,
    /// Hook events skipped under quarantine.
    pub quarantined_skips: u64,
    /// Quarantined components recovered.
    pub quarantine_recoveries: u64,
    /// Violation reports dropped at the bounded log.
    pub violations_dropped: u64,
    /// Traps skipped because the per-trap budget ran out.
    pub degraded_traps: u64,
    /// Lock events degraded to evictions under budget pressure.
    pub budget_degraded_events: u64,
}

impl StatsSnapshot {
    /// The resilience counters of this snapshot.
    pub fn resilience(&self) -> ResilienceSnapshot {
        ResilienceSnapshot {
            contained_panics: self.contained_panics,
            quarantined_skips: self.quarantined_skips,
            quarantine_recoveries: self.quarantine_recoveries,
            violations_dropped: self.violations_dropped,
            degraded_traps: self.degraded_traps,
            budget_degraded_events: self.budget_degraded_events,
            interleaved_skips: self.interleaved_skips,
        }
    }
}

/// The result handle of a checked run. Wraps the oracle; [`Verdict::wait`]
/// synchronises with the checker (pipelined mode's only mandatory sync
/// point), after which the accessors serve the settled verdict.
#[derive(Clone)]
pub struct Verdict {
    oracle: Arc<Oracle>,
}

impl Verdict {
    pub(crate) fn new(oracle: Arc<Oracle>) -> Verdict {
        Verdict { oracle }
    }

    /// Blocks until every event emitted so far has been checked, then
    /// returns `self` for chaining. Call once at the end of a run (or
    /// test case) before reading the verdict.
    pub fn wait(&self) -> &Verdict {
        self.oracle.barrier();
        self
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.oracle.violations()
    }

    /// Number of violations recorded so far (one relaxed atomic load).
    pub fn violation_count(&self) -> u64 {
        self.oracle.violation_count()
    }

    /// `true` when no violations have been recorded.
    pub fn all_clear(&self) -> bool {
        self.violation_count() == 0
    }

    /// A snapshot of the oracle's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.oracle.stats_snapshot()
    }

    /// The resilience counters (containment/degradation machinery).
    pub fn resilience(&self) -> ResilienceSnapshot {
        self.stats().resilience()
    }

    /// The most recent checked traps (bounded; newest last).
    pub fn trace(&self) -> Vec<TrapRecord> {
        self.oracle.trace()
    }

    /// The underlying oracle, for accessors the handle does not mirror.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_defaults_to_inline() {
        assert_eq!(CheckMode::default(), CheckMode::Inline);
        assert!(!CheckMode::Inline.is_pipelined());
        assert!(CheckMode::pipelined().is_pipelined());
    }

    #[test]
    fn stats_snapshot_resilience_mirrors_the_counters() {
        let s = StatsSnapshot {
            contained_panics: 1,
            quarantined_skips: 2,
            degraded_traps: 3,
            ..Default::default()
        };
        let r = s.resilience();
        assert_eq!(r.contained_panics, 1);
        assert_eq!(r.quarantined_skips, 2);
        assert_eq!(r.degraded_traps, 3);
        assert!(r.degraded());
        assert!(!StatsSnapshot::default().resilience().degraded());
    }
}
