//! The traced run's instrument: a [`GhostHooks`] decorator that forwards
//! every hook to the [`Oracle`] and records one span per call.
//!
//! It follows the `chaos::ChaosHooks` pattern — the hypervisor calls the
//! decorator, the decorator calls the oracle — but changes nothing it
//! forwards. Spans stay in memory until the replay ends; [`fold`] then
//! turns them, together with the replay loop's per-event spans, into
//! per-family totals and the hypervisor's self time (an event's span
//! minus the hook spans it covers).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pkvm_aarch64::{Esr, GprFile, PhysAddr};
use pkvm_ghost::oracle::Oracle;
use pkvm_hyp::hooks::{Component, ComponentView, GhostHooks, HookCtx, TransferEdge, VcpuView};
use pkvm_hyp::vm::Handle;

/// A group of hooks timed together: one layer of the oracle's front
/// half (or, inline, front and back half together).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `trap_enter`.
    TrapEnter,
    /// `trap_exit` (inline: the spec compute and compare).
    TrapExit,
    /// `lock_acquired` (the pre abstraction).
    LockAcquired,
    /// `lock_releasing` (the post abstraction).
    LockReleasing,
    /// `vcpu_loaded` and `vcpu_put`.
    Vcpu,
    /// `read_once`.
    ReadOnce,
    /// `table_page_alloc` and `table_page_free`.
    TablePage,
    /// Break-before-make: `pte_downgrade`, `tlbi`, `dsb`.
    Bbm,
    /// Transfer protocol: `transfer`, `firmware_donated`, `host_regain`.
    Transfer,
}

impl Family {
    /// Every family, in ledger order.
    pub const ALL: [Family; 9] = [
        Family::TrapEnter,
        Family::TrapExit,
        Family::LockAcquired,
        Family::LockReleasing,
        Family::Vcpu,
        Family::ReadOnce,
        Family::TablePage,
        Family::Bbm,
        Family::Transfer,
    ];

    /// The family's metric-name segment.
    pub const fn name(self) -> &'static str {
        match self {
            Family::TrapEnter => "trap_enter",
            Family::TrapExit => "trap_exit",
            Family::LockAcquired => "lock_acquired",
            Family::LockReleasing => "lock_releasing",
            Family::Vcpu => "vcpu",
            Family::ReadOnce => "read_once",
            Family::TablePage => "table_page",
            Family::Bbm => "bbm_hooks",
            Family::Transfer => "transfer_hooks",
        }
    }
}

/// One timed hook call, in nanoseconds since the decorator's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The hook's family.
    pub family: Family,
    /// Start of the call.
    pub start: u64,
    /// End of the call.
    pub end: u64,
}

/// The timing decorator.
pub struct LedgerHooks {
    inner: Arc<Oracle>,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl LedgerHooks {
    /// Wraps `inner`; spans are stamped relative to `epoch`, the same
    /// clock the replay loop stamps events with.
    pub fn new(inner: Arc<Oracle>, epoch: Instant) -> LedgerHooks {
        LedgerHooks {
            inner,
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    fn time(&self, family: Family, call: impl FnOnce()) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(Span { family, start, end });
    }
}

impl GhostHooks for LedgerHooks {
    fn trap_enter(
        &self,
        ctx: &HookCtx<'_>,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        self.time(Family::TrapEnter, || {
            self.inner.trap_enter(ctx, esr, fault_ipa, regs, loaded)
        });
    }

    fn trap_exit(
        &self,
        ctx: &HookCtx<'_>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        self.time(Family::TrapExit, || self.inner.trap_exit(ctx, regs, loaded));
    }

    fn lock_acquired(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.time(Family::LockAcquired, || {
            self.inner.lock_acquired(ctx, comp, view)
        });
    }

    fn lock_releasing(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.time(Family::LockReleasing, || {
            self.inner.lock_releasing(ctx, comp, view)
        });
    }

    fn vcpu_loaded(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        self.time(Family::Vcpu, || {
            self.inner.vcpu_loaded(ctx, vm, vcpu_idx, view)
        });
    }

    fn vcpu_put(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        self.time(Family::Vcpu, || {
            self.inner.vcpu_put(ctx, vm, vcpu_idx, view)
        });
    }

    fn read_once(&self, ctx: &HookCtx<'_>, tag: &'static str, value: u64) {
        self.time(Family::ReadOnce, || self.inner.read_once(ctx, tag, value));
    }

    fn table_page_alloc(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        self.time(Family::TablePage, || {
            self.inner.table_page_alloc(ctx, comp, page)
        });
    }

    fn table_page_free(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        self.time(Family::TablePage, || {
            self.inner.table_page_free(ctx, comp, page)
        });
    }

    fn pte_downgrade(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64) {
        self.time(Family::Bbm, || {
            self.inner.pte_downgrade(ctx, vmid, ia, nr_pages)
        });
    }

    fn tlbi(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64, broadcast: bool) {
        self.time(Family::Bbm, || {
            self.inner.tlbi(ctx, vmid, ia, nr_pages, broadcast)
        });
    }

    fn dsb(&self, ctx: &HookCtx<'_>) {
        self.time(Family::Bbm, || self.inner.dsb(ctx));
    }

    fn transfer(&self, ctx: &HookCtx<'_>, edge: TransferEdge, pfn: u64, nr: u64, dirty: bool) {
        self.time(Family::Transfer, || {
            self.inner.transfer(ctx, edge, pfn, nr, dirty)
        });
    }

    fn firmware_donated(&self, ctx: &HookCtx<'_>, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        self.time(Family::Transfer, || {
            self.inner.firmware_donated(ctx, handle, uniq, pfn, nr)
        });
    }

    fn host_regain(&self, ctx: &HookCtx<'_>, pfn: u64, nr: u64) {
        self.time(Family::Transfer, || self.inner.host_regain(ctx, pfn, nr));
    }

    fn hyp_panic(&self, ctx: &HookCtx<'_>, reason: &str) {
        self.inner.hyp_panic(ctx, reason);
    }

    fn wants_write_log(&self) -> bool {
        self.inner.wants_write_log()
    }
}

/// Per-family totals of one traced replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HookLedger {
    /// Nanoseconds inside each family's hooks ([`Family::ALL`] order).
    pub ns: [u64; Family::ALL.len()],
    /// Calls of each family's hooks.
    pub calls: [u64; Family::ALL.len()],
    /// Event time not covered by any hook span: the hypervisor's own
    /// handler work plus the replay loop's dispatch.
    pub self_ns: u64,
}

/// Folds hook spans into per-family totals and subtracts them from the
/// event spans `(start, end)` they fall inside. Both inputs are in time
/// order on one clock; hook spans outside every event (boot, drain) are
/// not counted.
pub fn fold(events: &[(u64, u64)], spans: &[Span]) -> HookLedger {
    let mut ledger = HookLedger::default();
    let mut next = 0;
    for &(start, end) in events {
        let mut covered = 0;
        while next < spans.len() && spans[next].start < start {
            next += 1;
        }
        while next < spans.len() && spans[next].end <= end {
            let s = spans[next];
            let i = s.family as usize;
            ledger.ns[i] += s.end - s.start;
            ledger.calls[i] += 1;
            covered += s.end - s.start;
            next += 1;
        }
        ledger.self_ns += (end - start).saturating_sub(covered);
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_subtracts_covered_hook_time_per_event() {
        let events = [(10, 50), (60, 100)];
        let spans = [
            Span {
                family: Family::TrapEnter,
                start: 5,
                end: 8,
            },
            Span {
                family: Family::LockAcquired,
                start: 12,
                end: 20,
            },
            Span {
                family: Family::TrapExit,
                start: 30,
                end: 45,
            },
            Span {
                family: Family::LockAcquired,
                start: 70,
                end: 75,
            },
        ];
        let l = fold(&events, &spans);
        assert_eq!(l.ns[Family::LockAcquired as usize], 13);
        assert_eq!(l.calls[Family::LockAcquired as usize], 2);
        assert_eq!(l.ns[Family::TrapExit as usize], 15);
        assert_eq!(l.calls[Family::TrapEnter as usize], 0, "boot span skipped");
        assert_eq!(l.self_ns, (40 - 23) + (40 - 5));
    }
}
