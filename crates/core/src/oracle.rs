//! The runtime oracle: recording ghost states and checking the spec.
//!
//! [`Oracle`] implements the hypervisor's instrumentation points
//! ([`GhostHooks`]) and realises the timeline of the paper's Fig. 6: at
//! trap entry it starts recording a pre-state (1); each component lock
//! acquisition records that component's abstraction into the pre-state
//! (2)-(3); each release records into the post-state (4)-(5); at trap exit
//! (6) it collects the final thread-local state and call data, computes
//! the expected post-state with the specification function (7), and
//! compares (8) — the ternary check.
//!
//! It also maintains the two §4.4 invariants: a single *shared copy* of
//! the entire ghost state, against which every acquisition checks that
//! nothing changed while the lock was free (non-interference), and the
//! per-component page-table footprints (separation).
//!
//! Since the [`Checker`] redesign the hooks are split into a *front
//! half* that runs on the hypervisor thread (event emission, lock-held
//! abstraction, degradation gating) and a *back half*
//! (`Oracle::apply_msg`) that maintains the shared copy and runs the
//! checks. A protocol hook's back half receives the very event its front
//! half emitted. [`CheckMode`] selects whether the back half runs inline
//! in the hook or on a pipelined checker thread.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::esr::Esr;
use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::sysreg::GprFile;
use pkvm_hyp::hooks::{Component, ComponentView, GhostHooks, HookCtx, TransferEdge, VcpuView};
use pkvm_hyp::hypercalls;
use pkvm_hyp::machine::MachineConfig;
use pkvm_hyp::mm::compute_layout;
use pkvm_hyp::owner::PageState;
use pkvm_hyp::vm::Handle;

use crate::abscache::{AbsCache, CacheStats};
use crate::abstraction::{
    abstract_host, abstract_hyp, abstract_vm, abstract_vm_with_pgt, interpret_pgtable,
    partition_host, Anomaly, HostPartition,
};
use crate::calldata::GhostCallData;
use crate::check::{
    check_trap, host_agrees, normalize, normalized, pkvm_agrees, vm_agrees, Subject, Violation,
    ViolationKind,
};
use crate::checker::{
    checker_loop, CheckMode, CheckMsg, Checker, Pipeline, StatsSnapshot, Verdict,
};
use crate::containment::{contain, Disposition, Quarantine};
use crate::diff::diff_states;
use crate::event::{Event, EventSink, EventStream};
use crate::maplet::{Maplet, MapletTarget};
use crate::spec::{abs_hyp_attrs, compute_post, SpecVerdict};
use crate::state::{
    AbstractPgtable, GhostCpu, GhostGlobals, GhostHost, GhostKey, GhostLoadedVcpu, GhostPkvm,
    GhostState,
};

/// Oracle configuration switches.
///
/// Construct with [`OracleOpts::builder`] (or [`Default`]): the builder
/// keeps call sites valid as switches are added.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct OracleOpts {
    /// Check that lock-protected state is unchanged between critical
    /// sections (§4.4 invariant 1).
    pub check_noninterference: bool,
    /// Check the page-table footprint separation (§4.4 invariant 2).
    pub check_separation: bool,
    /// Serve component abstractions from the incremental cache
    /// ([`AbsCache`]), re-interpreting only write-log-dirtied subtrees.
    pub incremental_abstraction: bool,
    /// Run the full and incremental abstractions side by side and report
    /// any divergence as an oracle self-check violation. Implies the
    /// cache is maintained; the *full* result feeds the checks.
    pub shadow_validation: bool,
    /// Upper bound on retained violation reports; excess reports are
    /// dropped and counted in [`StatsSnapshot::violations_dropped`] so a
    /// pathological run cannot exhaust memory through its own findings.
    pub violation_cap: usize,
    /// Per-trap budget of lock events processed at full fidelity. Beyond
    /// it the oracle degrades: remaining events evict their component
    /// from the shared copy instead of abstracting it, and the trap's
    /// check is skipped (`degraded_traps`). Default is effectively
    /// unlimited.
    pub trap_check_budget: u64,
    /// Consecutive contained panics of one component (or spec step)
    /// before it is quarantined.
    pub quarantine_threshold: u32,
    /// How many traps a quarantined component sits out before it is
    /// recovered by re-seeding from a full abstraction pass.
    pub quarantine_traps: u64,
    /// Where the check core runs relative to the hypervisor: inline in
    /// each hook, or pipelined onto a checker thread behind the
    /// execution frontier. See [`CheckMode`].
    pub check_mode: CheckMode,
}

impl Default for OracleOpts {
    fn default() -> Self {
        Self {
            check_noninterference: true,
            check_separation: true,
            incremental_abstraction: false,
            shadow_validation: false,
            violation_cap: 4096,
            trap_check_budget: u64::MAX,
            quarantine_threshold: 3,
            quarantine_traps: 16,
            check_mode: CheckMode::Inline,
        }
    }
}

impl OracleOpts {
    /// Starts a builder from the defaults.
    pub fn builder() -> OracleOptsBuilder {
        OracleOptsBuilder(OracleOpts::default())
    }

    fn uses_cache(&self) -> bool {
        self.incremental_abstraction || self.shadow_validation
    }
}

/// Builder for [`OracleOpts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleOptsBuilder(OracleOpts);

impl OracleOptsBuilder {
    /// Toggle the §4.4 non-interference check (default on).
    pub fn check_noninterference(mut self, on: bool) -> Self {
        self.0.check_noninterference = on;
        self
    }

    /// Toggle the §4.4 footprint-separation check (default on).
    pub fn check_separation(mut self, on: bool) -> Self {
        self.0.check_separation = on;
        self
    }

    /// Toggle the incremental abstraction cache (default off).
    pub fn incremental_abstraction(mut self, on: bool) -> Self {
        self.0.incremental_abstraction = on;
        self
    }

    /// Toggle shadow validation of the incremental cache (default off).
    pub fn shadow_validation(mut self, on: bool) -> Self {
        self.0.shadow_validation = on;
        self
    }

    /// Bound the retained violation log (default 4096; minimum 1).
    pub fn violation_cap(mut self, cap: usize) -> Self {
        self.0.violation_cap = cap.max(1);
        self
    }

    /// Bound the lock events processed at full fidelity per trap
    /// (default unlimited).
    pub fn trap_check_budget(mut self, budget: u64) -> Self {
        self.0.trap_check_budget = budget;
        self
    }

    /// Consecutive contained panics before quarantine (default 3).
    pub fn quarantine_threshold(mut self, n: u32) -> Self {
        self.0.quarantine_threshold = n;
        self
    }

    /// Quarantine duration in traps (default 16).
    pub fn quarantine_traps(mut self, n: u64) -> Self {
        self.0.quarantine_traps = n;
        self
    }

    /// Where the check core runs (default [`CheckMode::Inline`]).
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.0.check_mode = mode;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> OracleOpts {
        self.0
    }
}

/// One line of the oracle's trap trace: what was checked and how it went.
#[derive(Clone, Debug)]
pub struct TrapRecord {
    /// Hardware thread the trap ran on.
    pub cpu: usize,
    /// Handler name (hypercall name, `host_abort`, `smc`, ...).
    pub name: String,
    /// `Ok`: checked and clean. `Err`: number of violations, or the
    /// looseness reason when the check was skipped.
    pub outcome: TrapOutcome,
}

/// How one trap's check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapOutcome {
    /// Spec computed and matched.
    Clean,
    /// Spec computed; this many violations were recorded.
    Violated(usize),
    /// The loose specification skipped the check.
    Unchecked(String),
}

/// The live storage behind [`StatsSnapshot`]: the same counters as
/// relaxed atomics, so every hook bumps them without a lock. Read them
/// only through [`Oracle::stats_snapshot`].
#[derive(Debug, Default)]
struct Counters {
    traps_checked: AtomicU64,
    traps_unchecked: AtomicU64,
    abstractions: AtomicU64,
    read_onces: AtomicU64,
    interleaved_skips: AtomicU64,
    contained_panics: AtomicU64,
    quarantined_skips: AtomicU64,
    quarantine_recoveries: AtomicU64,
    violations_dropped: AtomicU64,
    degraded_traps: AtomicU64,
    budget_degraded_events: AtomicU64,
}

/// The single shared copy of the ghost state (§4.4 invariant 1), plus a
/// monotonic update stamp per component so concurrent traps can tell
/// whether a component moved underneath them while they ran.
struct SharedGhost {
    state: GhostState,
    versions: HashMap<Component, u64>,
    tick: u64,
    /// Incarnation id ([`pkvm_hyp::vm::Vm::uniq`]) of the VM whose state
    /// `state.vms[handle]` currently holds. Handles are slot-derived and
    /// reused after teardown, and `do_teardown_vm` releases the dying VM's
    /// lock *after* dropping the table lock, so without this a dead VM's
    /// final abstraction could overwrite (and later be compared against) a
    /// fresh VM that concurrently reused the handle.
    vm_uniq: HashMap<Handle, u64>,
}

impl SharedGhost {
    /// Records `value` into the shared copy and stamps the component.
    ///
    /// VM components are gated by incarnation: a recording from an older
    /// incarnation of a (reused) handle never lands on top of a newer
    /// one, and a release from a VM no longer in the recorded table (the
    /// tail of teardown) is dropped rather than resurrecting the dead
    /// VM's state. Recording the VM table prunes the state of every VM
    /// that left it.
    fn set(&mut self, comp: Component, value: &ComponentValue) {
        match value {
            ComponentValue::VmTable(vms, uniqs) => {
                let dead: Vec<Handle> = self
                    .state
                    .vms
                    .keys()
                    .copied()
                    .filter(|h| !vms.iter().any(|&(live, _)| live == *h))
                    .collect();
                for h in dead {
                    self.state.vms.remove(&h);
                    self.stamp(Component::Vm(h));
                }
                self.vm_uniq
                    .retain(|h, _| vms.iter().any(|&(live, _)| live == *h));
                for &(h, uniq) in uniqs {
                    if let Some(old) = self.vm_uniq.insert(h, uniq) {
                        if old != uniq && self.state.vms.remove(&h).is_some() {
                            // The stored state belonged to a previous
                            // incarnation of this handle; not comparable.
                            self.stamp(Component::Vm(h));
                        }
                    }
                }
            }
            ComponentValue::Vm(h, uniq, _) => {
                match self.vm_uniq.get(h) {
                    Some(&stored) if stored > *uniq => return,
                    None => {
                        let live = self
                            .state
                            .vm_table
                            .as_ref()
                            .is_none_or(|t| t.iter().any(|&(lh, _)| lh == *h));
                        if !live {
                            // The tail of a teardown: the table no longer
                            // lists this VM, so its dying abstraction must
                            // not re-enter the shared copy.
                            return;
                        }
                    }
                    _ => {}
                }
                self.vm_uniq.insert(*h, *uniq);
            }
            _ => {}
        }
        self.stamp(comp);
        Oracle::set_component(&mut self.state, comp, value, false);
    }

    /// Bumps the stamp of `comp` without going through a component value
    /// (deferred seeding writes the spec-computed state directly).
    fn stamp(&mut self, comp: Component) {
        self.tick += 1;
        self.versions.insert(comp, self.tick);
    }
}

/// The mutator-side mirror of one CPU's trap progress: everything the
/// *front half* of the hooks needs without waiting on the checker. The
/// check-side twin is [`CpuRecord`], which only the back half touches —
/// in pipelined mode the two live on different threads.
struct FrontRecord {
    in_trap: bool,
    /// Event-stream sequence id of the running trap's `TrapEnter`.
    trap_seq: Option<u64>,
    /// `(esr, x0-at-entry)` of the running trap, enough to name the trap
    /// at exit without the back half's call data. `None` mirrors "no
    /// recorded call data" (trap_enter was never delivered).
    call_mirror: Option<(Esr, u64)>,
    /// Lock events processed so far within this trap (the per-trap check
    /// budget's spend counter).
    events_this_trap: u64,
    /// The budget ran out mid-trap: remaining events degrade to evictions
    /// and the trap's check is skipped.
    degraded: bool,
}

/// The check-side recording of one CPU's trap (the paper's thread-local
/// pre/post states). Only the back half ([`Oracle::apply_msg`]) touches
/// it; whether a trap is running is the front half's call
/// ([`FrontRecord::in_trap`]), passed down in each message's `trap`.
struct CpuRecord {
    pre: GhostState,
    post: GhostState,
    call: Option<GhostCallData>,
    /// The shared copy's stamp clock at trap entry: deferred seeding only
    /// lands if the component has not been stamped since (otherwise a
    /// concurrent trap's legitimate update would be overwritten with a
    /// stale expectation, and the next acquisition would report a
    /// spurious non-interference violation). Stamps only ever increase and
    /// are never removed, so "stamped since entry" is exactly "stamp
    /// above this tick".
    tick_at_entry: u64,
    /// Shared-copy stamp left by this trap's most recent release of each
    /// component, so a re-acquisition can tell whether a *foreign* trap
    /// updated the component between two of this trap's own critical
    /// sections.
    last_release: HashMap<Component, u64>,
    /// Components a foreign trap updated between two of this trap's
    /// critical sections. The per-trap check pretends the handler ran
    /// atomically; for these components it did not, so their comparison
    /// is skipped (the ternary check's "unchecked" answer) instead of
    /// reporting a spurious mismatch.
    interleaved: HashSet<Component>,
    /// Event-stream sequence id of this trap's `TrapEnter`, so every
    /// event and violation produced inside the trap links back to it.
    trap_seq: Option<u64>,
}

/// One table write that removed or tightened a live mapping, awaiting
/// its break-before-make flush sequence.
struct PendingBreak {
    /// Stream seq of the `PteDowngrade` event (the offending write).
    seq: u64,
    vmid: u16,
    ia: u64,
    nr: u64,
    /// A covering broadcast TLBI has been seen; the next DSB retires it.
    tlbi_done: bool,
}

/// The downgrade's span in byte addresses, overflow-safe (`nr` may be
/// `u64::MAX` for a VMID-wide downgrade).
fn bbm_span(ia: u64, nr: u64) -> (u128, u128) {
    let start = ia as u128;
    (start, start + nr as u128 * PAGE_SIZE as u128)
}

/// Back-half ledger for the break-before-make check, keyed by the CPU
/// that performed the table write: break, TLBI, and DSB are steps of a
/// single trap, and a trap runs on one CPU. Leftovers at trap exit are
/// the violations.
#[derive(Default)]
struct BbmTracker {
    pending: HashMap<usize, Vec<PendingBreak>>,
}

impl BbmTracker {
    fn note_break(&mut self, cpu: usize, seq: u64, vmid: u16, ia: u64, nr: u64) {
        self.pending.entry(cpu).or_default().push(PendingBreak {
            seq,
            vmid,
            ia,
            nr,
            tlbi_done: false,
        });
    }

    /// A broadcast TLBI on `cpu`: marks every pending break of the same
    /// VMID whose span it covers. Non-broadcast TLBIs never come here —
    /// they cannot retire a break other CPUs may still hold stale.
    fn note_tlbi(&mut self, cpu: usize, vmid: u16, ia: u64, nr: u64) {
        let Some(list) = self.pending.get_mut(&cpu) else {
            return;
        };
        let (t_start, t_end) = bbm_span(ia, nr);
        for b in list.iter_mut() {
            let (b_start, b_end) = bbm_span(b.ia, b.nr);
            if b.vmid == vmid && b_start >= t_start && b_end <= t_end {
                b.tlbi_done = true;
            }
        }
    }

    /// A DSB on `cpu` completes the outstanding TLBIs: retires every
    /// break they covered.
    fn note_dsb(&mut self, cpu: usize) {
        if let Some(list) = self.pending.get_mut(&cpu) {
            list.retain(|b| !b.tlbi_done);
        }
    }

    /// Takes everything still pending on `cpu` (the trap is exiting;
    /// whatever is left breached the discipline).
    fn drain(&mut self, cpu: usize) -> Vec<PendingBreak> {
        self.pending.remove(&cpu).unwrap_or_default()
    }
}

/// A page's position in the ownership-transfer protocol, as the oracle's
/// edge ledger tracks it. Pages start (and mostly live) in `HostOwned`;
/// `FirmwareOwned` is terminal — firmware is retained by the hypervisor
/// across teardown, so no legal edge ever leaves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum XferState {
    HostOwned,
    SharedHyp,
    HypOwned,
    GuestOwned,
    GuestShared,
    GuestSharedHost,
    FirmwareOwned,
}

impl XferState {
    fn name(self) -> &'static str {
        match self {
            XferState::HostOwned => "host_owned",
            XferState::SharedHyp => "shared_hyp",
            XferState::HypOwned => "hyp_owned",
            XferState::GuestOwned => "guest_owned",
            XferState::GuestShared => "guest_shared",
            XferState::GuestSharedHost => "guest_shared_host",
            XferState::FirmwareOwned => "firmware_owned",
        }
    }
}

/// Back-half ledger for the transfer-protocol check: one [`XferState`]
/// per page that has ever left host ownership. Every
/// [`TransferEdge`] the hypervisor commits must depart from the state
/// the protocol prescribes; hooks fire under the host lock, so both
/// check modes apply the edges in the same per-page order.
#[derive(Default)]
struct TransferTracker {
    states: HashMap<u64, XferState>,
}

impl TransferTracker {
    /// Runs one page across one protocol edge. `Err` carries the illegal
    /// departure state's name for the violation detail.
    fn cross(&mut self, edge: TransferEdge, pfn: u64) -> Result<(), &'static str> {
        use XferState::*;
        let cur = self.states.get(&pfn).copied().unwrap_or(HostOwned);
        let next = match (edge, cur) {
            (TransferEdge::ShareHyp, HostOwned) => SharedHyp,
            (TransferEdge::UnshareHyp, SharedHyp) => HostOwned,
            (TransferEdge::DonateHyp, HostOwned) => HypOwned,
            (TransferEdge::DonateHost, HypOwned) => HostOwned,
            (TransferEdge::MapGuestOwned, HostOwned) => GuestOwned,
            (TransferEdge::MapGuestShared, HostOwned) => GuestShared,
            (TransferEdge::GuestShareHost, GuestOwned) => GuestSharedHost,
            (TransferEdge::GuestUnshareHost, GuestSharedHost) => GuestOwned,
            (TransferEdge::Firmware, HostOwned) => FirmwareOwned,
            (TransferEdge::Reclaim, GuestOwned | GuestShared | GuestSharedHost) => HostOwned,
            (_, cur) => return Err(cur.name()),
        };
        self.states.insert(pfn, next);
        Ok(())
    }
}

/// One donated firmware page the host must never see again.
struct FirmwarePage {
    handle: Handle,
    uniq: u64,
    /// A violation was already reported for this page; dedupes the
    /// backstop scan, which otherwise re-finds the same breach at every
    /// host lock event.
    reported: bool,
}

impl FirmwarePage {
    /// The breach report for this page at frame `pfn`, anchored at `seq`
    /// — the first time only: `None` once the page was reported.
    fn report(&mut self, pfn: u64, seq: Option<u64>) -> Option<Violation> {
        if std::mem::replace(&mut self.reported, true) {
            return None;
        }
        Some(Violation {
            seq,
            uniq: Some(self.uniq),
            ..Violation::new(ViolationKind::FirmwareProtection {
                handle: self.handle,
                pfn,
            })
        })
    }
}

/// Back-half ledger for the firmware-protection check. Insert-only: a
/// donation binds the page to its VM incarnation for the rest of the
/// run, surviving teardown and handle reuse (the hypervisor retains
/// firmware forever).
#[derive(Default)]
struct FirmwareTracker {
    pages: HashMap<u64, FirmwarePage>,
}

impl FirmwareTracker {
    fn note_donate(&mut self, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        for p in pfn..pfn.saturating_add(nr) {
            self.pages.insert(
                p,
                FirmwarePage {
                    handle,
                    uniq,
                    reported: false,
                },
            );
        }
    }

    /// The host regained `[pfn, pfn+nr)`: reports every tracked firmware
    /// page in the range (anchored at the regain event `seq`).
    fn check_regain(&mut self, seq: u64, pfn: u64, nr: u64) -> Vec<Violation> {
        (pfn..pfn.saturating_add(nr))
            .filter_map(|p| self.pages.get_mut(&p)?.report(p, Some(seq)))
            .collect()
    }

    /// Backstop over a freshly abstracted host component: any tracked
    /// page the host's stage 2 can reach again (no longer annotated away
    /// from it) is a breach, even if no regain hook announced it.
    fn scan_host(&mut self, host: &GhostHost) -> Vec<Violation> {
        let mut out: Vec<(u64, Violation)> = self
            .pages
            .iter_mut()
            .filter(|(p, _)| host.annot.lookup(*p << 12).is_none())
            .filter_map(|(&p, fw)| Some((p, fw.report(p, None)?)))
            .collect();
        out.sort_by_key(|&(p, _)| p);
        out.into_iter().map(|(_, v)| v).collect()
    }
}

/// The runtime test oracle; install as the machine's [`GhostHooks`].
pub struct Oracle {
    /// The initialisation-time constants, derived independently from the
    /// machine configuration (the spec's own view of the correct layout).
    pub globals: GhostGlobals,
    opts: OracleOpts,
    shared: Mutex<SharedGhost>,
    cpus: Vec<Mutex<CpuRecord>>,
    fronts: Vec<Mutex<FrontRecord>>,
    footprints: Mutex<HashMap<Component, BTreeSet<u64>>>,
    abscache: Mutex<AbsCache>,
    events: Arc<EventStream>,
    quarantine: Quarantine,
    /// `Some` in [`CheckMode::Pipelined`]: the sending half of the
    /// checker's bounded channel.
    pipeline: Option<Pipeline>,
    /// Break-before-make ledger (back-half state, like the shared copy).
    bbm: Mutex<BbmTracker>,
    /// Transfer-protocol ledger (back-half state).
    xfer: Mutex<TransferTracker>,
    /// Firmware-protection ledger (back-half state).
    firmware: Mutex<FirmwareTracker>,
    counters: Counters,
}

impl Oracle {
    /// Builds an oracle for machines booted from `config`.
    ///
    /// The globals are *derived from the configuration*, not copied from
    /// the booted machine: the oracle computes what a correct layout looks
    /// like, so layout bugs (real bug 5) surface at the boot check.
    pub fn new(config: &MachineConfig, opts: OracleOpts) -> Arc<Oracle> {
        let events = Arc::new(EventStream::new(false, opts.violation_cap));
        Oracle::with_stream(config, opts, events)
    }

    /// Like [`Oracle::new`], but recording into a caller-provided
    /// [`EventStream`] — the harness shares one stream between the proxy
    /// (driver events), the chaos engine (injections), and the oracle, so
    /// a whole campaign lands on one timeline.
    pub fn with_stream(
        config: &MachineConfig,
        opts: OracleOpts,
        events: Arc<EventStream>,
    ) -> Arc<Oracle> {
        let (last_base, last_size) = *config.dram.last().expect("config has DRAM");
        let ram_end = last_base + last_size;
        let pool_base_pfn = (ram_end - config.hyp_pool_pages * PAGE_SIZE) >> 12;
        let layout = compute_layout(PhysAddr::new(ram_end), false).expect("layout fits");
        let globals = GhostGlobals {
            nr_cpus: config.nr_cpus,
            physvirt_offset: layout.physvirt_offset,
            uart_va: layout.uart_va.bits(),
            hyp_range: (pool_base_pfn, config.hyp_pool_pages),
            ram: config.dram.clone(),
            mmio: config.mmio.clone(),
        };
        let shared = GhostState::blank(&globals);
        let (pipeline, rx) = match opts.check_mode {
            CheckMode::Inline => (None, None),
            CheckMode::Pipelined { channel_cap } => {
                // Messages travel in batches (one per trap, or `flush`
                // messages, whichever comes first); the channel is sized
                // in batches so `channel_cap` keeps bounding the number
                // of in-flight *messages* at batch granularity.
                let flush = channel_cap.clamp(1, 64);
                let (tx, rx) = mpsc::sync_channel(channel_cap.max(1).div_ceil(flush));
                (Some(Pipeline::new(tx, flush)), Some(rx))
            }
        };
        let oracle = Arc::new(Oracle {
            cpus: (0..config.nr_cpus)
                .map(|_| {
                    Mutex::new(CpuRecord {
                        pre: GhostState::blank(&globals),
                        post: GhostState::blank(&globals),
                        call: None,
                        tick_at_entry: 0,
                        last_release: HashMap::new(),
                        interleaved: HashSet::new(),
                        trap_seq: None,
                    })
                })
                .collect(),
            fronts: (0..config.nr_cpus)
                .map(|_| {
                    Mutex::new(FrontRecord {
                        in_trap: false,
                        trap_seq: None,
                        call_mirror: None,
                        events_this_trap: 0,
                        degraded: false,
                    })
                })
                .collect(),
            globals,
            opts,
            shared: Mutex::new(SharedGhost {
                state: shared,
                versions: HashMap::new(),
                tick: 0,
                vm_uniq: HashMap::new(),
            }),
            footprints: Mutex::new(HashMap::new()),
            abscache: Mutex::new(AbsCache::new()),
            events,
            quarantine: Quarantine::new(opts.quarantine_threshold, opts.quarantine_traps),
            pipeline,
            bbm: Mutex::new(BbmTracker::default()),
            xfer: Mutex::new(TransferTracker::default()),
            firmware: Mutex::new(FirmwareTracker::default()),
            counters: Counters::default(),
        });
        if let Some(rx) = rx {
            // The thread holds only a weak reference: dropping the last
            // external handle drops the sender, disconnects the channel,
            // and the thread exits.
            let weak = Arc::downgrade(&oracle);
            std::thread::Builder::new()
                .name("ghost-checker".into())
                .spawn(move || checker_loop(weak, rx))
                .expect("spawn checker thread");
        }
        oracle
    }

    /// A [`Checker`] handle over this oracle (mode inspection, explicit
    /// synchronisation).
    pub fn checker(self: &Arc<Self>) -> Checker {
        Checker::new(self.clone())
    }

    /// A [`Verdict`] handle over this oracle: `wait()` then read the
    /// violations and stats, instead of scraping the atomics directly.
    pub fn verdict(self: &Arc<Self>) -> Verdict {
        Verdict::new(self.clone())
    }

    /// The configured [`CheckMode`].
    pub fn check_mode(&self) -> CheckMode {
        self.opts.check_mode
    }

    /// Blocks until every hook event emitted so far has been checked.
    /// A no-op in [`CheckMode::Inline`].
    pub fn barrier(&self) {
        if let Some(p) = &self.pipeline {
            p.barrier();
        }
    }

    /// (sent, applied) checker-message counts; `(0, 0)` inline.
    pub(crate) fn frontier(&self) -> (u64, u64) {
        self.pipeline.as_ref().map_or((0, 0), |p| p.frontier())
    }

    /// A coherent plain-value snapshot of the counters. In pipelined mode
    /// call [`Oracle::barrier`] (or go through [`Verdict`]) first, or the
    /// snapshot can straddle the check frontier.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let s = &self.counters;
        StatsSnapshot {
            traps_checked: s.traps_checked.load(Ordering::Relaxed),
            traps_unchecked: s.traps_unchecked.load(Ordering::Relaxed),
            abstractions: s.abstractions.load(Ordering::Relaxed),
            read_onces: s.read_onces.load(Ordering::Relaxed),
            interleaved_skips: s.interleaved_skips.load(Ordering::Relaxed),
            contained_panics: s.contained_panics.load(Ordering::Relaxed),
            quarantined_skips: s.quarantined_skips.load(Ordering::Relaxed),
            quarantine_recoveries: s.quarantine_recoveries.load(Ordering::Relaxed),
            violations_dropped: s.violations_dropped.load(Ordering::Relaxed),
            degraded_traps: s.degraded_traps.load(Ordering::Relaxed),
            budget_degraded_events: s.budget_degraded_events.load(Ordering::Relaxed),
        }
    }

    /// Hands one back-half message to the check core: applied on the
    /// spot inline (preserving the classic synchronous semantics
    /// bit-for-bit), queued to the checker thread pipelined.
    fn dispatch(&self, msg: CheckMsg) {
        match &self.pipeline {
            None => self.apply_msg(msg),
            Some(p) => p.send(msg),
        }
    }

    /// The checker thread's per-message entry: applies with a containment
    /// net (a panicking check becomes a quarantine strike plus an
    /// [`ViolationKind::OracleInternal`], never a dead checker thread) and
    /// advances the applied counter. Inline mode never comes through
    /// here — the hook's own containment wraps the synchronous apply,
    /// exactly as the classic oracle contained it.
    pub(crate) fn apply_counted(&self, msg: CheckMsg) {
        if let CheckMsg::Barrier(gate) = msg {
            if let Some(p) = &self.pipeline {
                p.note_applied();
            }
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
            return;
        }
        // The quarantine key: a lock event's component, else the step.
        // Rendered only if the apply panics.
        let comp = match &msg {
            CheckMsg::LockAcquired { comp, .. } | CheckMsg::LockReleasing { comp, .. } => {
                Some(*comp)
            }
            _ => None,
        };
        let step = match &msg {
            CheckMsg::TrapEnter { .. } => "trap_enter",
            CheckMsg::TrapExit { .. } => "trap_exit",
            CheckMsg::ReadOnce { .. } => "read_once",
            _ => "checker",
        };
        let res = contain(|| self.apply_msg(msg));
        if let Some(p) = &self.pipeline {
            p.note_applied();
        }
        if let Err(payload) = res {
            let key = comp.map_or_else(|| Subject::named(step), |c| GhostKey::Comp(c).into());
            self.report(self.contained_panic(key, payload));
        }
    }

    /// Resolution counters of the incremental abstraction cache (all zero
    /// unless `incremental_abstraction` or `shadow_validation` is on).
    pub fn cache_stats(&self) -> CacheStats {
        self.abscache.lock().stats
    }

    /// The event stream this oracle records into.
    pub fn events(&self) -> &Arc<EventStream> {
        &self.events
    }

    /// All violations recorded so far (served from the event stream's
    /// bounded log).
    pub fn violations(&self) -> Vec<Violation> {
        self.events.violations()
    }

    /// Number of violations recorded so far, without cloning the reports.
    /// A single relaxed atomic load: cheap enough for worker threads of a
    /// random-testing campaign to poll every few steps.
    pub fn violation_count(&self) -> u64 {
        self.events.violation_count()
    }

    /// Returns `true` if no violations have been recorded.
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Drops all recorded violations (between test cases). Synchronises
    /// with the checker first, so a pending report from the cleared era
    /// cannot land after the clear.
    pub fn clear_violations(&self) {
        self.barrier();
        self.events.clear_violations();
    }

    /// The most recent checked traps (bounded; newest last; served from
    /// the event stream's check ring).
    pub fn trace(&self) -> Vec<TrapRecord> {
        self.events.trap_records()
    }

    fn push_trace(&self, trap: Option<u64>, rec: TrapRecord) {
        self.events.emit(
            rec.cpu as u32,
            trap,
            Event::Check {
                cpu: rec.cpu,
                name: rec.name,
                outcome: rec.outcome,
            },
        );
    }

    fn report(&self, v: Violation) {
        self.report_all_at(0, None, vec![v]);
    }

    fn report_at(&self, cpu: usize, trap: Option<u64>, v: Violation) {
        self.report_all_at(cpu, trap, vec![v]);
    }

    fn report_all_at(&self, cpu: usize, trap: Option<u64>, mut new: Vec<Violation>) {
        self.annotate_vm_uniq(&mut new);
        for v in new {
            if !self.events.violation(cpu as u32, trap, v) {
                self.counters
                    .violations_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fills in the VM incarnation id on the diff-carrying reports
    /// (spec mismatch, unexpected change, non-interference) about a VM
    /// part, from the shared copy's incarnation table. (Reports that
    /// already know their incarnation keep it.)
    fn annotate_vm_uniq(&self, vs: &mut [Violation]) {
        let vm_of = |v: &Violation| match (&v.kind, &v.subject, v.uniq) {
            (
                ViolationKind::SpecMismatch { .. }
                | ViolationKind::UnexpectedChange { .. }
                | ViolationKind::NonInterference { .. },
                Some(Subject::Part(GhostKey::Comp(Component::Vm(h)))),
                None,
            ) => Some(*h),
            _ => None,
        };
        if !vs.iter().any(|v| vm_of(v).is_some()) {
            return;
        }
        let guard = self.shared.lock();
        for v in vs.iter_mut() {
            if let Some(h) = vm_of(v) {
                v.uniq = guard.vm_uniq.get(&h).copied();
            }
        }
    }

    /// Runs one front-half oracle step with panics contained: a panic
    /// becomes a [`ViolationKind::OracleInternal`] and a strike against
    /// `key`'s quarantine record, never an unwind into the hypervisor.
    /// The report is routed through the pipeline ([`CheckMsg::Report`])
    /// like every front-originated violation, so the derived sequence
    /// numbering is identical in both check modes. `key` is rendered only
    /// once the quarantine has something to look up.
    fn guarded(&self, key: impl fmt::Display + Into<Subject>, f: impl FnOnce()) {
        match contain(f) {
            Ok(()) => self.quarantine.record_success(&key),
            Err(payload) => self.dispatch(CheckMsg::Report {
                cpu: 0,
                trap: None,
                violations: vec![self.contained_panic(key, payload)],
            }),
        }
    }

    /// A panic contained while processing `key`: counts it, strikes
    /// `key`'s quarantine record, and returns its report.
    fn contained_panic(
        &self,
        key: impl fmt::Display + Into<Subject>,
        payload: String,
    ) -> Violation {
        self.counters
            .contained_panics
            .fetch_add(1, Ordering::Relaxed);
        self.quarantine.record_failure(&key);
        Violation::about(key, ViolationKind::OracleInternal { payload })
    }

    /// Sequence id of the trap currently executing on `cpu`, if any
    /// (front-half knowledge: the mutator is the one inside the trap).
    fn current_trap(&self, cpu: usize) -> Option<u64> {
        let front = self.fronts[cpu].lock();
        if front.in_trap {
            front.trap_seq
        } else {
            None
        }
    }

    /// The front half of every protocol hook: emits `event` under the
    /// running trap and forwards it, with its stream seq, to the back half
    /// ([`CheckMsg::Observed`]). Contained under `key` like every other
    /// front-half step.
    fn observe(&self, ctx: &HookCtx<'_>, key: &str, event: Event) {
        self.guarded(key, || {
            let cpu = ctx.cpu;
            let trap = self.current_trap(cpu);
            let seq = self.events.emit(cpu as u32, trap, event.clone());
            self.dispatch(CheckMsg::Observed {
                cpu,
                trap,
                seq,
                event,
            });
        });
    }

    /// Degrades one lock event: instead of abstracting the component, its
    /// entry is evicted from the shared copy (and stamped), so nothing
    /// stale is ever compared later. Used when the component is
    /// quarantined or the per-trap budget ran out — the cheap-but-safe
    /// fallback.
    fn evict_shared(&self, comp: Component) {
        let mut shared = self.shared.lock();
        shared.state.remove(GhostKey::Comp(comp));
        shared.stamp(comp);
    }

    /// Accounts one lock event against the per-trap check budget. `true`
    /// means the budget is spent: the caller must degrade this event.
    fn budget_exhausted(&self, cpu: usize) -> bool {
        let mut front = self.fronts[cpu].lock();
        if !front.in_trap {
            return false;
        }
        front.events_this_trap += 1;
        if front.events_this_trap > self.opts.trap_check_budget {
            front.degraded = true;
            true
        } else {
            false
        }
    }

    /// Bookkeeping for a lock event skipped under quarantine: count it,
    /// then have the back half evict the component so nothing stale is
    /// compared, marking it interleaved so the running trap's check
    /// ignores it.
    fn note_quarantine_skip(&self, cpu: usize, trap: Option<u64>, comp: Component) {
        self.counters
            .quarantined_skips
            .fetch_add(1, Ordering::Relaxed);
        self.dispatch(CheckMsg::Evict {
            cpu,
            trap,
            comp,
            quarantine: true,
        });
    }

    /// Number of components (or spec steps) currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.quarantine.active()
    }

    /// Approximate resident size of the ghost state, in bytes (for the
    /// paper's memory-impact measurement).
    pub fn approx_ghost_bytes(&self) -> usize {
        fn state_bytes(s: &GhostState) -> usize {
            let mapping = |m: &crate::mapping::Mapping| m.len() * core::mem::size_of::<Maplet>();
            let mut n = core::mem::size_of::<GhostState>();
            if let Some(h) = &s.host {
                n += mapping(&h.annot) + mapping(&h.shared) + h.table_pages.len() * 8;
            }
            if let Some(p) = &s.pkvm {
                n += mapping(&p.pgt.mapping) + p.pgt.table_pages.len() * 8;
            }
            for vm in s.vms.values() {
                n += mapping(&vm.pgt.mapping) + vm.pgt.table_pages.len() * 8;
                n += vm.vcpus.len() * core::mem::size_of::<crate::state::GhostVcpu>();
            }
            n += s.locals.len() * core::mem::size_of::<GhostCpu>();
            n
        }
        let mut total = state_bytes(&self.shared.lock().state);
        for c in &self.cpus {
            let rec = c.lock();
            total += state_bytes(&rec.pre) + state_bytes(&rec.post);
        }
        total
    }

    /// The component abstraction function: dispatches on the view the
    /// lock helper provided. Runs on the mutator thread — the one oracle
    /// step that *must* happen under the component's lock. Anomalies and
    /// shadow divergences are returned (in occurrence order) rather than
    /// reported, so the back half can report them in checker order.
    fn abstract_component(
        &self,
        ctx: &HookCtx<'_>,
        view: &ComponentView,
        comp: Component,
    ) -> (ComponentValue, Vec<Violation>) {
        self.counters.abstractions.fetch_add(1, Ordering::Relaxed);
        let cached = self.opts.uses_cache();
        let mut anomalies = Vec::new();
        let mut reports = Vec::new();
        let value = match view {
            ComponentView::Host { root } if cached => {
                ComponentValue::Host(self.cached_host(ctx, *root, &mut anomalies, &mut reports))
            }
            ComponentView::Host { root } => {
                ComponentValue::Host(abstract_host(ctx.mem, *root, &self.globals, &mut anomalies))
            }
            ComponentView::Hyp { root } if cached => {
                let pgt = self.cached_interp(
                    ctx,
                    Stage::Stage1,
                    *root,
                    Component::Hyp,
                    &mut anomalies,
                    &mut reports,
                );
                ComponentValue::Pkvm(GhostPkvm { pgt })
            }
            ComponentView::Hyp { root } => {
                ComponentValue::Pkvm(abstract_hyp(ctx.mem, *root, &mut anomalies))
            }
            ComponentView::VmTable { vms, uniqs } => {
                let mut v = vms.clone();
                v.sort_unstable();
                let mut u = uniqs.clone();
                u.sort_unstable();
                if cached {
                    // VM teardown is observed here: drop the interpretation
                    // of any handle no longer in the table, so a reused
                    // handle never resurrects a stale entry.
                    self.abscache
                        .lock()
                        .retain_vms(|h| v.iter().any(|&(live, _)| live == h));
                }
                ComponentValue::VmTable(v, u)
            }
            ComponentView::Vm(view) if cached => {
                let pgt = self.cached_interp(
                    ctx,
                    Stage::Stage2,
                    view.s2_root,
                    Component::Vm(view.handle),
                    &mut anomalies,
                    &mut reports,
                );
                ComponentValue::Vm(view.handle, view.uniq, abstract_vm_with_pgt(view, pgt))
            }
            ComponentView::Vm(view) => ComponentValue::Vm(
                view.handle,
                view.uniq,
                abstract_vm(ctx.mem, view, &mut anomalies),
            ),
        };
        if !anomalies.is_empty() {
            let context = Subject::named(format!("{comp:?}"));
            reports.extend(anomalies.into_iter().map(|anomaly| {
                Violation::about(
                    context.clone(),
                    ViolationKind::AbstractionAnomaly { anomaly },
                )
            }));
        }
        (value, reports)
    }

    /// Abstracts the host stage 2 rooted at `root` through the
    /// incremental cache, its memoised partition included. Under shadow
    /// validation the full walk and the full partition also run, exactly
    /// as in [`Self::cached_interp`].
    fn cached_host(
        &self,
        ctx: &HookCtx<'_>,
        root: PhysAddr,
        anomalies: &mut Vec<Anomaly>,
        reports: &mut Vec<Violation>,
    ) -> GhostHost {
        if !self.opts.shadow_validation {
            let (interp, part) = self
                .abscache
                .lock()
                .host(ctx.mem, root, &self.globals, anomalies);
            return part.into_host(interp);
        }
        let mut inc_anomalies = Vec::new();
        let (inc, inc_part) =
            self.abscache
                .lock()
                .host(ctx.mem, root, &self.globals, &mut inc_anomalies);
        let before = anomalies.len();
        let full = interpret_pgtable(ctx.mem, Stage::Stage2, root, anomalies);
        let full_part = partition_host(full.mapping.iter().copied(), &self.globals, anomalies);
        if inc != full || inc_part != full_part || inc_anomalies != anomalies[before..] {
            let diff = pgtable_divergence(
                &full,
                &inc,
                &anomalies[before..],
                &inc_anomalies,
                Some((&full_part, &inc_part)),
            );
            reports.push(Violation::about(
                Subject::named(format!("{:?}", Component::Host)),
                ViolationKind::ShadowDivergence { diff },
            ));
        }
        full_part.into_host(full)
    }

    /// Interprets `root` through the incremental cache. Under shadow
    /// validation the full walk also runs; a divergence is collected into
    /// `reports` as an oracle self-check violation and the full result
    /// wins, so a cache bug can never mask (or fabricate) a hypervisor
    /// bug.
    fn cached_interp(
        &self,
        ctx: &HookCtx<'_>,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
        reports: &mut Vec<Violation>,
    ) -> AbstractPgtable {
        if !self.opts.shadow_validation {
            return self
                .abscache
                .lock()
                .interp(ctx.mem, stage, root, key, anomalies);
        }
        let mut inc_anomalies = Vec::new();
        let inc = self
            .abscache
            .lock()
            .interp(ctx.mem, stage, root, key, &mut inc_anomalies);
        let before = anomalies.len();
        let full = interpret_pgtable(ctx.mem, stage, root, anomalies);
        if inc != full || inc_anomalies != anomalies[before..] {
            let diff = pgtable_divergence(&full, &inc, &anomalies[before..], &inc_anomalies, None);
            reports.push(Violation::about(
                Subject::named(format!("{key:?}")),
                ViolationKind::ShadowDivergence { diff },
            ));
        }
        full
    }

    fn set_component(
        state: &mut GhostState,
        comp: Component,
        value: &ComponentValue,
        only_if_absent: bool,
    ) {
        if only_if_absent && state.contains(GhostKey::Comp(comp)) {
            return;
        }
        match value {
            ComponentValue::Host(h) => state.host = Some(h.clone()),
            ComponentValue::Pkvm(p) => state.pkvm = Some(p.clone()),
            ComponentValue::VmTable(t, _) => state.vm_table = Some(t.clone()),
            ComponentValue::Vm(h, _, vm) => {
                state.vms.insert(*h, vm.clone());
            }
        }
    }

    fn noninterference_check(
        &self,
        cpu: usize,
        trap: Option<u64>,
        comp: Component,
        value: &ComponentValue,
    ) {
        if !self.opts.check_noninterference {
            return;
        }
        let key = GhostKey::Comp(comp);
        let uniq = match value {
            ComponentValue::Vm(_, u, _) => Some(*u),
            _ => None,
        };
        let guard = self.shared.lock();
        if let (Component::Vm(h), Some(u)) = (comp, uniq) {
            if guard.vm_uniq.get(&h).is_some_and(|&stored| stored != u) {
                // The stored state belongs to a different incarnation
                // of this (reused) handle; nothing comparable.
                return;
            }
        }
        if !guard.state.contains(key) || value.agrees_with(&guard.state) {
            return;
        }
        // A mismatch: only now copy both sides, to render the diff.
        let prev = normalized(guard.state.part(key));
        drop(guard);
        let mut now = GhostState::default();
        Self::set_component(&mut now, comp, value, false);
        self.report_at(
            cpu,
            trap,
            Violation {
                uniq,
                ..Violation::about(
                    key,
                    ViolationKind::NonInterference {
                        diff: diff_states(&prev, &normalized(now)),
                    },
                )
            },
        );
    }

    /// The self-check report of a trap exit with no recorded call data:
    /// trap_enter never ran (or its delivery was dropped). A confused
    /// recording, not a hypervisor bug.
    fn no_call_data() -> Violation {
        Violation::about(
            "trap_exit",
            ViolationKind::OracleSelfCheck {
                detail: "no recorded call data (trap_enter not delivered?)".into(),
            },
        )
    }

    /// Names a trap from its syndrome and `x0` at entry — exactly the
    /// two values [`FrontRecord::call_mirror`] carries, so the front half
    /// can name the trap without the back half's call data.
    fn trap_name_of(esr: Esr, x0: u64) -> String {
        match esr.ec() {
            Some(pkvm_aarch64::esr::ExceptionClass::Hvc64) => hypercalls::name(x0).to_string(),
            Some(pkvm_aarch64::esr::ExceptionClass::Smc64) => "smc".into(),
            Some(_) => "host_abort".into(),
            None => "unknown".into(),
        }
    }

    fn ghost_cpu(regs: &GprFile, loaded: &Option<(Handle, usize, VcpuView)>) -> Box<GhostCpu> {
        Box::new(GhostCpu {
            regs: *regs,
            loaded: loaded.as_ref().map(|(h, i, v)| GhostLoadedVcpu {
                handle: *h,
                idx: *i,
                regs: v.regs,
                memcache: v.memcache_pages.iter().map(|p| p.pfn()).collect(),
            }),
        })
    }

    /// The specification of the boot-time initial state: carveout
    /// annotated hyp-owned in the host table; carveout linear-mapped and
    /// the UART device-mapped in pKVM's table; no VMs.
    pub fn spec_boot_state(&self) -> GhostState {
        let g = &self.globals;
        let (pool_pfn, pool_pages) = g.hyp_range;
        let pool_base = pool_pfn << 12;
        let mut s = GhostState::blank(g);
        let mut host = GhostHost::default();
        host.annot.insert_new(Maplet {
            ia: pool_base,
            nr_pages: pool_pages,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        s.host = Some(host);
        let mut pkvm = GhostPkvm::default();
        pkvm.pgt.mapping.insert_new(Maplet {
            ia: g.hyp_va(pool_base),
            nr_pages: pool_pages,
            target: MapletTarget::Mapped {
                oa: pool_base,
                attrs: abs_hyp_attrs(true, PageState::Owned),
            },
        });
        if let Some(&(uart_base, _)) = g.mmio.first() {
            pkvm.pgt.mapping.insert_new(Maplet {
                ia: g.uart_va,
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: uart_base,
                    attrs: abs_hyp_attrs(false, PageState::Owned),
                },
            });
        }
        s.pkvm = Some(pkvm);
        s.vm_table = Some(Vec::new());
        s
    }

    /// Checks the recorded post-boot state against [`Oracle::spec_boot_state`].
    /// Call once after `Machine::boot`. Returns `true` when it matched.
    pub fn check_boot(&self) -> bool {
        // Boot's lock events flow through the pipeline like any others;
        // the shared copy is only complete behind the check frontier.
        self.barrier();
        let expected = normalize(&self.spec_boot_state());
        let recorded = normalize(&self.shared.lock().state.clone());
        let mut ok = true;
        for key in [Component::Host, Component::Hyp].map(GhostKey::Comp) {
            if expected.contains(key) && !recorded.contains(key) {
                self.report(Violation {
                    trap: Some("boot".into()),
                    ..Violation::about(
                        key,
                        ViolationKind::SpecMismatch {
                            diff: "component never recorded during boot".into(),
                        },
                    )
                });
                ok = false;
            }
        }
        let mut exp_cmp = expected.clone();
        exp_cmp.vm_table = None; // the VM table lock is not taken at boot
        let mut rec_cmp = recorded.clone();
        rec_cmp.vm_table = None;
        if exp_cmp.host.is_some() && rec_cmp.host.is_some() && exp_cmp != rec_cmp {
            self.report(Violation {
                trap: Some("boot".into()),
                ..Violation::about(
                    "initial state",
                    ViolationKind::SpecMismatch {
                        diff: diff_states(&exp_cmp, &rec_cmp),
                    },
                )
            });
            ok = false;
        }
        ok
    }

    /// Seeds spec-defined but never-recorded components into the shared
    /// copy after a checked trap, so the *next* acquisition validates
    /// them. Seeding runs without the component's lock, so a computed
    /// value only lands if the component has not moved since this trap
    /// entered — otherwise a concurrent trap's legitimate update would be
    /// overwritten with a stale expectation and the next acquisition
    /// would report a spurious non-interference violation.
    fn seed_deferred(&self, deferred: &[GhostKey], computed: &GhostState, tick_at_entry: u64) {
        let mut shared = self.shared.lock();
        for &key in deferred {
            // Locals are thread-local: the shared copy never holds them.
            let GhostKey::Comp(comp) = key else { continue };
            if shared
                .versions
                .get(&comp)
                .is_some_and(|&v| v > tick_at_entry)
            {
                // The component moved while this trap ran; the concurrent
                // recording is fresher than our computed expectation.
                continue;
            }
            if shared.state.copy_part_from(computed, key) {
                shared.stamp(comp);
            }
        }
    }
}

/// Renders what differed between the full walk and the incremental
/// replay, maplet by maplet — and for the host, between the full and the
/// memoised partition — for the shadow-divergence report.
fn pgtable_divergence(
    full: &AbstractPgtable,
    inc: &AbstractPgtable,
    full_anomalies: &[Anomaly],
    inc_anomalies: &[Anomaly],
    partitions: Option<(&HostPartition, &HostPartition)>,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for m in full.mapping.iter() {
        if !inc.mapping.iter().any(|n| n == m) {
            let _ = writeln!(out, "  full only: {m:?}");
        }
    }
    for m in inc.mapping.iter() {
        if !full.mapping.iter().any(|n| n == m) {
            let _ = writeln!(out, "  incremental only: {m:?}");
        }
    }
    if full.table_pages != inc.table_pages {
        let _ = writeln!(
            out,
            "  table pages: full {:?} vs incremental {:?}",
            full.table_pages, inc.table_pages
        );
    }
    if full_anomalies != inc_anomalies {
        let _ = writeln!(
            out,
            "  anomalies: full {full_anomalies:?} vs incremental {inc_anomalies:?}"
        );
    }
    if let Some((f, i)) = partitions {
        for (name, full_map, inc_map) in [
            ("annot", &f.annot, &i.annot),
            ("shared", &f.shared, &i.shared),
        ] {
            for (ia, full_t, inc_t) in full_map.diff(inc_map) {
                let _ = writeln!(
                    out,
                    "  {name} at {ia:#x}: full {full_t:?} vs incremental {inc_t:?}"
                );
            }
        }
    }
    if out.is_empty() {
        out.push_str("  (states compare equal after the fact; transient divergence)\n");
    }
    out
}

/// One component's abstraction, as recorded at a lock event. Computed by
/// the front half under the component's lock, consumed by the back half.
pub(crate) enum ComponentValue {
    Host(GhostHost),
    Pkvm(GhostPkvm),
    /// Live (handle, slot) pairs, plus (handle, incarnation) pairs so the
    /// shared copy can detect handle reuse across a teardown.
    VmTable(Vec<(Handle, usize)>, Vec<(Handle, u64)>),
    /// Handle, incarnation id, abstract state.
    Vm(Handle, u64, crate::state::GhostVm),
}

impl ComponentValue {
    /// Whether `state` holds this component with a value equal to this
    /// one once both are normalised — the non-interference comparison,
    /// made in place.
    fn agrees_with(&self, state: &GhostState) -> bool {
        match self {
            ComponentValue::Host(h) => state.host.as_ref().is_some_and(|s| host_agrees(s, h)),
            ComponentValue::Pkvm(p) => state.pkvm.as_ref().is_some_and(|s| pkvm_agrees(s, p)),
            ComponentValue::VmTable(t, _) => state.vm_table.as_ref() == Some(t),
            ComponentValue::Vm(h, _, vm) => state.vms.get(h).is_some_and(|s| vm_agrees(s, vm)),
        }
    }
}

/// Renders the quarantine key of one handler's spec step
/// (`spec:<handler>`) on demand.
#[derive(Clone, Copy)]
struct SpecKey<'a>(&'a str);

impl fmt::Display for SpecKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec:{}", self.0)
    }
}

impl Oracle {
    /// The spec+check phase of `trap_exit` (runs contained). Reads the
    /// trap's recordings and reports through the bounded log; it never
    /// mutates `rec`, so a contained panic leaves no half-written record.
    fn spec_and_check(&self, cpu: usize, rec: &CpuRecord, call: &GhostCallData, name: &str) {
        // (7) Compute the expected post-state from the pre-state and the
        // call data, then (8) compare.
        let mut computed = GhostState::blank(&self.globals);
        match compute_post(&rec.pre, call, &mut computed) {
            SpecVerdict::Checked => {
                self.counters.traps_checked.fetch_add(1, Ordering::Relaxed);
                let mut outcome = check_trap(name, &rec.pre, &rec.post, &computed);
                if !rec.interleaved.is_empty() {
                    // Foreign traps updated these components between two of
                    // our critical sections; their recorded post is not
                    // "pre plus this handler's effect", so comparing it is
                    // meaningless. Drop their findings (counted, so a
                    // campaign can see how often the check degraded).
                    let found = outcome.violations.len();
                    outcome.violations.retain(|v| {
                        !matches!(v.subject, Some(Subject::Part(GhostKey::Comp(c)))
                            if rec.interleaved.contains(&c))
                    });
                    let skipped = found - outcome.violations.len();
                    self.counters
                        .interleaved_skips
                        .fetch_add(skipped as u64, Ordering::Relaxed);
                }
                self.push_trace(
                    rec.trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.to_string(),
                        outcome: if outcome.violations.is_empty() {
                            TrapOutcome::Clean
                        } else {
                            TrapOutcome::Violated(outcome.violations.len())
                        },
                    },
                );
                if !outcome.violations.is_empty() {
                    self.report_all_at(cpu, rec.trap_seq, outcome.violations);
                }
                // Seed spec-defined but never-recorded components into the
                // shared copy: the next acquisition validates them.
                if !outcome.deferred.is_empty() {
                    self.seed_deferred(&outcome.deferred, &computed, rec.tick_at_entry);
                }
            }
            SpecVerdict::Unchecked(why) => {
                self.counters
                    .traps_unchecked
                    .fetch_add(1, Ordering::Relaxed);
                self.push_trace(
                    rec.trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.to_string(),
                        outcome: TrapOutcome::Unchecked(why.into()),
                    },
                );
                // Loose case: the shared copy was already updated at the
                // lock releases.
            }
            SpecVerdict::Impossible(reason) => {
                self.push_trace(
                    rec.trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.to_string(),
                        outcome: TrapOutcome::Violated(1),
                    },
                );
                self.report_at(
                    cpu,
                    rec.trap_seq,
                    Violation {
                        trap: Some(name.to_string()),
                        ..Violation::about(
                            "spec-detected impossibility",
                            ViolationKind::SpecMismatch { diff: reason },
                        )
                    },
                );
            }
        }
    }

    /// The back half: applies one [`CheckMsg`] to the ghost copy and runs
    /// the checks it triggers. In [`CheckMode::Inline`] this runs on the
    /// hook's thread (inside the hook's own containment, exactly like the
    /// classic synchronous oracle); pipelined it runs on the checker
    /// thread via [`Oracle::apply_counted`].
    pub(crate) fn apply_msg(&self, msg: CheckMsg) {
        match msg {
            CheckMsg::TrapEnter {
                cpu,
                seq,
                call,
                cpu_state,
            } => self.apply_trap_enter(cpu, seq, call, cpu_state),
            CheckMsg::TrapExit {
                cpu,
                trap,
                name,
                cpu_state,
                regs_post,
                degraded,
            } => self.apply_trap_exit(cpu, trap, name, cpu_state, regs_post, degraded),
            CheckMsg::LockAcquired {
                cpu,
                trap,
                comp,
                value,
                reports,
                check_ni,
            } => {
                if !reports.is_empty() {
                    self.report_all_at(cpu, trap, reports);
                }
                self.firmware_backstop(cpu, trap, &value);
                if check_ni {
                    self.noninterference_check(cpu, trap, comp, &value);
                }
                // Safe to read outside the rec lock: the mutator holds the
                // component's lock across this message, so no foreign trap
                // can stamp this component right now.
                let version = self.shared.lock().versions.get(&comp).copied();
                let mut rec = self.cpus[cpu].lock();
                if trap.is_some() {
                    // A re-acquisition after one of our own releases: if
                    // the stamp moved in between, a foreign trap updated
                    // the component and the atomic per-trap check no
                    // longer applies to it.
                    if let Some(&last) = rec.last_release.get(&comp) {
                        if version != Some(last) {
                            rec.interleaved.insert(comp);
                        }
                    }
                    // First acquisition within the trap defines the
                    // pre-state.
                    Self::set_component(&mut rec.pre, comp, &value, true);
                } else {
                    drop(rec);
                    self.shared.lock().set(comp, &value);
                }
            }
            CheckMsg::LockReleasing {
                cpu,
                trap,
                comp,
                value,
                reports,
            } => {
                if !reports.is_empty() {
                    self.report_all_at(cpu, trap, reports);
                }
                self.firmware_backstop(cpu, trap, &value);
                let version = {
                    let mut shared = self.shared.lock();
                    shared.set(comp, &value);
                    shared.versions.get(&comp).copied()
                };
                let mut rec = self.cpus[cpu].lock();
                if trap.is_some() {
                    // Last release within the trap defines the post-state.
                    Self::set_component(&mut rec.post, comp, &value, false);
                    if let Some(v) = version {
                        rec.last_release.insert(comp, v);
                    }
                }
            }
            CheckMsg::Evict {
                cpu,
                trap,
                comp,
                quarantine,
            } => {
                self.evict_shared(comp);
                // Quarantine skips additionally blind the running trap's
                // check to the component; budget evictions skip the whole
                // trap's check anyway.
                if quarantine && trap.is_some() {
                    self.cpus[cpu].lock().interleaved.insert(comp);
                }
            }
            CheckMsg::ReadOnce { cpu, tag, value } => {
                if let Some(call) = self.cpus[cpu].lock().call.as_mut() {
                    call.read_onces.push((tag, value));
                }
            }
            CheckMsg::Observed {
                cpu,
                trap,
                seq,
                event,
            } => self.apply_observed(cpu, trap, seq, event),
            CheckMsg::Report {
                cpu,
                trap,
                violations,
            } => self.report_all_at(cpu, trap, violations),
            // Barriers are handled in `apply_counted` (outside the
            // containment net, so the poster can never hang); inline mode
            // never dispatches one.
            CheckMsg::Barrier(_) => {}
        }
    }

    /// Back half of the protocol hooks: runs the tracker the observed
    /// event feeds — separation footprints, break-before-make, transfer
    /// protocol or firmware protection. `seq` is the event's stream seq,
    /// the anchor a protocol violation carries.
    fn apply_observed(&self, cpu: usize, trap: Option<u64>, seq: u64, event: Event) {
        match event {
            Event::TablePageAlloc { comp, pfn } if self.opts.check_separation => {
                let mut fp = self.footprints.lock();
                let owner = fp
                    .iter()
                    .find(|(other, pages)| **other != comp && pages.contains(&pfn))
                    .map(|(other, _)| *other);
                let Some(owner) = owner else {
                    fp.entry(comp).or_default().insert(pfn);
                    return;
                };
                drop(fp);
                let v = Violation::about(
                    Subject::named(format!("{comp:?}")),
                    ViolationKind::SeparationOverlap {
                        pfn,
                        owner: format!("{owner:?}"),
                    },
                );
                self.report_at(cpu, trap, v);
            }
            Event::TablePageFree { comp, pfn } if self.opts.check_separation => {
                if let Some(pages) = self.footprints.lock().get_mut(&comp) {
                    pages.remove(&pfn);
                }
            }
            Event::PteDowngrade { vmid, ia, nr, .. } => {
                self.bbm.lock().note_break(cpu, seq, vmid, ia, nr);
            }
            // Only a broadcast TLBI can retire a break other CPUs may
            // still hold stale.
            Event::Tlbi {
                vmid,
                ia,
                nr,
                broadcast: true,
                ..
            } => self.bbm.lock().note_tlbi(cpu, vmid, ia, nr),
            Event::Dsb { .. } => self.bbm.lock().note_dsb(cpu),
            Event::Transfer {
                edge,
                pfn,
                nr,
                dirty,
                ..
            } => {
                crate::spec::spec_hit(match edge {
                    TransferEdge::ShareHyp => "spec/transfer/share_hyp",
                    TransferEdge::UnshareHyp => "spec/transfer/unshare_hyp",
                    TransferEdge::DonateHyp => "spec/transfer/donate_hyp",
                    TransferEdge::DonateHost => "spec/transfer/donate_host",
                    TransferEdge::MapGuestOwned => "spec/transfer/map_guest_owned",
                    TransferEdge::MapGuestShared => "spec/transfer/map_guest_shared",
                    TransferEdge::GuestShareHost => "spec/transfer/guest_share_host",
                    TransferEdge::GuestUnshareHost => "spec/transfer/guest_unshare_host",
                    TransferEdge::Firmware => "spec/transfer/firmware",
                    TransferEdge::Reclaim => "spec/transfer/reclaim",
                });
                let mut violations = Vec::new();
                let mut xfer = self.xfer.lock();
                for p in pfn..pfn.saturating_add(nr) {
                    if let Err(from) = xfer.cross(edge, p) {
                        violations.push(Violation {
                            seq: Some(seq),
                            ..Violation::new(ViolationKind::TransferProtocol {
                                edge,
                                pfn: p,
                                detail: format!("departed from state {from}"),
                            })
                        });
                    }
                    if edge == TransferEdge::Reclaim && dirty {
                        violations.push(Violation {
                            seq: Some(seq),
                            ..Violation::new(ViolationKind::ReclaimWipe { pfn: p })
                        });
                    }
                }
                drop(xfer);
                if !violations.is_empty() {
                    self.report_all_at(cpu, trap, violations);
                }
            }
            Event::FirmwareDonate {
                handle,
                uniq,
                pfn,
                nr,
                ..
            } => self.firmware.lock().note_donate(handle, uniq, pfn, nr),
            Event::HostRegain { pfn, nr, .. } => {
                let violations = self.firmware.lock().check_regain(seq, pfn, nr);
                if !violations.is_empty() {
                    self.report_all_at(cpu, trap, violations);
                }
            }
            // Separation tracking off, a local TLBI, or an event the front
            // half never forwards: nothing to track.
            _ => {}
        }
    }

    /// Firmware-protection backstop, run on every freshly abstracted host
    /// component: even when no regain hook announced it, a donated
    /// firmware page the host's stage 2 can reach again is a breach. The
    /// donation annotates the page away from the host before the same
    /// critical section's release message, so a clean run never trips
    /// this.
    fn firmware_backstop(&self, cpu: usize, trap: Option<u64>, value: &ComponentValue) {
        if let ComponentValue::Host(h) = value {
            let violations = self.firmware.lock().scan_host(h);
            if !violations.is_empty() {
                self.report_all_at(cpu, trap, violations);
            }
        }
    }

    /// Back half of `trap_enter`: reset the per-CPU recording. The shared
    /// stamp clock is read here, at apply time — in pipelined mode that is
    /// the correct point, because every shared-copy mutation also happens
    /// at apply time, in message order.
    fn apply_trap_enter(
        &self,
        cpu: usize,
        seq: u64,
        call: GhostCallData,
        cpu_state: Box<GhostCpu>,
    ) {
        let tick = self.shared.lock().tick;
        let mut rec = self.cpus[cpu].lock();
        rec.pre.clear();
        rec.post.clear();
        rec.call = Some(call);
        rec.tick_at_entry = tick;
        rec.last_release.clear();
        rec.interleaved.clear();
        rec.trap_seq = Some(seq);
        rec.pre.locals.insert(cpu, cpu_state);
    }

    /// Back half of `trap_exit`: finish the recording, then run the
    /// ternary check (with the same phased containment as the classic
    /// oracle).
    fn apply_trap_exit(
        &self,
        cpu: usize,
        trap: Option<u64>,
        name: String,
        cpu_state: Box<GhostCpu>,
        regs_post: GprFile,
        degraded: bool,
    ) {
        // Break-before-make settles first, before any of the skip paths
        // below: a degraded or quarantined spec check never excuses an
        // unflushed downgrade, and the ledger must not leak into the
        // next trap on this CPU.
        let leftovers = self.bbm.lock().drain(cpu);
        if !leftovers.is_empty() {
            let violations = leftovers
                .into_iter()
                .map(|b| Violation {
                    seq: Some(b.seq),
                    trap: Some(name.clone()),
                    ..Violation::new(ViolationKind::BreakBeforeMake {
                        vmid: b.vmid,
                        ia: b.ia,
                        nr: b.nr,
                    })
                })
                .collect();
            self.report_all_at(cpu, trap, violations);
        }
        let mut rec = self.cpus[cpu].lock();
        // Phase 1: finish the recording. Contained so a panic leaves the
        // per-CPU record consistent (the next trap_enter resets it anyway).
        let prep = contain(|| {
            rec.post.locals.insert(cpu, cpu_state);
            let mut call = rec.call.take()?;
            call.regs_post = regs_post;
            Some(call)
        });
        let call = match prep {
            Ok(Some(call)) => call,
            Ok(None) => {
                drop(rec);
                self.report_at(cpu, trap, Self::no_call_data());
                return;
            }
            Err(payload) => {
                drop(rec);
                self.report_at(cpu, trap, self.contained_panic("trap_exit", payload));
                return;
            }
        };
        // Phase 2: the check — unless this trap degraded under budget
        // pressure, or this handler's spec step is quarantined.
        if degraded {
            self.counters.degraded_traps.fetch_add(1, Ordering::Relaxed);
            self.counters
                .traps_unchecked
                .fetch_add(1, Ordering::Relaxed);
            self.push_trace(
                trap,
                TrapRecord {
                    cpu,
                    name,
                    outcome: TrapOutcome::Unchecked("per-trap check budget exhausted".into()),
                },
            );
            return;
        }
        // The spec step's quarantine key, rendered only when needed.
        let spec_key = SpecKey(&name);
        match self.quarantine.disposition(spec_key) {
            Disposition::Skip => {
                self.counters
                    .quarantined_skips
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .traps_unchecked
                    .fetch_add(1, Ordering::Relaxed);
                self.push_trace(
                    trap,
                    TrapRecord {
                        cpu,
                        name,
                        outcome: TrapOutcome::Unchecked("spec step quarantined".into()),
                    },
                );
                return;
            }
            Disposition::Recover => {
                self.counters
                    .quarantine_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Process => {}
        }
        match contain(|| self.spec_and_check(cpu, &rec, &call, &name)) {
            Ok(()) => self.quarantine.record_success(spec_key),
            Err(payload) => {
                let report = self.contained_panic(Subject::named(spec_key.to_string()), payload);
                self.push_trace(
                    trap,
                    TrapRecord {
                        cpu,
                        name,
                        outcome: TrapOutcome::Unchecked("spec step panicked (contained)".into()),
                    },
                );
                self.report_at(cpu, trap, report);
            }
        }
    }
}

impl GhostHooks for Oracle {
    fn trap_enter(
        &self,
        ctx: &HookCtx<'_>,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        // The quarantine clock counts traps.
        self.quarantine.tick();
        self.guarded("trap_enter", || {
            let seq = self
                .events
                .emit(ctx.cpu as u32, None, Event::TrapEnter { cpu: ctx.cpu });
            {
                let mut front = self.fronts[ctx.cpu].lock();
                front.in_trap = true;
                front.trap_seq = Some(seq);
                front.call_mirror = Some((esr, regs.get(0)));
                front.events_this_trap = 0;
                front.degraded = false;
            }
            let call = GhostCallData::new(ctx.cpu, esr, fault_ipa, *regs);
            let cpu_state = Self::ghost_cpu(regs, &loaded);
            self.dispatch(CheckMsg::TrapEnter {
                cpu: ctx.cpu,
                seq,
                call,
                cpu_state,
            });
        });
    }

    fn trap_exit(
        &self,
        ctx: &HookCtx<'_>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        let (trap, mirror, degraded) = {
            let mut front = self.fronts[ctx.cpu].lock();
            if !front.in_trap {
                return;
            }
            front.in_trap = false;
            (front.trap_seq, front.call_mirror.take(), front.degraded)
        };
        let prep = contain(|| Self::ghost_cpu(regs, &loaded));
        let cpu_state = match prep {
            Ok(state) => state,
            Err(payload) => {
                self.dispatch(CheckMsg::Report {
                    cpu: ctx.cpu,
                    trap,
                    violations: vec![self.contained_panic("trap_exit", payload)],
                });
                return;
            }
        };
        let Some((esr, x0)) = mirror else {
            self.dispatch(CheckMsg::Report {
                cpu: ctx.cpu,
                trap,
                violations: vec![Self::no_call_data()],
            });
            return;
        };
        let name = Self::trap_name_of(esr, x0);
        self.events.emit(
            ctx.cpu as u32,
            trap,
            Event::TrapExit {
                cpu: ctx.cpu,
                name: name.clone(),
            },
        );
        self.dispatch(CheckMsg::TrapExit {
            cpu: ctx.cpu,
            trap,
            name,
            cpu_state,
            regs_post: *regs,
            degraded,
        });
    }

    fn lock_acquired(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        let trap = self.current_trap(ctx.cpu);
        self.events.emit(
            ctx.cpu as u32,
            trap,
            Event::LockAcquired { cpu: ctx.cpu, comp },
        );
        let key = GhostKey::Comp(comp);
        let check_ni = match self.quarantine.disposition(key) {
            Disposition::Skip => {
                self.note_quarantine_skip(ctx.cpu, trap, comp);
                return;
            }
            // Recovery from quarantine: re-seed the shared copy from a
            // full abstraction pass. The component's state while benched
            // is unknown, so the non-interference comparison is skipped
            // exactly once.
            Disposition::Recover => {
                self.counters
                    .quarantine_recoveries
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
            Disposition::Process => true,
        };
        if self.budget_exhausted(ctx.cpu) {
            self.counters
                .budget_degraded_events
                .fetch_add(1, Ordering::Relaxed);
            self.dispatch(CheckMsg::Evict {
                cpu: ctx.cpu,
                trap,
                comp,
                quarantine: false,
            });
            return;
        }
        self.guarded(key, || {
            let (value, reports) = self.abstract_component(ctx, view, comp);
            self.dispatch(CheckMsg::LockAcquired {
                cpu: ctx.cpu,
                trap,
                comp,
                value,
                reports,
                check_ni,
            });
        });
    }

    fn lock_releasing(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        let trap = self.current_trap(ctx.cpu);
        self.events.emit(
            ctx.cpu as u32,
            trap,
            Event::LockReleasing { cpu: ctx.cpu, comp },
        );
        let key = GhostKey::Comp(comp);
        match self.quarantine.disposition(key) {
            Disposition::Skip => {
                self.note_quarantine_skip(ctx.cpu, trap, comp);
                return;
            }
            // A release *is* a full abstraction pass recorded into the
            // shared copy, so recovery needs no special casing here.
            Disposition::Recover => {
                self.counters
                    .quarantine_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Process => {}
        }
        if self.budget_exhausted(ctx.cpu) {
            self.counters
                .budget_degraded_events
                .fetch_add(1, Ordering::Relaxed);
            self.dispatch(CheckMsg::Evict {
                cpu: ctx.cpu,
                trap,
                comp,
                quarantine: false,
            });
            return;
        }
        self.guarded(key, || {
            let (value, reports) = self.abstract_component(ctx, view, comp);
            self.dispatch(CheckMsg::LockReleasing {
                cpu: ctx.cpu,
                trap,
                comp,
                value,
                reports,
            });
        });
    }

    fn read_once(&self, ctx: &HookCtx<'_>, tag: &'static str, value: u64) {
        self.counters.read_onces.fetch_add(1, Ordering::Relaxed);
        self.guarded("read_once", || {
            let trap = self.current_trap(ctx.cpu);
            self.events.emit(
                ctx.cpu as u32,
                trap,
                Event::ReadOnce {
                    cpu: ctx.cpu,
                    tag: tag.into(),
                    value,
                },
            );
            self.dispatch(CheckMsg::ReadOnce {
                cpu: ctx.cpu,
                tag,
                value,
            });
        });
    }

    fn table_page_alloc(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        let event = Event::TablePageAlloc {
            comp,
            pfn: page.pfn(),
        };
        self.observe(ctx, "table_page_alloc", event);
    }

    fn table_page_free(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        let event = Event::TablePageFree {
            comp,
            pfn: page.pfn(),
        };
        self.observe(ctx, "table_page_free", event);
    }

    fn pte_downgrade(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64) {
        let event = Event::PteDowngrade {
            cpu: ctx.cpu,
            vmid,
            ia,
            nr: nr_pages,
        };
        self.observe(ctx, "pte_downgrade", event);
    }

    fn tlbi(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64, broadcast: bool) {
        let event = Event::Tlbi {
            vmid,
            ia,
            nr: nr_pages,
            broadcast,
            cpu: ctx.cpu,
        };
        self.observe(ctx, "tlbi", event);
    }

    fn dsb(&self, ctx: &HookCtx<'_>) {
        self.observe(ctx, "dsb", Event::Dsb { cpu: ctx.cpu });
    }

    fn transfer(&self, ctx: &HookCtx<'_>, edge: TransferEdge, pfn: u64, nr: u64, dirty: bool) {
        let event = Event::Transfer {
            cpu: ctx.cpu,
            edge,
            pfn,
            nr,
            dirty,
        };
        self.observe(ctx, "transfer", event);
    }

    fn firmware_donated(&self, ctx: &HookCtx<'_>, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        let event = Event::FirmwareDonate {
            cpu: ctx.cpu,
            handle,
            uniq,
            pfn,
            nr,
        };
        self.observe(ctx, "firmware_donated", event);
    }

    fn host_regain(&self, ctx: &HookCtx<'_>, pfn: u64, nr: u64) {
        let event = Event::HostRegain {
            cpu: ctx.cpu,
            pfn,
            nr,
        };
        self.observe(ctx, "host_regain", event);
    }

    fn hyp_panic(&self, ctx: &HookCtx<'_>, reason: &str) {
        let trap = self.current_trap(ctx.cpu);
        self.dispatch(CheckMsg::Report {
            cpu: ctx.cpu,
            trap,
            violations: vec![Violation::new(ViolationKind::HypPanic {
                reason: reason.into(),
            })],
        });
    }

    fn wants_write_log(&self) -> bool {
        self.opts.uses_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TRACE_CAP;

    fn oracle() -> Arc<Oracle> {
        Oracle::new(&MachineConfig::default(), OracleOpts::default())
    }

    #[test]
    fn boot_spec_state_has_the_three_boot_components() {
        let o = oracle();
        let s = o.spec_boot_state();
        let host = s.host.as_ref().expect("host annotated");
        assert_eq!(host.annot.nr_pages(), o.globals.hyp_range.1);
        assert!(host.shared.is_empty());
        let pkvm = s.pkvm.as_ref().expect("linear map + uart");
        assert_eq!(pkvm.pgt.mapping.nr_pages(), o.globals.hyp_range.1 + 1);
        assert_eq!(s.vm_table.as_deref(), Some(&[][..]));
    }

    #[test]
    fn separation_check_flags_cross_component_table_pages() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let page = PhysAddr::new(0x4400_0000);
        o.table_page_alloc(&ctx, Component::Host, page);
        assert!(o.is_clean());
        // The same page backing a *different* component's table: flagged.
        o.table_page_alloc(&ctx, Component::Hyp, page);
        assert!(matches!(
            o.violations()[0].kind,
            ViolationKind::SeparationOverlap { .. }
        ));
        // Freeing and re-allocating elsewhere is fine.
        o.clear_violations();
        o.table_page_free(&ctx, Component::Host, page);
        o.table_page_alloc(&ctx, Component::Hyp, page);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn separation_check_can_be_disabled() {
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder().check_separation(false).build(),
        );
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let page = PhysAddr::new(0x4400_0000);
        o.table_page_alloc(&ctx, Component::Host, page);
        o.table_page_alloc(&ctx, Component::Hyp, page);
        assert!(o.is_clean());
    }

    fn ghost_vm(handle: Handle, donated: &[u64]) -> crate::state::GhostVm {
        crate::state::GhostVm {
            handle,
            slot: 0,
            protected: true,
            pgt: Default::default(),
            donated: donated.to_vec(),
            firmware: Vec::new(),
            vcpus: Vec::new(),
        }
    }

    #[test]
    fn stalled_checker_bounds_memory_and_drains_on_release() {
        // Backpressure: a pipelined oracle whose checker cannot make
        // progress must block the mutator at the channel cap instead of
        // queueing messages without bound.
        let cap = 8usize;
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder()
                .check_mode(CheckMode::Pipelined { channel_cap: cap })
                .build(),
        );
        // Stall the checker: the first message it applies (`trap_enter`)
        // locks the shared copy, which the test holds.
        let stall = o.shared.lock();
        let driver = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
                let ctx = HookCtx { mem: &mem, cpu: 0 };
                o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
                for i in 0..1000u64 {
                    o.read_once(&ctx, "flood", i);
                }
            })
        };
        // The driver floods 1001 messages; backpressure must stop it at
        // batch granularity — wait for the frontier to settle, then check
        // it stopped within a few caps (channel + the batch in apply).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut last = u64::MAX;
        loop {
            let (sent, _) = o.frontier();
            if sent == last || std::time::Instant::now() > deadline {
                break;
            }
            last = sent;
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let (sent, applied) = o.frontier();
        assert_eq!(applied, 0, "checker ran while the shared copy was held");
        assert!(
            sent <= 3 * cap as u64,
            "stalled checker let {sent} messages through (cap {cap})"
        );
        assert!(
            !driver.is_finished(),
            "driver finished its 1001 sends against a stalled checker"
        );
        // Release the checker: everything drains and the driver finishes.
        drop(stall);
        driver.join().expect("driver");
        o.barrier();
        let (sent, applied) = o.frontier();
        assert_eq!(sent, applied, "barrier returned with messages in flight");
        assert_eq!(sent, 1002, "1 trap_enter + 1000 read_onces + 1 barrier");
    }

    #[test]
    fn shared_copy_drops_the_dying_release_of_a_torn_down_vm() {
        // `do_teardown_vm` releases the dying VM's lock *after* dropping
        // the table lock, so the release arrives when the table no longer
        // lists the VM. It must not resurrect the dead state: a concurrent
        // `init_vm` reusing the handle would otherwise be compared against
        // it.
        let o = oracle();
        let h: Handle = 0x1000;
        let mut shared = o.shared.lock();
        shared.set(
            Component::VmTable,
            &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 1)]),
        );
        shared.set(
            Component::Vm(h),
            &ComponentValue::Vm(h, 1, ghost_vm(h, &[0x44007])),
        );
        assert!(shared.state.vms.contains_key(&h));
        // Teardown: table recorded without the VM prunes its entry...
        shared.set(
            Component::VmTable,
            &ComponentValue::VmTable(Vec::new(), Vec::new()),
        );
        assert!(!shared.state.vms.contains_key(&h));
        // ...and the dying VM's trailing lock release is dropped.
        shared.set(
            Component::Vm(h),
            &ComponentValue::Vm(h, 1, ghost_vm(h, &[0x44007])),
        );
        assert!(!shared.state.vms.contains_key(&h), "dead VM resurrected");
        // A new incarnation reusing the handle records normally.
        shared.set(
            Component::VmTable,
            &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 2)]),
        );
        shared.set(
            Component::Vm(h),
            &ComponentValue::Vm(h, 2, ghost_vm(h, &[0x44e07])),
        );
        assert_eq!(shared.state.vms[&h].donated, vec![0x44e07]);
        // An even later stale release from the old incarnation still loses.
        shared.set(
            Component::Vm(h),
            &ComponentValue::Vm(h, 1, ghost_vm(h, &[0x44007])),
        );
        assert_eq!(shared.state.vms[&h].donated, vec![0x44e07]);
    }

    #[test]
    fn noninterference_skips_a_reused_handles_old_incarnation() {
        let o = oracle();
        let h: Handle = 0x1000;
        {
            let mut shared = o.shared.lock();
            shared.set(
                Component::VmTable,
                &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 2)]),
            );
            shared.set(
                Component::Vm(h),
                &ComponentValue::Vm(h, 2, ghost_vm(h, &[0x44e07])),
            );
        }
        // A different incarnation's view differing from the stored state
        // is not interference — the two states describe different VMs.
        o.noninterference_check(
            0,
            None,
            Component::Vm(h),
            &ComponentValue::Vm(h, 1, ghost_vm(h, &[0x44007])),
        );
        assert!(o.is_clean(), "{:?}", o.violations());
        // The same incarnation differing is the real §4.4 violation.
        o.noninterference_check(
            0,
            None,
            Component::Vm(h),
            &ComponentValue::Vm(h, 2, ghost_vm(h, &[0x44007])),
        );
        assert!(matches!(
            o.violations()[0].kind,
            ViolationKind::NonInterference { .. }
        ));
    }

    #[test]
    fn noninterference_compares_in_place_like_the_copying_check() {
        use crate::check::tests::{full_state, one_field_edits};
        let base = full_state();
        for (what, key, agrees, edit) in one_field_edits() {
            let GhostKey::Comp(comp) = key else { continue };
            let mut edited = base.clone();
            edit(&mut edited);
            let value = match comp {
                Component::Host => ComponentValue::Host(edited.host.clone().unwrap()),
                Component::Hyp => ComponentValue::Pkvm(edited.pkvm.clone().unwrap()),
                Component::VmTable => {
                    ComponentValue::VmTable(edited.vm_table.clone().unwrap(), Vec::new())
                }
                Component::Vm(h) => ComponentValue::Vm(h, 1, edited.vms[&h].clone()),
            };
            let o = oracle();
            o.shared.lock().state = base.clone();
            o.noninterference_check(0, None, comp, &value);
            let (prev, now) = (normalized(base.part(key)), normalized(edited.part(key)));
            let reported: Vec<(Option<Subject>, String)> = o
                .violations()
                .into_iter()
                .map(|v| match v.kind {
                    ViolationKind::NonInterference { diff } => (v.subject, diff),
                    _ => panic!("{what}: {v}"),
                })
                .collect();
            let expected: Vec<(Option<Subject>, String)> = (prev != now)
                .then(|| (Some(Subject::Part(key)), diff_states(&prev, &now)))
                .into_iter()
                .collect();
            assert_eq!(reported, expected, "{what}");
            assert_eq!(reported.is_empty(), agrees, "{what}");
        }
    }

    #[test]
    fn table_recording_invalidates_a_stale_incarnations_state() {
        // Belt and braces: if an old incarnation's state is somehow still
        // stored when the table is recorded with a new incarnation under
        // the same handle, the stale state is dropped (and the component
        // stamped) rather than compared against the new VM.
        let o = oracle();
        let h: Handle = 0x1000;
        let mut shared = o.shared.lock();
        shared.set(
            Component::VmTable,
            &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 1)]),
        );
        shared.set(
            Component::Vm(h),
            &ComponentValue::Vm(h, 1, ghost_vm(h, &[0x44007])),
        );
        let stamp_before = shared.versions[&Component::Vm(h)];
        shared.set(
            Component::VmTable,
            &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 5)]),
        );
        assert!(!shared.state.vms.contains_key(&h));
        assert!(shared.versions[&Component::Vm(h)] > stamp_before);
        assert_eq!(shared.vm_uniq[&h], 5);
    }

    #[test]
    fn hyp_panic_is_a_violation() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.hyp_panic(&ctx, "BUG()");
        assert!(
            matches!(&o.violations()[0].kind, ViolationKind::HypPanic { reason } if reason == "BUG()")
        );
    }

    #[test]
    fn trace_is_bounded() {
        let o = oracle();
        for i in 0..(TRACE_CAP + 10) {
            o.push_trace(
                None,
                TrapRecord {
                    cpu: 0,
                    name: format!("t{i}"),
                    outcome: TrapOutcome::Clean,
                },
            );
        }
        let t = o.trace();
        assert_eq!(t.len(), TRACE_CAP);
        assert_eq!(t.last().unwrap().name, format!("t{}", TRACE_CAP + 9));
    }

    #[test]
    fn ghost_bytes_accounting_is_nonzero_once_populated() {
        let o = oracle();
        let base = o.approx_ghost_bytes();
        let mut shared = o.shared.lock();
        let mut host = GhostHost::default();
        host.annot.insert_new(Maplet {
            ia: 0x4400_0000,
            nr_pages: 16,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        shared.state.host = Some(host);
        drop(shared);
        assert!(o.approx_ghost_bytes() > base);
    }

    #[test]
    fn contained_panics_report_and_then_quarantine() {
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder()
                .quarantine_threshold(3)
                .quarantine_traps(2)
                .build(),
        );
        for _ in 0..3 {
            o.guarded("host", || panic!("chaos made me do it"));
        }
        let vs = o.violations();
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().all(|v| v.subject == Some(GhostKey::Comp(Component::Host).into())
            && matches!(&v.kind, ViolationKind::OracleInternal { payload } if payload.contains("chaos"))));
        assert_eq!(o.stats_snapshot().contained_panics, 3);
        assert_eq!(o.quarantine.disposition("host"), Disposition::Skip);
        assert_eq!(o.quarantined(), 1);
        // After its bench time the component recovers exactly once.
        o.quarantine.tick();
        o.quarantine.tick();
        assert_eq!(o.quarantine.disposition("host"), Disposition::Recover);
        assert_eq!(o.quarantine.disposition("host"), Disposition::Process);
    }

    #[test]
    fn violation_log_is_bounded_and_drops_are_counted() {
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder().violation_cap(4).build(),
        );
        for i in 0..10 {
            o.report(Violation::new(ViolationKind::HypPanic {
                reason: format!("p{i}"),
            }));
        }
        assert_eq!(o.violations().len(), 4);
        assert_eq!(o.violation_count(), 4);
        assert_eq!(o.stats_snapshot().violations_dropped, 6);
    }

    #[test]
    fn reports_are_annotated_with_the_vm_incarnation() {
        let o = oracle();
        let h: Handle = 0x1000;
        {
            let mut shared = o.shared.lock();
            shared.set(
                Component::VmTable,
                &ComponentValue::VmTable(vec![(h, 0)], vec![(h, 7)]),
            );
        }
        o.report(Violation {
            trap: Some("vcpu_run".into()),
            ..Violation::about(
                GhostKey::Comp(Component::Vm(h)),
                ViolationKind::SpecMismatch { diff: "d".into() },
            )
        });
        let v = &o.violations()[0];
        assert_eq!(v.uniq, Some(7));
        let line = v.to_string();
        assert!(
            line.starts_with("violation kind=spec-mismatch trap=vcpu_run comp=vm[4096] uniq=7"),
            "{line}"
        );
    }

    #[test]
    fn interleaved_findings_are_dropped_and_counted_the_rest_kept() {
        let h: Handle = 0x1000;
        for interleaved in [&[][..], &[Component::VmTable]] {
            let o = oracle();
            let mut rec = o.cpus[0].lock();
            // An SMC changes nothing, yet both the VM table and the VM moved.
            rec.pre.vm_table = Some(Vec::new());
            rec.post.vm_table = Some(vec![(h, 0)]);
            rec.pre.vms.insert(h, ghost_vm(h, &[]));
            rec.post.vms.insert(h, ghost_vm(h, &[0x44007]));
            rec.interleaved.extend(interleaved);
            let call = GhostCallData::new(0, Esr::smc64(), None, GprFile::default());
            o.spec_and_check(0, &rec, &call, "smc");
            drop(rec);
            let vs = o.violations();
            let skips = o.stats_snapshot().interleaved_skips;
            assert_eq!(vs.len(), 2 - interleaved.len(), "{vs:?}");
            assert_eq!(skips, interleaved.len() as u64);
            // The VM's finding survives either way, under its typed key.
            let kept = vs.last().unwrap();
            assert_eq!(kept.kind(), "unexpected-change");
            assert_eq!(kept.trap.as_deref(), Some("smc"));
            assert_eq!(kept.subject, Some(GhostKey::Comp(Component::Vm(h)).into()));
        }
    }

    #[test]
    fn trap_exit_without_call_data_is_a_self_check_not_a_panic() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        // Force the inconsistent recording a dropped trap_enter leaves.
        o.fronts[0].lock().in_trap = true;
        o.trap_exit(&ctx, &GprFile::default(), None);
        let v = &o.violations()[0];
        assert_eq!(v.kind(), "oracle-self-check");
        assert_eq!(v.subject, Some(Subject::Name("trap_exit".into())));
    }

    #[test]
    fn deferred_seeding_respects_concurrent_component_updates() {
        let o = oracle();
        // A concurrent trap recorded the host component after this trap
        // entered (entry snapshot is empty, shared copy is stamped).
        let concurrent = GhostHost::default();
        {
            let mut shared = o.shared.lock();
            shared.state.host = Some(concurrent.clone());
            shared.stamp(Component::Host);
        }
        let mut computed = GhostState::blank(&o.globals);
        let mut stale = GhostHost::default();
        stale.annot.insert_new(Maplet {
            ia: 0x4400_0000,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        computed.host = Some(stale);
        o.seed_deferred(&[GhostKey::Comp(Component::Host)], &computed, 0);
        // The stale expectation must not overwrite the fresher recording.
        let shared = o.shared.lock();
        assert_eq!(shared.state.host.as_ref(), Some(&concurrent));
        drop(shared);
        assert!(o.is_clean());

        // With matching versions the seed lands.
        let tick = o.shared.lock().tick;
        o.seed_deferred(&[GhostKey::Comp(Component::Host)], &computed, tick);
        let shared = o.shared.lock();
        assert_eq!(shared.state.host.as_ref(), computed.host.as_ref());
    }

    #[test]
    fn bbm_tracker_retires_only_covered_broadcast_flushes() {
        let mut t = BbmTracker::default();
        t.note_break(0, 10, 1, 0x8000, 2);
        t.note_break(0, 11, 2, 0x8000, 2);
        // Wrong VMID: retires nothing.
        t.note_tlbi(0, 3, 0x8000, 2);
        // Partial coverage (one of two pages): retires nothing.
        t.note_tlbi(0, 1, 0x8000, 1);
        t.note_dsb(0);
        assert_eq!(t.pending[&0].len(), 2);
        // Exact coverage, but a TLBI without its DSB retires nothing yet.
        t.note_tlbi(0, 1, 0x8000, 2);
        assert_eq!(t.pending[&0].len(), 2);
        t.note_dsb(0);
        assert_eq!(t.pending[&0].len(), 1);
        assert_eq!(t.pending[&0][0].seq, 11);
        // A VMID-wide TLBI (ia 0, nr MAX) covers anything of that VMID.
        t.note_tlbi(0, 2, 0, u64::MAX);
        t.note_dsb(0);
        assert!(t.pending[&0].is_empty());
        // Breaks are per-CPU: CPU 1's ledger is untouched throughout.
        t.note_break(1, 12, 1, 0, 1);
        t.note_tlbi(0, 1, 0, u64::MAX);
        t.note_dsb(0);
        assert_eq!(t.drain(1).len(), 1);
    }

    fn bbm_violations(o: &Oracle) -> Vec<Violation> {
        o.violations()
            .into_iter()
            .filter(|v| v.kind() == "break-before-make")
            .collect()
    }

    #[test]
    fn unflushed_downgrade_is_reported_at_trap_exit_with_the_write_seq() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.trap_exit(&ctx, &GprFile::default(), None);
        let vs = bbm_violations(&o);
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation {
                seq,
                trap: Some(trap),
                kind: ViolationKind::BreakBeforeMake { vmid, ia, nr },
                ..
            } => {
                assert!(seq.is_some(), "anchored on the downgrade event");
                assert!(!trap.is_empty());
                assert_eq!((*vmid, *ia, *nr), (1, 0x8000, 2));
            }
            v => panic!("wrong variant: {v:?}"),
        }
        // The ledger was drained: the next trap starts clean.
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert_eq!(bbm_violations(&o).len(), 1);
    }

    #[test]
    fn the_full_flush_sequence_satisfies_the_check() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.tlbi(&ctx, 1, 0x8000, 2, true);
        o.dsb(&ctx);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert!(bbm_violations(&o).is_empty());
        // A non-broadcast TLBI does not retire the break: other CPUs may
        // still hold the stale translation.
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.tlbi(&ctx, 1, 0x8000, 2, false);
        o.dsb(&ctx);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert_eq!(bbm_violations(&o).len(), 1);
    }

    #[test]
    fn transfer_protocol_accepts_the_clean_round_trips() {
        use TransferEdge::*;
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        // Host <-> hyp share, host <-> hyp donation, guest map + share
        // ping-pong + reclaim, firmware: each page's full legal life.
        o.transfer(&ctx, ShareHyp, 0x100, 1, false);
        o.transfer(&ctx, UnshareHyp, 0x100, 1, false);
        o.transfer(&ctx, DonateHyp, 0x100, 2, false);
        o.transfer(&ctx, DonateHost, 0x100, 2, false);
        o.transfer(&ctx, MapGuestOwned, 0x200, 1, false);
        o.transfer(&ctx, GuestShareHost, 0x200, 1, false);
        o.host_regain(&ctx, 0x200, 1);
        o.transfer(&ctx, GuestUnshareHost, 0x200, 1, false);
        o.transfer(&ctx, Reclaim, 0x200, 1, false);
        o.host_regain(&ctx, 0x200, 1);
        o.transfer(&ctx, MapGuestShared, 0x300, 1, false);
        o.transfer(&ctx, Reclaim, 0x300, 1, false);
        o.transfer(&ctx, Firmware, 0x400, 2, false);
        o.firmware_donated(&ctx, 0x1000, 1, 0x400, 2);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn transfer_protocol_flags_an_illegal_edge_with_its_departure_state() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::ShareHyp, 0x100, 1, false);
        // Sharing an already-shared page breaks the protocol.
        o.transfer(&ctx, TransferEdge::ShareHyp, 0x100, 1, false);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation {
                seq,
                kind: ViolationKind::TransferProtocol { edge, pfn, detail },
                ..
            } => {
                assert!(seq.is_some(), "anchored on the transfer event");
                assert_eq!(*edge, TransferEdge::ShareHyp);
                assert_eq!(*pfn, 0x100);
                assert!(detail.contains("shared_hyp"), "{detail}");
            }
            v => panic!("wrong variant: {v:?}"),
        }
    }

    #[test]
    fn dirty_reclaim_is_a_wipe_violation() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::MapGuestOwned, 0x200, 1, false);
        o.transfer(&ctx, TransferEdge::Reclaim, 0x200, 1, true);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            matches!(
                &vs[0],
                Violation {
                    seq: Some(_),
                    kind: ViolationKind::ReclaimWipe { pfn: 0x200 },
                    ..
                }
            ),
            "{vs:?}"
        );
    }

    #[test]
    fn firmware_regain_is_flagged_even_across_teardown() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::Firmware, 0x400, 2, false);
        o.firmware_donated(&ctx, 0x1000, 7, 0x400, 2);
        assert!(o.is_clean());
        // Long after the donating VM is gone (the tracker never forgets),
        // a regain overlapping one firmware page is a breach.
        o.host_regain(&ctx, 0x3ff, 2);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation {
                seq,
                uniq: Some(uniq),
                kind: ViolationKind::FirmwareProtection { handle, pfn },
                ..
            } => {
                assert!(seq.is_some(), "anchored on the regain event");
                assert_eq!((*handle, *uniq, *pfn), (0x1000, 7, 0x400));
            }
            v => panic!("wrong variant: {v:?}"),
        }
        // The same page is not re-reported.
        o.host_regain(&ctx, 0x400, 1);
        assert_eq!(o.violations().len(), 1);
        // The region's other page still is.
        o.host_regain(&ctx, 0x401, 1);
        assert_eq!(o.violations().len(), 2);
    }

    #[test]
    fn firmware_backstop_catches_an_unannounced_host_mapping() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.firmware_donated(&ctx, 0x1000, 3, 0x40600, 1);
        // A host abstraction whose annotations no longer exclude the
        // firmware page (as after a buggy reclaim): the host can reach it
        // again even though no regain hook announced anything.
        o.apply_msg(CheckMsg::LockAcquired {
            cpu: 0,
            trap: None,
            comp: Component::Host,
            value: ComponentValue::Host(GhostHost::default()),
            reports: Vec::new(),
            check_ni: false,
        });
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            matches!(
                &vs[0],
                Violation {
                    uniq: Some(3),
                    kind: ViolationKind::FirmwareProtection {
                        handle: 0x1000,
                        pfn: 0x40600,
                    },
                    ..
                }
            ),
            "{vs:?}"
        );
    }
}
