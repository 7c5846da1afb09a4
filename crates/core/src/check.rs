//! The runtime check: comparing recorded and computed ghost states.
//!
//! After each handler, the oracle holds three (partial) states — the
//! recorded pre, the recorded post, and the spec-computed post — and
//! performs the *ternary* check of §4.2.2: wherever the computed post is
//! defined it must equal the recorded post, and everywhere else the
//! recorded post must equal the pre.

use std::fmt;

use pkvm_hyp::hooks::{Component, TransferEdge};

use crate::abstraction::Anomaly;
use crate::diff::diff_states;
use crate::state::{
    AbstractPgtable, GhostCpu, GhostHost, GhostKey, GhostLoadedVcpu, GhostPkvm, GhostState,
    GhostVcpu, GhostVm,
};

/// What a violation is about: the ghost-state part the oracle built the
/// report from, or else a plain name (a checker step such as
/// `trap_exit`, a spec step such as `spec:vcpu_run`, or a component's
/// `Debug` form such as `Vm(3)`). It renders as the report's `comp=`
/// field.
#[derive(Clone, Debug, PartialEq)]
pub enum Subject {
    /// A part of the ghost state.
    Part(GhostKey),
    /// Anything else.
    Name(String),
}

impl Subject {
    /// The one way a name becomes a subject: a ghost-part name (as
    /// [`GhostKey`]'s `Display` renders it) becomes that part, anything
    /// else stays a name. The trace decoder reads subjects through it
    /// too, so a decoded report equals the encoded one (given a header
    /// that fits its kind's record, which the encoder debug-asserts).
    pub fn named(name: impl Into<String>) -> Subject {
        let name = name.into();
        match GhostKey::parse(&name) {
            Some(key) => Subject::Part(key),
            None => Subject::Name(name),
        }
    }
}

impl From<GhostKey> for Subject {
    fn from(key: GhostKey) -> Subject {
        Subject::Part(key)
    }
}

impl From<&str> for Subject {
    fn from(name: &str) -> Subject {
        Subject::named(name)
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Part(key) => key.fmt(f),
            Subject::Name(name) => f.write_str(name),
        }
    }
}

/// One detected disagreement between implementation and specification (or
/// a broken runtime invariant): a header every report shares, plus the
/// [`ViolationKind`] holding what is particular to its kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The report's position in the unified event stream (see
    /// [`crate::event`]), filled in when the report enters the stream, so
    /// reports can say "diverged at event #N" and a replay can be compared
    /// against the original timeline position by position. Protocol
    /// reports (break-before-make, firmware, transfer, reclaim) anchor on
    /// the offending event instead.
    pub seq: Option<u64>,
    /// The trap being checked, for the ternary check's reports and
    /// break-before-make (the trap that exited unflushed).
    pub trap: Option<String>,
    /// What the report concerns, if it names anything.
    pub subject: Option<Subject>,
    /// The incarnation id (`Vm::uniq`) of the VM involved, when known.
    pub uniq: Option<u64>,
    /// The kind, with its own payload.
    pub kind: ViolationKind,
}

/// The kinds of [`Violation`], each with the payload only it carries.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationKind {
    /// The recorded post-state differs from the spec-computed post-state.
    SpecMismatch {
        /// Rendered diff (computed vs recorded).
        diff: String,
    },
    /// A component the spec did not change differs between pre and post.
    UnexpectedChange {
        /// Rendered diff (pre vs recorded post).
        diff: String,
    },
    /// A lock-protected component changed while no one held its lock
    /// (§4.4 invariant 1).
    NonInterference {
        /// Rendered diff (last recorded vs now observed).
        diff: String,
    },
    /// A page was allocated into the subject's page-table footprint
    /// while belonging to another component's (§4.4 invariant 2).
    SeparationOverlap {
        /// The offending page frame.
        pfn: u64,
        /// The component already owning the page.
        owner: String,
    },
    /// The abstraction function found a malformed concrete state.
    AbstractionAnomaly {
        /// What was found.
        anomaly: Anomaly,
    },
    /// The hypervisor panicked.
    HypPanic {
        /// The panic reason.
        reason: String,
    },
    /// Oracle self-check: the oracle's own bookkeeping hit a state it
    /// cannot interpret (e.g. a trap exit with no recorded call data). The
    /// run continues — one confused record must not poison a whole
    /// campaign — but the confusion itself is surfaced as a finding.
    OracleSelfCheck {
        /// What it could not interpret.
        detail: String,
    },
    /// Oracle self-check: under shadow validation the incremental
    /// abstraction diverged from the full walk.
    ShadowDivergence {
        /// Rendered diff (full vs incremental).
        diff: String,
    },
    /// A break-before-make breach: a live mapping was removed or
    /// tightened and the trap exited without the matching-scope broadcast
    /// TLB invalidation (plus DSB). `seq` anchors on the offending
    /// table-write event (the `PteDowngrade`), not on this report.
    BreakBeforeMake {
        /// VMID of the downgraded translation regime.
        vmid: u16,
        /// First input address of the downgraded range.
        ia: u64,
        /// Pages downgraded (`u64::MAX` with `ia == 0` is VMID-wide).
        nr: u64,
    },
    /// The host's stage 2 regained access to a page that was donated to a
    /// protected VM as firmware. The property spans the VM's whole
    /// lifetime — including teardown and handle reuse — so `uniq` names
    /// the incarnation the page belonged to, and `seq` anchors on the
    /// event where the host regained access.
    FirmwareProtection {
        /// Handle of the VM the firmware was donated to.
        handle: u32,
        /// The firmware page frame the host regained.
        pfn: u64,
    },
    /// A page crossed an ownership-transfer edge its protocol state does
    /// not allow — e.g. becoming accessible to both sides mid-transfer,
    /// or an unshare that does not restore the pre-share owner. `seq`
    /// anchors on the offending transfer event.
    TransferProtocol {
        /// The edge that was crossed.
        edge: TransferEdge,
        /// The page frame concerned.
        pfn: u64,
        /// What the protocol state machine expected instead.
        detail: String,
    },
    /// A reclaimed guest page re-entered the host's stage 2 still holding
    /// guest data (the wipe was skipped or incomplete). `seq` anchors on
    /// the reclaim transfer event.
    ReclaimWipe {
        /// The page frame returned unwiped.
        pfn: u64,
    },
    /// An oracle-internal step (abstraction, spec, or check) panicked and
    /// the panic was contained. The system under test is *not* implicated:
    /// this is the oracle reporting on itself so a campaign can keep
    /// running instead of aborting. The subject is the component (or
    /// oracle step) whose processing panicked.
    OracleInternal {
        /// The stringified panic payload.
        payload: String,
    },
}

impl Violation {
    /// A report of `kind` with an empty header.
    pub fn new(kind: ViolationKind) -> Violation {
        Violation {
            seq: None,
            trap: None,
            subject: None,
            uniq: None,
            kind,
        }
    }

    /// A report of `kind` about `subject`, the rest of the header empty.
    pub fn about(subject: impl Into<Subject>, kind: ViolationKind) -> Violation {
        Violation {
            subject: Some(subject.into()),
            ..Violation::new(kind)
        }
    }

    /// Stable kind tag, usable as a grep key in reports.
    pub fn kind(&self) -> &'static str {
        match self.kind {
            ViolationKind::SpecMismatch { .. } => "spec-mismatch",
            ViolationKind::UnexpectedChange { .. } => "unexpected-change",
            ViolationKind::NonInterference { .. } => "non-interference",
            ViolationKind::SeparationOverlap { .. } => "separation-overlap",
            ViolationKind::AbstractionAnomaly { .. } => "abstraction-anomaly",
            ViolationKind::HypPanic { .. } => "hyp-panic",
            ViolationKind::OracleSelfCheck { .. } => "oracle-self-check",
            ViolationKind::ShadowDivergence { .. } => "shadow-divergence",
            ViolationKind::BreakBeforeMake { .. } => "break-before-make",
            ViolationKind::FirmwareProtection { .. } => "firmware-protection",
            ViolationKind::TransferProtocol { .. } => "transfer-protocol",
            ViolationKind::ReclaimWipe { .. } => "reclaim-wipe",
            ViolationKind::OracleInternal { .. } => "oracle-internal",
        }
    }

    /// The violation's event-stream sequence id, once reported.
    pub fn event_seq(&self) -> Option<u64> {
        self.seq
    }
}

/// An optional header field, rendered as `-` when absent.
struct OrDash<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrDash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

/// Every violation renders through the same header so reports are
/// greppable without per-kind knowledge: `violation kind=<kind>
/// trap=<trap|-> comp=<subject|-> uniq=<Vm::uniq|-> event=<seq|-> ::
/// <detail>`. The `event=` field is the report's position in the unified
/// event stream — "diverged at event #N" — so a replay can be lined up
/// against the original timeline.
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violation kind={} trap={} comp={} uniq={} event={} :: ",
            self.kind(),
            OrDash(self.trap.as_deref()),
            OrDash(self.subject.as_ref()),
            OrDash(self.uniq),
            OrDash(self.seq),
        )?;
        match &self.kind {
            ViolationKind::SpecMismatch { diff } => write!(f, "spec mismatch:\n{diff}"),
            ViolationKind::UnexpectedChange { diff } => write!(f, "unexpected change:\n{diff}"),
            ViolationKind::NonInterference { diff } => write!(f, "changed while unlocked:\n{diff}"),
            ViolationKind::SeparationOverlap { pfn, owner } => {
                write!(f, "allocated table page {pfn:#x} owned by {owner}")
            }
            ViolationKind::AbstractionAnomaly { anomaly } => {
                write!(f, "malformed concrete state: {anomaly:?}")
            }
            ViolationKind::HypPanic { reason } => write!(f, "hypervisor panic: {reason}"),
            ViolationKind::OracleSelfCheck { detail } => {
                write!(f, "oracle self-check failed: {detail}")
            }
            ViolationKind::ShadowDivergence { diff } => {
                write!(
                    f,
                    "incremental abstraction diverged from full walk:\n{diff}"
                )
            }
            ViolationKind::BreakBeforeMake { vmid, ia, nr } => {
                if *ia == 0 && *nr == u64::MAX {
                    write!(
                        f,
                        "downgrade of vmid {vmid} (vmid-wide) exited without TLBI+DSB"
                    )
                } else {
                    write!(
                        f,
                        "downgrade of vmid {vmid} ia {ia:#x} ({nr} pages) exited without \
                         covering broadcast TLBI+DSB"
                    )
                }
            }
            ViolationKind::FirmwareProtection { handle, pfn } => write!(
                f,
                "host regained firmware page {pfn:#x} donated to vm {handle:#x} \
                 (incarnation {})",
                OrDash(self.uniq)
            ),
            ViolationKind::TransferProtocol { edge, pfn, detail } => write!(
                f,
                "page {pfn:#x} illegally crossed edge {}: {detail}",
                edge.name()
            ),
            ViolationKind::ReclaimWipe { pfn } => {
                write!(
                    f,
                    "page {pfn:#x} reclaimed to the host still holding guest data"
                )
            }
            ViolationKind::OracleInternal { payload } => {
                write!(f, "contained oracle panic: {payload}")
            }
        }
    }
}

/// The outcome of checking one trap.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Violations found (empty means the trap passed).
    pub violations: Vec<Violation>,
    /// Components the spec defined but the handler never recorded (no lock
    /// cycle): their computed values seed the oracle's shared copy so the
    /// *next* acquisition validates them.
    pub deferred: Vec<GhostKey>,
}

/// Normalises a ghost state for comparison: memory-management details —
/// table-node footprints and memcache contents — are erased, because the
/// specification deliberately abstracts from "allocation of internal
/// structures and reference counting" (§3.1). The raw values stay in the
/// recorded states (the separation check and the teardown spec *read*
/// them); they just do not participate in equality.
///
/// The checks themselves compare in place (`parts_agree`); a normalised
/// copy is only made to render the diff of an actual mismatch.
pub fn normalize(state: &GhostState) -> GhostState {
    normalized(state.clone())
}

/// [`normalize`] on an owned state, in place. Normalisation is per part,
/// so normalising one [`GhostState::part`] equals the same part of the
/// normalised whole.
pub(crate) fn normalized(mut s: GhostState) -> GhostState {
    if let Some(h) = s.host.as_mut() {
        h.table_pages = Default::default();
    }
    if let Some(p) = s.pkvm.as_mut() {
        p.pgt.table_pages = Default::default();
    }
    for vm in s.vms.values_mut() {
        vm.pgt.table_pages = Default::default();
        for v in vm.vcpus.iter_mut() {
            if let GhostVcpu::Present { memcache, .. } = v {
                memcache.clear();
            }
        }
    }
    for l in s.locals.values_mut() {
        if let Some(lv) = l.loaded.as_mut() {
            lv.memcache.clear();
        }
    }
    s
}

/// Whether `a` and `b` agree on the part `key` once normalised — exactly
/// `normalized(a.part(key)) == normalized(b.part(key))`, but compared in
/// place, without copying either part.
pub(crate) fn parts_agree(a: &GhostState, b: &GhostState, key: GhostKey) -> bool {
    fn both<T>(a: Option<&T>, b: Option<&T>, eq: impl Fn(&T, &T) -> bool) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
    match key {
        GhostKey::Comp(Component::Host) => both(a.host.as_ref(), b.host.as_ref(), host_agrees),
        GhostKey::Comp(Component::Hyp) => both(a.pkvm.as_ref(), b.pkvm.as_ref(), pkvm_agrees),
        GhostKey::Comp(Component::VmTable) => a.vm_table == b.vm_table,
        GhostKey::Comp(Component::Vm(h)) => both(a.vms.get(&h), b.vms.get(&h), vm_agrees),
        GhostKey::Locals(cpu) => both(a.locals.get(&cpu), b.locals.get(&cpu), |a, b| {
            cpu_agrees(a, b)
        }),
    }
}

/// Host components equal once normalised (the footprint ignored).
pub(crate) fn host_agrees(a: &GhostHost, b: &GhostHost) -> bool {
    let GhostHost {
        annot,
        shared,
        table_pages: _,
    } = a;
    *annot == b.annot && *shared == b.shared
}

/// pKVM components equal once normalised (the footprint ignored).
pub(crate) fn pkvm_agrees(a: &GhostPkvm, b: &GhostPkvm) -> bool {
    let GhostPkvm { pgt } = a;
    pgtable_agrees(pgt, &b.pgt)
}

/// Abstract page tables equal once normalised (the footprint ignored).
fn pgtable_agrees(a: &AbstractPgtable, b: &AbstractPgtable) -> bool {
    let AbstractPgtable {
        mapping,
        table_pages: _,
    } = a;
    *mapping == b.mapping
}

/// VM components equal once normalised (the footprint and the memcaches
/// of present vCPUs ignored).
pub(crate) fn vm_agrees(a: &GhostVm, b: &GhostVm) -> bool {
    let GhostVm {
        handle,
        slot,
        protected,
        pgt,
        donated,
        firmware,
        vcpus,
    } = a;
    *handle == b.handle
        && *slot == b.slot
        && *protected == b.protected
        && pgtable_agrees(pgt, &b.pgt)
        && *donated == b.donated
        && *firmware == b.firmware
        && vcpus.len() == b.vcpus.len()
        && vcpus.iter().zip(&b.vcpus).all(|pair| match pair {
            (GhostVcpu::Uninit, GhostVcpu::Uninit) => true,
            (
                GhostVcpu::Present {
                    regs: x,
                    memcache: _,
                },
                GhostVcpu::Present { regs: y, .. },
            ) => x == y,
            (GhostVcpu::Loaded { on: x }, GhostVcpu::Loaded { on: y }) => x == y,
            _ => false,
        })
}

/// Per-CPU locals equal once normalised (the loaded vCPU's memcache
/// ignored).
fn cpu_agrees(a: &GhostCpu, b: &GhostCpu) -> bool {
    let GhostCpu { regs, loaded } = a;
    *regs == b.regs
        && match (loaded, &b.loaded) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                let GhostLoadedVcpu {
                    handle,
                    idx,
                    regs,
                    memcache: _,
                } = x;
                *handle == y.handle && *idx == y.idx && *regs == y.regs
            }
            _ => false,
        }
}

/// The diff of part `key` between `a` and `b`, rendered over normalised
/// copies exactly as the checks report it.
fn part_diff(a: &GhostState, b: &GhostState, key: GhostKey) -> String {
    diff_states(&normalized(a.part(key)), &normalized(b.part(key)))
}

/// The ternary check for one trap: `pre` and `recorded` come from the
/// recording machinery, `computed` from the specification function.
/// Components are visited in first-seen order across `[pre, recorded,
/// computed]`, each compared on its own normalised part; only a mismatch
/// copies the parts, to render their diff.
pub fn check_trap(
    trap: &str,
    pre: &GhostState,
    recorded: &GhostState,
    computed: &GhostState,
) -> CheckOutcome {
    let mut keys: Vec<GhostKey> = Vec::new();
    for key in [pre, recorded, computed]
        .into_iter()
        .flat_map(GhostState::keys)
    {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut out = CheckOutcome::default();
    for key in keys {
        match (computed.contains(key), recorded.contains(key)) {
            (true, true) => {
                if !parts_agree(computed, recorded, key) {
                    let diff = part_diff(computed, recorded, key);
                    out.violations.push(Violation {
                        trap: Some(trap.into()),
                        ..Violation::about(key, ViolationKind::SpecMismatch { diff })
                    });
                }
            }
            (true, false) => {
                // The spec defined a component the handler never recorded
                // (e.g. the initial state of a freshly created VM): defer
                // it to the next acquisition's non-interference check.
                out.deferred.push(key);
            }
            (false, true) => {
                // The spec left it alone: it must not have changed.
                if pre.contains(key) && !parts_agree(pre, recorded, key) {
                    let diff = part_diff(pre, recorded, key);
                    out.violations.push(Violation {
                        trap: Some(trap.into()),
                        ..Violation::about(key, ViolationKind::UnexpectedChange { diff })
                    });
                }
                // A post-only recording with no pre cannot happen through
                // the paired lock helpers; nothing to check if it does.
            }
            (false, false) => {
                // Present only in pre: locked but the spec says nothing and
                // the release recorded nothing — unreachable through the
                // paired helpers.
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maplet::{AbsAttrs, Maplet, MapletTarget};
    use crate::state::GhostGlobals;
    use pkvm_aarch64::attrs::{MemType, Perms};
    use pkvm_hyp::owner::{OwnerId, PageState};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn host_state(shared_pages: &[u64]) -> GhostState {
        let mut s = GhostState::blank(&GhostGlobals::default());
        let mut h = GhostHost::default();
        for &ia in shared_pages {
            h.shared.insert(Maplet {
                ia,
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: ia,
                    attrs: AbsAttrs {
                        perms: Perms::RWX,
                        memtype: MemType::Normal,
                        state: Some(PageState::SharedOwned),
                    },
                },
            });
        }
        s.host = Some(h);
        s
    }

    #[test]
    fn matching_states_pass() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = host_state(&[0x4000_0000]);
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn spec_mismatch_detected() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = host_state(&[0x4000_1000]);
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert_eq!(o.violations[0].kind(), "spec-mismatch");
        assert_eq!(
            o.violations[0].subject,
            Some(GhostKey::Comp(Component::Host).into())
        );
    }

    #[test]
    fn unexpected_change_detected() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = GhostState::blank(&GhostGlobals::default()); // spec: no change
        let o = check_trap("vcpu_put", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert!(matches!(
            o.violations[0].kind,
            ViolationKind::UnexpectedChange { .. }
        ));
    }

    #[test]
    fn untouched_components_pass() {
        let pre = host_state(&[0x4000_0000]);
        let recorded = pre.clone();
        let computed = GhostState::blank(&GhostGlobals::default());
        let o = check_trap("vcpu_put", &pre, &recorded, &computed);
        assert!(o.violations.is_empty());
    }

    #[test]
    fn spec_only_components_are_deferred() {
        let pre = GhostState::blank(&GhostGlobals::default());
        let recorded = GhostState::blank(&GhostGlobals::default());
        let computed = host_state(&[0x4000_0000]);
        let o = check_trap("init", &pre, &recorded, &computed);
        assert!(o.violations.is_empty());
        assert_eq!(o.deferred, vec![GhostKey::Comp(Component::Host)]);
    }

    #[test]
    fn display_is_uniform_and_greppable() {
        let v = Violation {
            trap: Some("host_share_hyp".into()),
            ..Violation::about("host", ViolationKind::SpecMismatch { diff: "d".into() })
        };
        assert!(
            v.to_string().starts_with(
                "violation kind=spec-mismatch trap=host_share_hyp comp=host uniq=- event=- ::"
            ),
            "{v}"
        );
        let mut v = Violation::about("vm[3]", ViolationKind::NonInterference { diff: "d".into() });
        v.uniq = Some(42);
        v.seq = Some(1234);
        assert!(
            v.to_string().starts_with(
                "violation kind=non-interference trap=- comp=vm[3] uniq=42 event=1234 ::"
            ),
            "{v}"
        );
        // A seq set by the original timeline survives a re-report.
        let s = crate::event::EventStream::new(false, 1);
        s.violation(0, None, v);
        assert_eq!(s.violations()[0].event_seq(), Some(1234));
        let v = Violation::about(
            Subject::Name("spec:vcpu_run".into()),
            ViolationKind::OracleInternal {
                payload: "boom".into(),
            },
        );
        let s = v.to_string();
        assert!(
            s.starts_with(
                "violation kind=oracle-internal trap=- comp=spec:vcpu_run uniq=- event=- ::"
            ) && s.contains("boom"),
            "{s}"
        );
    }

    #[test]
    fn locals_mismatch_detected() {
        let mut pre = GhostState::blank(&GhostGlobals::default());
        pre.write_gpr(0, 1, 7);
        let mut recorded = GhostState::blank(&GhostGlobals::default());
        recorded.write_gpr(0, 1, 0); // impl returned 0
        let mut computed = GhostState::blank(&GhostGlobals::default());
        computed.write_gpr(0, 1, (-1i64) as u64); // spec expected EPERM
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert_eq!(o.violations[0].kind(), "spec-mismatch");
        assert_eq!(o.violations[0].subject, Some(GhostKey::Locals(0).into()));
    }

    fn vm(handle: u32, slot: usize) -> GhostVm {
        GhostVm {
            handle,
            slot,
            protected: false,
            pgt: Default::default(),
            donated: Vec::new(),
            firmware: Vec::new(),
            vcpus: Vec::new(),
        }
    }

    #[test]
    fn components_are_checked_in_first_seen_order() {
        let mut pre = host_state(&[]);
        pre.vms.insert(9, vm(9, 0));
        pre.write_gpr(1, 1, 1);
        let mut recorded = host_state(&[0x4000_0000]);
        recorded.pkvm = Some(Default::default());
        recorded.vms.insert(9, vm(9, 1));
        recorded.vms.insert(2, vm(2, 0));
        recorded.write_gpr(0, 1, 5);
        recorded.write_gpr(1, 1, 2);
        let mut computed = host_state(&[0x4000_1000]);
        computed.vm_table = Some(Vec::new());
        computed.vms.insert(2, vm(2, 3));
        computed.vms.insert(4, vm(4, 1));
        computed.write_gpr(0, 1, 5);
        computed.write_gpr(1, 1, 3);
        let o = check_trap("t", &pre, &recorded, &computed);
        let found: Vec<(&str, String)> = o
            .violations
            .iter()
            .map(|v| (v.kind(), v.subject.as_ref().unwrap().to_string()))
            .collect();
        assert_eq!(
            found,
            [
                ("spec-mismatch", "host".to_string()),
                ("unexpected-change", "vm[9]".to_string()),
                ("spec-mismatch", "locals[1]".to_string()),
                ("spec-mismatch", "vm[2]".to_string()),
            ]
        );
        assert_eq!(
            o.deferred,
            [
                GhostKey::Comp(Component::VmTable),
                GhostKey::Comp(Component::Vm(4))
            ]
        );
    }

    #[test]
    fn component_names_round_trip() {
        for (key, name) in [
            (GhostKey::Comp(Component::Host), "host"),
            (GhostKey::Comp(Component::Hyp), "pkvm"),
            (GhostKey::Comp(Component::VmTable), "vm_table"),
            (GhostKey::Comp(Component::Vm(4097)), "vm[4097]"),
            (GhostKey::Locals(3), "locals[3]"),
        ] {
            assert_eq!(key.to_string(), name);
            assert_eq!(Subject::named(name), Subject::Part(key), "{name}");
        }
        for name in ["vm[bogus]", "vm[", "locals[x]", "Host", "wat"] {
            assert_eq!(Subject::named(name), Subject::Name(name.into()), "{name}");
        }
    }

    fn mapped(ia: u64, oa: u64) -> Maplet {
        Maplet {
            ia,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa,
                attrs: AbsAttrs {
                    perms: Perms::RW,
                    memtype: MemType::Normal,
                    state: Some(PageState::Owned),
                },
            },
        }
    }

    fn footprint(pfns: &[u64]) -> Arc<BTreeSet<u64>> {
        Arc::new(pfns.iter().copied().collect())
    }

    /// A state holding every kind of part, each with a footprint or
    /// memcache that normalisation erases.
    pub(crate) fn full_state() -> GhostState {
        let mut s = host_state(&[0x4000_0000]);
        let host = s.host.as_mut().unwrap();
        host.annot.insert(Maplet {
            ia: 0x4400_0000,
            nr_pages: 4,
            target: MapletTarget::Annotated {
                owner: OwnerId::HYP,
            },
        });
        host.table_pages = footprint(&[0x44001, 0x44002]);
        let mut pkvm = GhostPkvm::default();
        pkvm.pgt
            .mapping
            .insert(mapped(0x8000_4400_0000, 0x4400_0000));
        pkvm.pgt.table_pages = footprint(&[0x44010]);
        s.pkvm = Some(pkvm);
        s.vm_table = Some(vec![(0x1000, 0)]);
        let mut vm = vm(0x1000, 0);
        vm.pgt.mapping.insert(mapped(0x10_0000, 0x4080_0000));
        vm.pgt.table_pages = footprint(&[0x44020]);
        vm.donated = vec![0x44030];
        vm.firmware = vec![0x44040];
        vm.vcpus = vec![
            GhostVcpu::Uninit,
            GhostVcpu::Present {
                regs: Default::default(),
                memcache: vec![0x44050],
            },
            GhostVcpu::Loaded { on: 1 },
        ];
        s.vms.insert(0x1000, vm);
        s.write_gpr(1, 0, 7);
        s.locals.get_mut(&1).unwrap().loaded = Some(GhostLoadedVcpu {
            handle: 0x1000,
            idx: 2,
            regs: Default::default(),
            memcache: vec![0x44060],
        });
        s
    }

    /// One-field edits of [`full_state`]: what changed, the part it
    /// lives in, and whether the part still agrees once normalised.
    #[expect(clippy::type_complexity)]
    pub(crate) fn one_field_edits() -> Vec<(&'static str, GhostKey, bool, fn(&mut GhostState))> {
        const HOST: GhostKey = GhostKey::Comp(Component::Host);
        const PKVM: GhostKey = GhostKey::Comp(Component::Hyp);
        const TABLE: GhostKey = GhostKey::Comp(Component::VmTable);
        const VM: GhostKey = GhostKey::Comp(Component::Vm(0x1000));
        const LOCALS: GhostKey = GhostKey::Locals(1);
        fn host(s: &mut GhostState) -> &mut GhostHost {
            s.host.as_mut().unwrap()
        }
        fn vm(s: &mut GhostState) -> &mut GhostVm {
            s.vms.get_mut(&0x1000).unwrap()
        }
        fn loaded(s: &mut GhostState) -> &mut GhostLoadedVcpu {
            s.locals.get_mut(&1).unwrap().loaded.as_mut().unwrap()
        }
        vec![
            ("host footprint", HOST, true, |s| {
                Arc::make_mut(&mut host(s).table_pages).insert(0x44003);
            }),
            ("host annot", HOST, false, |s| {
                host(s).annot.remove(0x4400_0000, 1)
            }),
            ("host shared", HOST, false, |s| {
                host(s).shared.insert(mapped(0x4000_1000, 0x4000_1000))
            }),
            ("pkvm footprint", PKVM, true, |s| {
                s.pkvm.as_mut().unwrap().pgt.table_pages = Default::default()
            }),
            ("pkvm mapping", PKVM, false, |s| {
                s.pkvm.as_mut().unwrap().pgt.mapping = Default::default()
            }),
            ("vm table", TABLE, false, |s| {
                s.vm_table.as_mut().unwrap().push((0x2000, 1))
            }),
            ("vm footprint", VM, true, |s| {
                Arc::make_mut(&mut vm(s).pgt.table_pages).insert(0x44021);
            }),
            ("vcpu memcache", VM, true, |s| match &mut vm(s).vcpus[1] {
                GhostVcpu::Present { memcache, .. } => memcache.push(0x44051),
                _ => unreachable!(),
            }),
            ("vm handle", VM, false, |s| vm(s).handle = 0x2000),
            ("vm slot", VM, false, |s| vm(s).slot = 3),
            ("vm protected", VM, false, |s| vm(s).protected = true),
            ("vm mapping", VM, false, |s| {
                vm(s).pgt.mapping.remove(0x10_0000, 1)
            }),
            ("vm donated", VM, false, |s| vm(s).donated.push(0x44031)),
            ("vm firmware", VM, false, |s| vm(s).firmware.clear()),
            ("vcpu regs", VM, false, |s| match &mut vm(s).vcpus[1] {
                GhostVcpu::Present { regs, .. } => regs.set(0, 1),
                _ => unreachable!(),
            }),
            ("vcpu loaded on", VM, false, |s| {
                vm(s).vcpus[2] = GhostVcpu::Loaded { on: 0 }
            }),
            ("vcpu state", VM, false, |s| {
                vm(s).vcpus[0] = GhostVcpu::Loaded { on: 0 }
            }),
            ("vcpu count", VM, false, |s| {
                vm(s).vcpus.push(GhostVcpu::Uninit)
            }),
            ("loaded memcache", LOCALS, true, |s| {
                loaded(s).memcache.clear()
            }),
            ("locals regs", LOCALS, false, |s| s.write_gpr(1, 0, 8)),
            ("loaded handle", LOCALS, false, |s| {
                loaded(s).handle = 0x2000
            }),
            ("loaded idx", LOCALS, false, |s| loaded(s).idx = 0),
            ("loaded regs", LOCALS, false, |s| loaded(s).regs.set(3, 3)),
            ("unloaded", LOCALS, false, |s| {
                s.locals.get_mut(&1).unwrap().loaded = None
            }),
        ]
    }

    /// The ternary check as it was before in-place comparison: every part
    /// compared (and diffed) as normalised copies.
    fn copying_check_trap(
        trap: &str,
        pre: &GhostState,
        recorded: &GhostState,
        computed: &GhostState,
    ) -> Vec<Violation> {
        let mut keys: Vec<GhostKey> = Vec::new();
        for key in [pre, recorded, computed]
            .into_iter()
            .flat_map(GhostState::keys)
        {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let mut out = Vec::new();
        for key in keys {
            let r = normalized(recorded.part(key));
            if computed.contains(key) && recorded.contains(key) {
                let c = normalized(computed.part(key));
                if c != r {
                    out.push(Violation {
                        trap: Some(trap.into()),
                        ..Violation::about(
                            key,
                            ViolationKind::SpecMismatch {
                                diff: diff_states(&c, &r),
                            },
                        )
                    });
                }
            } else if !computed.contains(key) && recorded.contains(key) && pre.contains(key) {
                let p = normalized(pre.part(key));
                if p != r {
                    out.push(Violation {
                        trap: Some(trap.into()),
                        ..Violation::about(
                            key,
                            ViolationKind::UnexpectedChange {
                                diff: diff_states(&p, &r),
                            },
                        )
                    });
                }
            }
        }
        out
    }

    #[test]
    fn in_place_comparison_ignores_exactly_what_normalisation_erases() {
        let base = full_state();
        let blank = GhostState::blank(&GhostGlobals::default());
        let keys: Vec<GhostKey> = base.keys().collect();
        assert_eq!(keys.len(), 5, "one part of every kind");
        for (what, key, agrees, edit) in one_field_edits() {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base, "{what}: the edit changes the raw state");
            for &k in &keys {
                let expect = k != key || agrees;
                assert_eq!(parts_agree(&base, &edited, k), expect, "{what} in {k}");
                assert_eq!(parts_agree(&edited, &base, k), expect, "{what} in {k}");
                assert_eq!(
                    normalized(base.part(k)) == normalized(edited.part(k)),
                    expect,
                    "{what}: the copying comparison disagrees in {k}"
                );
            }
            // Spec mismatch (computed vs recorded) and unexpected change
            // (pre vs recorded, spec silent): the same reports, down to
            // the rendered diff, as the copying check.
            for (pre, computed) in [(&base, &base), (&base, &blank)] {
                let now = check_trap("t", pre, &edited, computed);
                let then = copying_check_trap("t", pre, &edited, computed);
                assert_eq!(now.violations, then, "{what}");
                let lines = |vs: &[Violation]| vs.iter().map(|v| v.to_string()).collect::<Vec<_>>();
                assert_eq!(lines(&now.violations), lines(&then), "{what}");
                assert_eq!(now.violations.len(), usize::from(!agrees), "{what}");
            }
        }
    }
}
