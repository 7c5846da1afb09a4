//! N-version differential replay: one recorded schedule, many slightly
//! wrong hypervisors.
//!
//! The paper validates its oracle by checking that a specification
//! violation shows up when — and only when — the hypervisor is actually
//! wrong. This module mechanises that argument over the fault catalog:
//! take one *clean-recorded* campaign trace, replay its schedule
//! unchanged against the clean hypervisor and against every
//! [`Fault::ALL`] variant, and fold the outcomes into a detection
//! matrix. The clean row must stay violation-free (the schedule is a
//! true positive control); a fault row "diverges" when the oracle
//! reports at least one violation, and its *first-divergence seq* — the
//! smallest violation anchor ([`Violation::event_seq`]) — says how far
//! into the schedule the variant first left the specification.
//!
//! Every row streams the trace through its own
//! [`TraceReader`](crate::tracefile::TraceReader), so the matrix runs in
//! O(1) memory per row and never materializes the timeline. Replay is
//! deterministic, so the matrix is bit-identical across processes —
//! [`DiffMatrix::matrix_line`] renders the canonical digest line ci.sh
//! compares between two independent computations.
//!
//! Not every fault is detectable this way, by design: replay is
//! single-threaded, so race-window bugs (Bug3, Bug4) rarely fire, and
//! init-time bugs (Bug5) need a machine shape the recorded config may
//! not have. Those three misses are structural. The remaining catalog —
//! including Bug2 (the random driver issues oversized memcache top-ups),
//! SynReclaimSkipsWipe (every reclaim is followed by a host read-back)
//! and SynFirmwareReclaim (the driver donates pvmfw-style firmware) —
//! diverges on a recorded schedule, which is what the gate in
//! `examples/differential.rs` pins.

use std::path::Path;

use pkvm_ghost::{fnv1a, Violation, FNV_OFFSET};
use pkvm_hyp::faults::Fault;

use crate::campaign::ReplayMachine;
use crate::tracefile::{TraceFileError, TraceReader};

/// One hypervisor variant's outcome under the recorded schedule.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// The injected fault (`None` for the clean control row).
    pub fault: Option<Fault>,
    /// Violations the replay oracle reported.
    pub violations: usize,
    /// The smallest violation anchor — the event seq where this variant
    /// first observably left the specification (`None` when it never
    /// did).
    pub first_divergence: Option<u64>,
    /// The distinct violation kinds observed, sorted.
    pub kinds: Vec<&'static str>,
    /// Whether the variant hit a hypervisor panic.
    pub hyp_panic: bool,
    /// Driver events executed (a panic stops execution early).
    pub steps: usize,
}

impl DiffRow {
    /// The row's stable name: the fault's, or `clean`.
    pub fn name(&self) -> &'static str {
        self.fault.map(Fault::name).unwrap_or("clean")
    }

    /// `true` when the oracle distinguished this variant from the
    /// specification: any violation or a hypervisor panic.
    pub fn diverged(&self) -> bool {
        self.violations > 0 || self.hyp_panic
    }
}

/// The full detection matrix: the clean control row first, then one row
/// per [`Fault::ALL`] variant, all replaying the same recorded schedule.
#[derive(Clone, Debug)]
pub struct DiffMatrix {
    /// Row 0 is the clean control; rows 1.. follow [`Fault::ALL`] order.
    pub rows: Vec<DiffRow>,
    /// Events decoded from the trace (identical for every row).
    pub events: u64,
}

impl DiffMatrix {
    /// The clean control row.
    pub fn clean_row(&self) -> &DiffRow {
        &self.rows[0]
    }

    /// Fault rows (excludes the clean control).
    pub fn fault_rows(&self) -> &[DiffRow] {
        &self.rows[1..]
    }

    /// How many fault rows diverged.
    pub fn detected(&self) -> usize {
        self.fault_rows().iter().filter(|r| r.diverged()).count()
    }

    /// The human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "differential matrix: {} events, {}/{} faults detected",
            self.events,
            self.detected(),
            self.fault_rows().len()
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>6} {:>10} {:>6}  kinds",
            "variant", "viol", "first-div", "steps"
        );
        for row in &self.rows {
            let first = row
                .first_divergence
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  {:<24} {:>6} {:>10} {:>6}  {}{}",
                row.name(),
                row.violations,
                first,
                row.steps,
                row.kinds.join(","),
                if row.hyp_panic { " [hyp-panic]" } else { "" },
            );
        }
        out
    }

    /// The canonical one-line digest: row names, violation counts,
    /// first-divergence seqs and panic flags folded through FNV-1a.
    /// Replay determinism makes this line bit-identical across
    /// processes; ci.sh compares two independent computations of it.
    pub fn matrix_line(&self) -> String {
        let mut h = FNV_OFFSET;
        for row in &self.rows {
            let first = row
                .first_divergence
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let line = format!(
                "{}:{}:{}:{}:{}\n",
                row.name(),
                row.violations,
                first,
                row.hyp_panic,
                row.kinds.join(",")
            );
            h = fnv1a(h, line.as_bytes());
        }
        format!(
            "diff-matrix: events={} detected={}/{} clean-viol={} fnv={:#018x}",
            self.events,
            self.detected(),
            self.fault_rows().len(),
            self.clean_row().violations,
            h,
        )
    }
}

/// Computes the differential matrix for the trace at `path`: the clean
/// hypervisor plus every [`Fault::ALL`] variant, each replaying the
/// recorded schedule streamed through a fresh
/// [`TraceReader`](crate::tracefile::TraceReader). The trace should be a
/// clean recording — the row faults *replace* the header's recorded
/// fault bits, so the clean row really is fault-free.
///
/// # Errors
///
/// The first decode error from any pass over the file (all passes see
/// the same bytes, so in practice the first pass).
pub fn differential_matrix<P: AsRef<Path>>(path: P) -> Result<DiffMatrix, TraceFileError> {
    let path = path.as_ref();
    let mut variants: Vec<Option<Fault>> = vec![None];
    variants.extend(Fault::ALL.iter().copied().map(Some));
    let mut rows = Vec::with_capacity(variants.len());
    let mut events = 0u64;
    for fault in variants {
        let reader = TraceReader::open(path)?;
        let header = reader.header().clone();
        let bits = fault.map(|f| f as u32).unwrap_or(0);
        let mut rm = ReplayMachine::boot_with_faults(&header, bits);
        let mut decoded = 0u64;
        for rec in reader {
            rm.step(&rec?.event);
            decoded += 1;
        }
        events = decoded;
        let outcome = rm.outcome();
        let first_divergence = outcome
            .violations
            .iter()
            .filter_map(Violation::event_seq)
            .min();
        let mut kinds: Vec<&'static str> = outcome.violations.iter().map(Violation::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        rows.push(DiffRow {
            fault,
            violations: outcome.violations.len(),
            first_divergence,
            kinds,
            hyp_panic: outcome.hyp_panic.is_some(),
            steps: outcome.steps,
        });
    }
    Ok(DiffMatrix { rows, events })
}
