//! The differential matrix, timed from outside: the same loop as
//! `differential::differential_matrix`, with clocks around its decode,
//! boot and replay, so `matrix_s` splits into those three.

use std::path::Path;
use std::time::Instant;

use pkvm_ghost::Violation;
use pkvm_harness::campaign::ReplayMachine;
use pkvm_harness::differential::{DiffMatrix, DiffRow};
use pkvm_harness::tracefile::{TraceFileError, TraceReader};
use pkvm_hyp::faults::Fault;

/// A matrix together with where its time went.
#[derive(Clone, Debug)]
pub struct MatrixLedger {
    /// The detection matrix, as `differential_matrix` builds it.
    pub matrix: DiffMatrix,
    /// One `TraceReader` pass over the file with no replay.
    pub decode_ns: u64,
    /// `ReplayMachine::boot_with_faults` per row.
    pub boot_ns: Vec<u64>,
    /// Decode-and-replay loop of the clean row.
    pub clean_row_ns: u64,
    /// Decode-and-replay loops of the fault rows, summed.
    pub fault_rows_ns: u64,
}

/// Decodes the trace at `path` once, replaying nothing; returns the
/// time taken.
///
/// # Errors
///
/// The first decode error.
fn decode_pass(path: &Path) -> Result<u64, TraceFileError> {
    let t = Instant::now();
    for rec in TraceReader::open(path)? {
        std::hint::black_box(rec?);
    }
    Ok(t.elapsed().as_nanos() as u64)
}

/// Computes the matrix for the trace at `path` row by row, timing each
/// row's boot and its decode-and-replay loop.
///
/// # Errors
///
/// The first decode error.
pub fn timed_matrix(path: &Path) -> Result<MatrixLedger, TraceFileError> {
    let decode_ns = decode_pass(path)?;
    let mut variants: Vec<Option<Fault>> = vec![None];
    variants.extend(Fault::ALL.iter().copied().map(Some));
    let mut rows = Vec::with_capacity(variants.len());
    let mut boot_ns = Vec::with_capacity(variants.len());
    let (mut clean_row_ns, mut fault_rows_ns, mut events) = (0, 0, 0);
    for fault in variants {
        let reader = TraceReader::open(path)?;
        let header = reader.header().clone();
        let bits = fault.map(|f| f as u32).unwrap_or(0);
        let t0 = Instant::now();
        let mut rm = ReplayMachine::boot_with_faults(&header, bits);
        let t1 = Instant::now();
        let mut decoded = 0u64;
        for rec in reader {
            rm.step(&rec?.event);
            decoded += 1;
        }
        let outcome = rm.outcome();
        let loop_ns = t1.elapsed().as_nanos() as u64;
        boot_ns.push((t1 - t0).as_nanos() as u64);
        if fault.is_none() {
            clean_row_ns = loop_ns;
        } else {
            fault_rows_ns += loop_ns;
        }
        events = decoded;
        let mut kinds: Vec<&'static str> = outcome.violations.iter().map(Violation::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        rows.push(DiffRow {
            fault,
            violations: outcome.violations.len(),
            first_divergence: outcome
                .violations
                .iter()
                .filter_map(Violation::event_seq)
                .min(),
            kinds,
            hyp_panic: outcome.hyp_panic.is_some(),
            steps: outcome.steps,
        });
    }
    Ok(MatrixLedger {
        matrix: DiffMatrix { rows, events },
        decode_ns,
        boot_ns,
        clean_row_ns,
        fault_rows_ns,
    })
}
