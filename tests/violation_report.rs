//! Golden pins for the oracle's report: one violation of each of the 13
//! kinds, with its exact `Display` line, the exact `.pkvmtrace` bytes of
//! a one-event trace holding it, its decode round trip, and the novelty
//! signature of a timeline holding all 13. A change to the report's
//! representation may change how these reports are built, never what
//! they render, encode to or hash to.

use pkvm_repro::ghost::abstraction::Anomaly;
use pkvm_repro::ghost::event::{novelty_signature, Event, EventRecord};
use pkvm_repro::ghost::oracle::OracleOpts;
use pkvm_repro::ghost::state::GhostKey;
use pkvm_repro::harness::campaign::CampaignTrace;
use pkvm_repro::harness::tracefile::{decode_trace, encode_trace, FORMAT_VERSION};
use pkvm_repro::hyp::hooks::{Component, TransferEdge};
use pkvm_repro::hyp::machine::MachineConfig;
use pkvm_repro::prelude::{Violation, ViolationKind};

/// One report of every kind, in the codec's tag order, each with the
/// header fields its kind carries set (the `seq`s are 41 up, the seventh
/// left unset).
fn reports() -> Vec<Violation> {
    let vm = |h| GhostKey::Comp(Component::Vm(h));
    let mut reports = vec![
        Violation {
            trap: Some("host_share_hyp".into()),
            ..Violation::about(
                GhostKey::Comp(Component::Host),
                ViolationKind::SpecMismatch {
                    diff: "- a\n+ b".into(),
                },
            )
        },
        Violation {
            trap: Some("vcpu_run".into()),
            uniq: Some(7),
            ..Violation::about(
                vm(4096),
                ViolationKind::UnexpectedChange { diff: "d".into() },
            )
        },
        Violation {
            uniq: Some(8),
            ..Violation::about(
                vm(4097),
                ViolationKind::NonInterference { diff: "n".into() },
            )
        },
        Violation::about(
            "Vm(4096)",
            ViolationKind::SeparationOverlap {
                pfn: 0x44020,
                owner: "Host".into(),
            },
        ),
        Violation::about(
            "Host",
            ViolationKind::AbstractionAnomaly {
                anomaly: Anomaly::HostNotIdentity {
                    ia: 0x4000_0000,
                    oa: 0x4000_1000,
                },
            },
        ),
        Violation::new(ViolationKind::HypPanic {
            reason: "BUG()".into(),
        }),
        Violation::about(
            "trap_exit",
            ViolationKind::OracleSelfCheck {
                detail: "no recorded call data (trap_enter not delivered?)".into(),
            },
        ),
        Violation::about("Hyp", ViolationKind::ShadowDivergence { diff: "s".into() }),
        Violation::about(
            vm(4096),
            ViolationKind::OracleInternal {
                payload: "boom".into(),
            },
        ),
        Violation {
            trap: Some("host_unshare_hyp".into()),
            ..Violation::new(ViolationKind::BreakBeforeMake {
                vmid: 1,
                ia: 0x8000,
                nr: 2,
            })
        },
        Violation {
            uniq: Some(7),
            ..Violation::new(ViolationKind::FirmwareProtection {
                handle: 0x1001,
                pfn: 0x200,
            })
        },
        Violation::new(ViolationKind::TransferProtocol {
            edge: TransferEdge::ShareHyp,
            pfn: 0x100,
            detail: "departed from state host_owned".into(),
        }),
        Violation::new(ViolationKind::ReclaimWipe { pfn: 0x101 }),
    ];
    for (i, v) in reports.iter_mut().enumerate() {
        v.seq = (i != 6).then_some(41 + i as u64);
    }
    reports
}

/// The `Display` line of each report, in [`reports`] order.
const LINES: [&str; 13] = [
    "violation kind=spec-mismatch trap=host_share_hyp comp=host uniq=- event=41 :: spec mismatch:\n- a\n+ b",
    "violation kind=unexpected-change trap=vcpu_run comp=vm[4096] uniq=7 event=42 :: unexpected change:\nd",
    "violation kind=non-interference trap=- comp=vm[4097] uniq=8 event=43 :: changed while unlocked:\nn",
    "violation kind=separation-overlap trap=- comp=Vm(4096) uniq=- event=44 :: allocated table page 0x44020 owned by Host",
    "violation kind=abstraction-anomaly trap=- comp=Host uniq=- event=45 :: malformed concrete state: HostNotIdentity { ia: 1073741824, oa: 1073745920 }",
    "violation kind=hyp-panic trap=- comp=- uniq=- event=46 :: hypervisor panic: BUG()",
    "violation kind=oracle-self-check trap=- comp=trap_exit uniq=- event=- :: oracle self-check failed: no recorded call data (trap_enter not delivered?)",
    "violation kind=shadow-divergence trap=- comp=Hyp uniq=- event=48 :: incremental abstraction diverged from full walk:\ns",
    "violation kind=oracle-internal trap=- comp=vm[4096] uniq=- event=49 :: contained oracle panic: boom",
    "violation kind=break-before-make trap=host_unshare_hyp comp=- uniq=- event=50 :: downgrade of vmid 1 ia 0x8000 (2 pages) exited without covering broadcast TLBI+DSB",
    "violation kind=firmware-protection trap=- comp=- uniq=7 event=51 :: host regained firmware page 0x200 donated to vm 0x1001 (incarnation 7)",
    "violation kind=transfer-protocol trap=- comp=- uniq=- event=52 :: page 0x100 illegally crossed edge share_hyp: departed from state host_owned",
    "violation kind=reclaim-wipe trap=- comp=- uniq=- event=53 :: page 0x101 reclaimed to the host still holding guest data",
];

/// The encoded header of a one-seed trace at default config and
/// options; every trace below starts with it.
const HEADER: &str = "504b564d54524345060401808080800480808040018080804880208010010100008020ffffffffffffffffff01031000000101";

/// The record bytes (sentinel, envelope, event) of each report, in
/// [`reports`] order; the terminator follows.
const RECORDS: [&str; 13] = [
    "0164010107d2090d0001290e686f73745f73686172655f68797004686f737400072d20610a2b2062",
    "0165010107d2090d01012a08766370755f72756e08766d5b343039365d01070164",
    "0166010107d2090d02012b08766d5b343039375d0108016e",
    "0167010107d2090d03012c08566d283430393629a0801104486f7374",
    "0168010107d2090d04012d04486f737402808080800480a0808004",
    "0169010107d2090d05012e054255472829",
    "016a010107d2090d060009747261705f65786974316e6f207265636f726465642063616c6c20646174612028747261705f656e746572206e6f742064656c6976657265643f29",
    "016b010107d2090d070130034879700173",
    "016c010107d2090d08013108766d5b343039365d04626f6f6d",
    "016d010107d2090d09013210686f73745f756e73686172655f6879700180800202",
    "016e010107d2090d0a01338120078004",
    "016f010107d2090d0b01340080021e64657061727465642066726f6d20737461746520686f73745f6f776e6564",
    "0170010107d2090d0c01358102",
];

/// `novelty_signature` of the 13-report timeline.
const SIGNATURE: u64 = 0x72405759362f2899;

fn record(i: usize, v: Violation) -> EventRecord {
    EventRecord {
        seq: 100 + i as u64,
        lane: 1,
        trap: Some(7),
        t_ns: 1234,
        event: Event::Violation(Box::new(v)),
    }
}

fn trace(events: Vec<EventRecord>) -> CampaignTrace {
    CampaignTrace {
        config: MachineConfig::default(),
        oracle_opts: OracleOpts::default(),
        fault_bits: 0,
        chaos: None,
        seeds: vec![1],
        events,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_kind_renders_its_pinned_display_line() {
    let lines: Vec<String> = reports().iter().map(Violation::to_string).collect();
    assert_eq!(lines, LINES);
}

#[test]
fn every_kind_encodes_to_its_pinned_v6_bytes_and_round_trips() {
    assert_eq!(FORMAT_VERSION, 6);
    let empty = encode_trace(&trace(Vec::new()));
    let (header, terminator) = empty.split_at(empty.len() - 1);
    assert_eq!(hex(header), HEADER);
    for (i, v) in reports().into_iter().enumerate() {
        let one = trace(vec![record(i, v)]);
        let bytes = encode_trace(&one);
        assert_eq!(
            hex(&bytes),
            format!("{HEADER}{}{}", RECORDS[i], hex(terminator)),
            "{i}"
        );
        assert_eq!(decode_trace(&bytes).expect("decodes"), one, "{i}");
    }
}

#[test]
fn novelty_signature_over_every_kind_is_pinned() {
    let timeline: Vec<EventRecord> = reports()
        .into_iter()
        .enumerate()
        .map(|(i, v)| record(i, v))
        .collect();
    assert_eq!(novelty_signature(&timeline), SIGNATURE);
}
