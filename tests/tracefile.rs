//! The `.pkvmtrace` codec, end to end: round trips over real recorded
//! campaigns (clean and chaotic, across seeds), verdict preservation
//! through a save/load cycle, and the robustness guarantee — truncated
//! or bit-corrupted files fail with a clean error, never a panic.

use pkvm_repro::harness::campaign::{replay, CampaignCfg, CampaignTrace};
use pkvm_repro::harness::chaos::ChaosCfg;
use pkvm_repro::harness::tracefile::{
    compact_trace, decode_trace, encode_trace, load_trace, save_trace, CompactError,
    TraceFileError, TraceHeader, TraceReader, TraceWriter, FORMAT_VERSION, MAGIC,
};
use pkvm_repro::hyp::faults::{Fault, FaultSet};

fn record_campaign(seed: u64, chaotic: bool, fault: Option<Fault>) -> CampaignTrace {
    let mut b = CampaignCfg::builder()
        .workers(2)
        .steps_per_worker(150)
        .base_seed(seed)
        .stop_on_violation(false);
    if chaotic {
        b = b.chaos(
            ChaosCfg::builder()
                .seed(seed ^ 0xc4a0)
                .torn_read_once(0.1)
                .drop_lock_event(0.01)
                .dup_lock_event(0.01)
                .delay_hook(0.02)
                .alloc_chaos(0.1)
                .build(),
        );
    }
    if let Some(f) = fault {
        let faults = FaultSet::none();
        faults.inject(f);
        b = b.faults(&faults);
    }
    b.run().trace.expect("trace recorded")
}

/// The round-trip property over seeded campaigns: for clean and chaotic
/// runs alike, decode(encode(trace)) reproduces the trace exactly —
/// config, oracle switches, faults, chaos, seeds, and every event record
/// field for field.
#[test]
fn round_trip_preserves_clean_and_chaotic_campaigns_across_seeds() {
    for seed in 0..6u64 {
        let chaotic = seed % 2 == 1;
        let trace = record_campaign(0x70ac_e000 + seed, chaotic, None);
        assert!(
            !trace.events.is_empty(),
            "seed {seed}: campaign recorded nothing"
        );
        let decoded = decode_trace(&encode_trace(&trace)).expect("round trip decodes");
        assert_eq!(decoded, trace, "seed {seed} (chaotic={chaotic})");
    }
}

/// A violating campaign — a real injected hypervisor bug — survives the
/// trip through a file on disk: the loaded trace equals the recorded one
/// and replays to the identical verdict, violation kinds and event
/// sequence ids included.
#[test]
fn violating_trace_survives_disk_and_replays_to_the_same_verdict() {
    let trace = record_campaign(0x70ac_e100, true, Some(Fault::SynShareWrongState));
    let path =
        std::env::temp_dir().join(format!("pkvmtrace-test-{}.pkvmtrace", std::process::id()));
    save_trace(&path, &trace).expect("save");
    let loaded = load_trace(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, trace);

    let original = replay(&trace);
    let reloaded = replay(&loaded);
    assert!(original.violated(), "the injected bug must reproduce");
    assert_eq!(
        original.violations.len(),
        reloaded.violations.len(),
        "verdicts diverged through the file"
    );
    for (a, b) in original.violations.iter().zip(&reloaded.violations) {
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.event_seq(), b.event_seq());
    }
    assert_eq!(original.hyp_panic, reloaded.hyp_panic);
    assert_eq!(original.steps, reloaded.steps);
}

/// Format v3 carries the TLB-plane records: `Tlbi`/`Dsb`/`PteDowngrade`
/// events, the `StaleTlb` chaos tag with its `p_stale_tlb` knob, and the
/// `BreakBeforeMake` violation. A stale-chaos campaign and a
/// missing-TLBI campaign between them exercise every new tag; both must
/// survive the codec field for field.
#[test]
fn v3_tlb_records_round_trip() {
    use pkvm_repro::ghost::event::{ChaosKind, Event};

    // Clean hypervisor under stale-TLB chaos: the full invalidation
    // protocol is on the stream, plus the chaos injection tags.
    let chaotic = CampaignCfg::builder()
        .workers(2)
        .steps_per_worker(150)
        .base_seed(0x70ac_e400)
        .stop_on_violation(false)
        .chaos(ChaosCfg::builder().seed(0x57a1).stale_tlb(0.5).build())
        .run()
        .trace
        .expect("trace recorded");
    let has = |pred: &dyn Fn(&Event) -> bool| chaotic.events.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(e, Event::Tlbi { .. })), "no Tlbi event");
    assert!(has(&|e| matches!(e, Event::Dsb { .. })), "no Dsb event");
    assert!(
        has(&|e| matches!(e, Event::PteDowngrade { .. })),
        "no PteDowngrade event"
    );
    assert_eq!(
        chaotic.chaos.map(|c| c.p_stale_tlb),
        Some(0.5),
        "the stale knob travels in the config"
    );
    let decoded = decode_trace(&encode_trace(&chaotic)).expect("round trip decodes");
    assert_eq!(decoded, chaotic);

    // Missing-TLBI bug: the spec check's break-before-make verdict is a
    // recorded violation and must round trip with its anchoring seq.
    let faulted = record_campaign(0x70ac_e500, false, Some(Fault::SynMissingTlbi));
    assert!(
        faulted.events.iter().any(|r| matches!(
            &r.event,
            Event::Violation(v) if v.kind() == "break-before-make" && v.event_seq().is_some()
        )),
        "missing-TLBI campaign recorded no break-before-make violation"
    );
    let decoded = decode_trace(&encode_trace(&faulted)).expect("round trip decodes");
    assert_eq!(decoded, faulted);

    // The chaos stream itself tags each suppressed delivery.
    assert!(
        has(&|e| matches!(
            e,
            Event::Chaos {
                kind: ChaosKind::StaleTlb,
                ..
            }
        )),
        "no StaleTlb chaos tag on the chaotic stream"
    );
}

/// Robustness: every proper prefix of a valid file fails with a clean
/// [`TraceFileError`] — never a panic, never a silently short trace.
#[test]
fn every_truncation_fails_cleanly() {
    let trace = record_campaign(0x70ac_e200, true, None);
    let bytes = encode_trace(&trace);
    // Every prefix short enough to matter, then a coarse sweep.
    let cuts: Vec<usize> = (0..bytes.len().min(64))
        .chain((64..bytes.len()).step_by(97))
        .collect();
    for cut in cuts {
        match decode_trace(&bytes[..cut]) {
            Ok(_) => panic!("a {cut}-byte prefix of a {}-byte file decoded", bytes.len()),
            Err(
                TraceFileError::Truncated | TraceFileError::BadMagic | TraceFileError::Malformed(_),
            ) => {}
            Err(e) => panic!("unexpected error for {cut}-byte prefix: {e}"),
        }
    }
}

/// Robustness: flipping a byte anywhere in the file either still decodes
/// (the flip landed in a value, not the structure) or fails with a clean
/// error. It never panics and never decodes to the original trace when
/// the flip landed in the header.
#[test]
fn corrupted_bytes_never_panic_the_decoder() {
    let trace = record_campaign(0x70ac_e300, true, None);
    let bytes = encode_trace(&trace);
    for pos in (0..bytes.len()).step_by(13) {
        let mut evil = bytes.clone();
        evil[pos] ^= 0xa5;
        // Decoding must terminate without panicking; both outcomes fine.
        let _ = decode_trace(&evil);
    }
    // Header corruption specifically must be rejected, not reinterpreted.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        decode_trace(&bad_magic),
        Err(TraceFileError::BadMagic)
    ));
    let mut bad_version = bytes.clone();
    bad_version[MAGIC.len()] = (FORMAT_VERSION + 1) as u8;
    assert!(matches!(
        decode_trace(&bad_version),
        Err(TraceFileError::BadVersion(_))
    ));
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pkvmtrace-{tag}-{}.pkvmtrace", std::process::id()))
}

/// The streaming reader and the materialized loader are the same codec:
/// over clean, chaotic and violating campaigns across seeds, iterating a
/// [`TraceReader`] yields exactly the records `load_trace` materializes,
/// the header matches the trace's campaign configuration, and
/// `into_trace` reassembles the original trace field for field.
#[test]
fn streaming_reader_equals_materialized_loader_across_seeds() {
    let cases = [
        (0x5eed_0000u64, false, None),
        (0x5eed_0001, true, None),
        (0x5eed_0002, false, Some(Fault::SynShareWrongState)),
        (0x5eed_0003, true, Some(Fault::SynMissingTlbi)),
        (0x5eed_0004, true, None),
        (0x5eed_0005, false, Some(Fault::Bug1MemcacheAlignment)),
    ];
    for (i, (seed, chaotic, fault)) in cases.into_iter().enumerate() {
        let trace = record_campaign(seed, chaotic, fault);
        let path = temp_path(&format!("stream-eq-{i}"));
        save_trace(&path, &trace).expect("save");

        // Iterating streams exactly the materialized event list.
        let reader = TraceReader::open(&path).expect("open");
        assert_eq!(reader.header(), &TraceHeader::of(&trace));
        let streamed: Vec<_> = reader.map(|r| r.expect("record decodes")).collect();
        assert_eq!(streamed, trace.events, "case {i}");

        // And reassembling gives back load_trace's (and the original) trace.
        let materialized = load_trace(&path).expect("load");
        let reassembled = TraceReader::open(&path)
            .and_then(TraceReader::into_trace)
            .expect("into_trace");
        let _ = std::fs::remove_file(&path);
        assert_eq!(materialized, trace, "case {i}");
        assert_eq!(reassembled, trace, "case {i}");
    }
}

/// Streaming truncation semantics: every proper prefix of a valid file
/// either fails to open (the cut landed in the header) or streams some
/// records and then a typed error — and the records streamed before the
/// error are a *prefix of the true event list*, never garbage. After the
/// error the iterator is fused.
#[test]
fn every_truncation_streams_a_clean_prefix_then_a_typed_error() {
    let trace = record_campaign(0x5eed_0100, true, None);
    let bytes = encode_trace(&trace);
    let cuts: Vec<usize> = (0..bytes.len().min(64))
        .chain((64..bytes.len()).step_by(97))
        .collect();
    for cut in cuts {
        let mut reader = match TraceReader::from_bytes(&bytes[..cut]) {
            Ok(r) => r,
            Err(
                TraceFileError::Truncated | TraceFileError::BadMagic | TraceFileError::Malformed(_),
            ) => continue,
            Err(e) => panic!("unexpected open error for {cut}-byte prefix: {e}"),
        };
        let mut streamed = 0usize;
        loop {
            match reader.next() {
                Some(Ok(rec)) => {
                    assert_eq!(
                        Some(&rec),
                        trace.events.get(streamed),
                        "cut {cut}: record {streamed} is not a prefix of the true events"
                    );
                    streamed += 1;
                }
                Some(Err(
                    TraceFileError::Truncated
                    | TraceFileError::Malformed(_)
                    | TraceFileError::Io(_),
                )) => break,
                Some(Err(e)) => panic!("unexpected stream error at cut {cut}: {e}"),
                None => panic!(
                    "a {cut}-byte prefix of a {}-byte file streamed to a clean end",
                    bytes.len()
                ),
            }
        }
        assert!(reader.next().is_none(), "cut {cut}: iterator not fused");
        assert!(
            streamed < trace.events.len() || cut < bytes.len(),
            "cut {cut} streamed every event from a truncated file"
        );
    }
}

/// Flipping a byte anywhere never panics the streaming reader: it either
/// still streams (the flip landed in a value) or stops at a typed error,
/// and in both cases the iterator terminates and fuses.
#[test]
fn corrupted_bytes_never_panic_the_streaming_reader() {
    let trace = record_campaign(0x5eed_0200, true, None);
    let bytes = encode_trace(&trace);
    for pos in (0..bytes.len()).step_by(13) {
        let mut evil = bytes.clone();
        evil[pos] ^= 0xa5;
        let Ok(mut reader) = TraceReader::from_bytes(&evil) else {
            continue;
        };
        let mut errored = false;
        // Bounded: a corrupt stream must still terminate promptly.
        for _ in 0..=trace.events.len() + 1 {
            match reader.next() {
                Some(Ok(_)) => assert!(!errored, "pos {pos}: record after error"),
                Some(Err(_)) => errored = true,
                None => break,
            }
        }
        assert!(reader.next().is_none(), "pos {pos}: iterator not fused");
    }
}

/// The incremental writer is the one-shot encoder: appending records one
/// at a time and finishing produces a byte-identical file, while
/// dropping an unfinished writer aborts cleanly — no destination file,
/// no leaked temp file.
#[test]
fn trace_writer_matches_the_one_shot_encoder_and_aborts_cleanly() {
    let trace = record_campaign(0x5eed_0300, true, None);
    let path = temp_path("writer-eq");
    let header = TraceHeader::of(&trace);

    let mut w = TraceWriter::create(&path, &header).expect("create");
    for rec in &trace.events {
        w.append(rec).expect("append");
    }
    assert_eq!(w.events_written(), trace.events.len() as u64);
    w.finish().expect("finish");
    let written = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        written,
        encode_trace(&trace),
        "writer diverged from encoder"
    );

    // Abort: drop without finish().
    let abort_path = temp_path("writer-abort");
    {
        let mut w = TraceWriter::create(&abort_path, &header).expect("create");
        w.append(&trace.events[0]).expect("append");
    }
    assert!(!abort_path.exists(), "aborted writer left the destination");
    let leaked: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("writer-abort") && n.contains("wtmp"))
        .collect();
    assert!(
        leaked.is_empty(),
        "aborted writer leaked temp files: {leaked:?}"
    );
}

/// Compacting away observation-only families preserves the correctness
/// witness: the compacted trace replays to the identical verdict —
/// violation kinds, anchoring event seqs, panic and step count — and
/// every recorded violation survives with its original global seq.
#[test]
fn compaction_preserves_verdict_and_violation_anchors() {
    use pkvm_repro::ghost::event::Event;

    let trace = record_campaign(0x5eed_0400, true, Some(Fault::SynShareWrongState));
    let src = temp_path("compact-src");
    let dst = temp_path("compact-dst");
    save_trace(&src, &trace).expect("save");

    let drop = [
        "read-once",
        "lock-acquired",
        "lock-releasing",
        "trap-enter",
        "trap-exit",
        "chaos",
        "check",
    ];
    let stats = compact_trace(&src, &dst, &drop).expect("compact");
    assert!(stats.dropped > 0, "the chaotic trace had nothing to drop");
    assert_eq!(stats.kept + stats.dropped, trace.events.len() as u64);

    let compacted = load_trace(&dst).expect("load compacted");
    let _ = std::fs::remove_file(&src);
    let _ = std::fs::remove_file(&dst);
    assert!(compacted
        .events
        .iter()
        .all(|r| !drop.contains(&r.event.family())));

    // Violation records survive with their original seqs.
    let viol_seqs = |t: &CampaignTrace| -> Vec<u64> {
        t.events
            .iter()
            .filter(|r| matches!(r.event, Event::Violation(_)))
            .map(|r| r.seq)
            .collect()
    };
    assert_eq!(viol_seqs(&compacted), viol_seqs(&trace));

    // And the replayed verdict is bit-for-bit the original's.
    let original = replay(&trace);
    let shrunk = replay(&compacted);
    assert!(original.violated(), "the injected bug must reproduce");
    assert_eq!(original.violations.len(), shrunk.violations.len());
    for (a, b) in original.violations.iter().zip(&shrunk.violations) {
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.event_seq(), b.event_seq());
    }
    assert_eq!(original.hyp_panic, shrunk.hyp_panic);
    assert_eq!(original.steps, shrunk.steps);
}

/// Compaction refuses to touch what replay needs: dropping a
/// replay-critical family or an unknown family is a typed error and the
/// destination file is never created.
#[test]
fn compaction_refuses_replay_critical_and_unknown_families() {
    let trace = record_campaign(0x5eed_0500, false, None);
    let src = temp_path("refuse-src");
    let dst = temp_path("refuse-dst");
    save_trace(&src, &trace).expect("save");

    for critical in [
        "hvc",
        "write-mem",
        "corrupt-mem",
        "host-access",
        "push-guest-op",
        "violation",
    ] {
        match compact_trace(&src, &dst, &[critical]) {
            Err(CompactError::ReplayCritical(f)) => assert_eq!(f, critical),
            other => panic!("dropping {critical} was not refused: {other:?}"),
        }
        assert!(!dst.exists(), "{critical}: refusal still created the dst");
    }
    match compact_trace(&src, &dst, &["read-once", "not-a-family"]) {
        Err(CompactError::UnknownFamily(f)) => assert_eq!(f, "not-a-family"),
        other => panic!("an unknown family was not refused: {other:?}"),
    }
    assert!(!dst.exists());
    let _ = std::fs::remove_file(&src);
}

/// Appends `v` as an LEB128 varint, the codec's integer encoding.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The version gate: a file in the previous format is refused with a
/// typed error, never misparsed. The v5 layout is rebuilt from a real
/// recording by stamping the old version and re-inserting the three
/// spec-check booleans that followed the oracle section. Read as the
/// current format, those bytes would land in the fault and chaos fields.
#[test]
fn previous_format_version_is_refused_not_misparsed() {
    let trace = record_campaign(0x0005_f0a7, false, None);
    let current = encode_trace(&trace);

    // Everything up to the end of the header's oracle section.
    let mut head = MAGIC.to_vec();
    varint(&mut head, FORMAT_VERSION);
    let c = &trace.config;
    varint(&mut head, c.nr_cpus as u64);
    for regions in [&c.dram, &c.mmio] {
        varint(&mut head, regions.len() as u64);
        for &(base, size) in regions.iter() {
            varint(&mut head, base);
            varint(&mut head, size);
        }
    }
    varint(&mut head, c.hyp_pool_pages);
    let o = &trace.oracle_opts;
    for b in [
        o.check_noninterference,
        o.check_separation,
        o.incremental_abstraction,
        o.shadow_validation,
    ] {
        head.push(b as u8);
    }
    varint(&mut head, o.violation_cap as u64);
    varint(&mut head, o.trap_check_budget);
    varint(&mut head, o.quarantine_threshold as u64);
    varint(&mut head, o.quarantine_traps);
    assert_eq!(current[..head.len()], head[..], "header layout model");

    let mut v5 = current.clone();
    v5[MAGIC.len()] = (FORMAT_VERSION - 1) as u8;
    v5.splice(head.len()..head.len(), [1u8, 1, 1]);
    let refused = |r: Result<_, TraceFileError>| matches!(r, Err(TraceFileError::BadVersion(v)) if v == FORMAT_VERSION - 1);
    assert!(refused(decode_trace(&v5).map(drop)));
    assert!(refused(TraceReader::from_bytes(&v5).map(drop)));
    let path = temp_path("v5");
    std::fs::write(&path, &v5).expect("write v5 file");
    assert!(refused(load_trace(&path).map(drop)));
    assert!(refused(TraceReader::open(&path).map(drop)));
    let _ = std::fs::remove_file(&path);

    // The gate is load-bearing: the same bytes stamped as the current
    // version never decode to the recorded trace.
    let mut relabelled = v5;
    relabelled[MAGIC.len()] = FORMAT_VERSION as u8;
    if let Ok(misread) = decode_trace(&relabelled) {
        assert_ne!(misread, trace);
    }
}
