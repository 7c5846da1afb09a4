//! Self-tests of the benchmark: seeded inputs, the metric contract of
//! `BENCHMARK.json`, and a held-out seed that must run clean.

use std::path::PathBuf;

use oraclebench::ledger::Family;
use oraclebench::replay::{replay, Mode};
use oraclebench::workload::{digest, run, Cfg, WORKLOADS};

/// Generator steps for the tiny passes (debug builds are slow).
const TINY_STEPS: u64 = 150;

/// Names and units of one metric list in `BENCHMARK.json`, parsed with
/// just enough JSON to read this one file.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("oraclebench-{tag}"));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

#[test]
fn schedules_repeat_per_seed_and_differ_across_seeds() {
    for w in &WORKLOADS {
        let a = w.episode(7, 1, TINY_STEPS).expect("episode");
        let b = w.episode(7, 1, TINY_STEPS).expect("episode");
        assert_eq!(a.schedule, b.schedule, "{}: two generations differ", w.name);
        assert_eq!(digest(&a.schedule), digest(&b.schedule));
        let c = w.episode(8, 1, TINY_STEPS).expect("episode");
        assert_ne!(
            digest(&a.schedule),
            digest(&c.schedule),
            "{}: seeds 7 and 8 gave the same schedule",
            w.name
        );
        let canonical = w.episode(9, 0, TINY_STEPS).expect("episode");
        assert_eq!(
            canonical.schedule,
            w.episode(10, 0, TINY_STEPS).expect("episode").schedule,
            "{}: episode 0 is the canonical schedule under every seed",
            w.name
        );
    }
}

#[test]
fn a_tiny_pass_of_every_workload_emits_every_listed_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let work = work_dir("tiny");
    for w in &WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let cfg = Cfg {
                seed: 3,
                seconds: 0.01,
                trace,
                steps: Some(TINY_STEPS),
            };
            let report = run(w, &cfg, &work);
            assert!(
                report.failures.is_empty(),
                "{} (trace {trace}): {:?}",
                w.name,
                report.failures
            );
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, expected, "{} (trace {trace})", w.name);
            assert!(report.json().starts_with("{\"correct\": true"));
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_held_out_seed_runs_clean_in_every_mode() {
    const HELD_OUT: u64 = 0x05ee_d0ff;
    for w in &WORKLOADS {
        let ep = w.episode(HELD_OUT, 1, 600).expect("episode");
        assert!(!ep.schedule.events.is_empty());
        let mut verdicts = Vec::new();
        for mode in [Mode::Unchecked, Mode::Inline, Mode::Cached, Mode::Pipelined] {
            let r = replay(&ep.schedule, mode, false);
            assert!(r.panic.is_none(), "{} {mode:?}: {:?}", w.name, r.panic);
            assert_eq!(r.events, ep.schedule.events.len() as u64);
            if let Some(v) = r.verdict {
                assert!(
                    v.violations.is_empty(),
                    "{} {mode:?}: {:?}",
                    w.name,
                    v.violations
                );
                assert_eq!(v.stats.degraded_traps, 0);
                verdicts.push((v.stats.traps_checked, v.stats.traps_unchecked));
            }
        }
        assert!(verdicts.windows(2).all(|p| p[0] == p[1]), "{verdicts:?}");
    }
}

#[test]
fn traced_replay_accounts_every_event_nanosecond_and_changes_no_verdict() {
    let w = &WORKLOADS[1];
    let ep = w.episode(5, 1, 400).expect("episode");
    let plain = replay(&ep.schedule, Mode::Cached, false);
    let traced = replay(&ep.schedule, Mode::Cached, true);
    let spans = traced.traced.expect("spans");
    assert_eq!(spans.event_ns.len(), ep.schedule.events.len());
    let l = &spans.ledger;
    let calls = |f: Family| l.calls[f as usize];
    assert!(calls(Family::TrapEnter) > 0);
    assert_eq!(calls(Family::TrapEnter), calls(Family::TrapExit));
    assert!(calls(Family::LockAcquired) > 0);
    assert_eq!(calls(Family::LockAcquired), calls(Family::LockReleasing));
    // Hook spans plus self time partition the event spans exactly.
    let hooks: u64 = l.ns.iter().sum();
    assert_eq!(hooks + l.self_ns, spans.event_ns.iter().sum::<u64>());
    assert_eq!(
        plain.verdict.map(|v| v.stats.traps_checked),
        traced.verdict.map(|v| v.stats.traps_checked)
    );
}
