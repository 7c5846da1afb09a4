//! End-to-end tests of the chaos engine and the oracle's fail-safe
//! guarantees: the zero-intensity equivalence property, the
//! panic-safety sweep over every hypervisor fault and chaos family,
//! deterministic replay of chaotic campaigns, and graceful degradation
//! under per-trap check budgets.

use pkvm_repro::ghost::oracle::OracleOpts;
use pkvm_repro::harness::campaign::{replay, CampaignCfg};
use pkvm_repro::harness::chaos::{ChaosCfg, ChaosFamily};
use pkvm_repro::hyp::faults::{Fault, FaultSet};

/// Satellite (c): a chaos-*disabled* campaign on the clean hypervisor,
/// across many seeds, sees zero violations and none of the resilience
/// machinery firing — the containment layer costs nothing and changes
/// nothing when the world behaves. An *inert* chaos config (all
/// probabilities zero) must be indistinguishable from no chaos at all.
#[test]
fn thirty_two_seeds_of_clean_campaign_stay_clean_and_undegraded() {
    for seed in 0..32u64 {
        let chaotic = seed % 2 == 1;
        let mut b = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(120)
            .base_seed(0x5eed_0000 + seed)
            .record_trace(false);
        if chaotic {
            // Odd seeds run through the full chaos plumbing with every
            // probability at zero: the decorator must be transparent.
            let inert = ChaosCfg::default();
            assert!(inert.is_inert());
            b = b.chaos(inert);
        }
        let report = b.run();
        assert!(
            report.is_clean(),
            "seed {seed} (inert chaos: {chaotic}): {}\n{:?}",
            report.render(),
            report.violations
        );
        let r = report.oracle_stats;
        assert_eq!(r.contained_panics, 0, "seed {seed}: contained panics");
        assert_eq!(r.quarantined_skips, 0, "seed {seed}: quarantine fired");
        assert_eq!(r.violations_dropped, 0, "seed {seed}: violations dropped");
        assert_eq!(r.budget_degraded_events, 0, "seed {seed}: budget fired");
        assert_eq!(r.degraded_traps, 0, "seed {seed}: degraded traps");
        if chaotic {
            assert_eq!(
                report.chaos_injected.map(|c| c.total()),
                Some(0),
                "seed {seed}: inert chaos injected something"
            );
        }
    }
}

/// Satellite (d): sweep every hypervisor fault and every chaos family;
/// whatever happens — detection, degradation, even an implementation
/// crash under memory corruption — the oracle itself never panics. The
/// campaign machinery catches worker panics; this wraps each whole run
/// in `catch_unwind` as well, so an abort-level escape in the oracle's
/// bookkeeping would fail the test rather than the process.
#[test]
fn fault_and_chaos_sweep_never_panics_the_oracle() {
    let families = ChaosFamily::ALL;
    // Every fault, each paired with a rotating chaos family, plus every
    // family alone on the clean hypervisor.
    let mut cells: Vec<(Option<Fault>, Option<ChaosFamily>)> = Fault::ALL
        .iter()
        .enumerate()
        .map(|(i, &f)| (Some(f), Some(families[i % families.len()])))
        .collect();
    cells.extend(families.iter().map(|&fam| (None, Some(fam))));
    for (i, (fault, family)) in cells.into_iter().enumerate() {
        let result = std::panic::catch_unwind(move || {
            let set = FaultSet::none();
            if let Some(f) = fault {
                set.inject(f);
            }
            let mut b = CampaignCfg::builder()
                .workers(2)
                .steps_per_worker(120)
                .base_seed(0xf417 + i as u64)
                .stop_on_violation(false)
                .record_trace(false)
                .faults(&set);
            if let Some(fam) = family {
                b = b.chaos(ChaosCfg::only(fam).reseeded(0xc4a0 + i as u64));
            }
            b.run()
        });
        let report = result.unwrap_or_else(|_| {
            panic!("campaign for {fault:?} + {family:?} panicked out of run()")
        });
        // Worker panics (implementation crashes under injected faults or
        // bit flips) are caught and reported — that is the honest
        // verdict for those cells. What must hold everywhere: the run
        // completed with every worker accounted for, and any panic that
        // did occur came from the implementation, not the oracle.
        assert_eq!(report.workers.len(), 2, "{fault:?} + {family:?}");
        for w in &report.workers {
            if let Some(p) = &w.panicked {
                assert!(
                    !p.contains("oracle") && !p.contains("abstraction"),
                    "{fault:?} + {family:?}: worker panic smells oracle-side: {p}"
                );
            }
        }
    }
}

/// The stale-TLB chaos family perturbs the machine's TLB below the hook
/// stream: broadcast invalidations are delayed or dropped on remote
/// CPUs, but the hypervisor's own downgrade/TLBI/DSB sequence reaches
/// the oracle intact. So whatever the staleness does to behaviour, the
/// break-before-make spec check must never blame the hypervisor for it.
#[test]
fn stale_tlb_chaos_never_fabricates_break_before_make() {
    for seed in 0..8u64 {
        let report = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(150)
            .base_seed(0x57a1_0000 + seed)
            .stop_on_violation(false)
            .record_trace(false)
            .chaos(ChaosCfg::only(ChaosFamily::StaleTlb).reseeded(0x57a1 + seed))
            .run();
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.kind() != "break-before-make"),
            "seed {seed}: stale-tlb chaos fabricated a break-before-make verdict:\n{:?}",
            report.violations
        );
    }
}

/// The acceptance criterion's replay clause: a violating *chaotic*
/// campaign replays deterministically from its recorded seed and
/// schedule alone — twice, with identical outcomes.
#[test]
fn violating_chaotic_campaign_replays_deterministically() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareWrongState);
    let chaos = ChaosCfg::builder()
        .seed(0x0dd5)
        .torn_read_once(0.05)
        .drop_lock_event(0.01)
        .delay_hook(0.02)
        .alloc_chaos(0.05)
        .build();
    let report = CampaignCfg::builder()
        .workers(2)
        .steps_per_worker(400)
        .base_seed(0xb0b1)
        .faults(&faults)
        .chaos(chaos)
        .run();
    assert!(
        !report.is_clean(),
        "injected bug went unnoticed under chaos"
    );
    let trace = report.trace.expect("trace recorded");
    assert_eq!(
        trace.chaos,
        Some(chaos),
        "chaos config travels in the trace"
    );
    let once = replay(&trace);
    let twice = replay(&trace);
    assert!(once.violated(), "replay lost the violation");
    assert_eq!(once.violations.len(), twice.violations.len());
    assert_eq!(once.hyp_panic, twice.hyp_panic);
    assert_eq!(once.steps, twice.steps);
}

/// Per-trap check budgets degrade expensive checking into counted
/// `Unchecked` outcomes: with a tiny budget the campaign stays
/// violation-free on a clean hypervisor, and the degradation is visible
/// in the stats rather than silent.
#[test]
fn tiny_trap_budget_degrades_gracefully_not_wrongly() {
    let opts = OracleOpts::builder().trap_check_budget(1).build();
    let report = CampaignCfg::builder()
        .workers(2)
        .steps_per_worker(200)
        .base_seed(0xb4d6)
        .oracle_opts(opts)
        .record_trace(false)
        .run();
    assert!(
        report.is_clean(),
        "budget degradation caused spurious violations: {}\n{:?}",
        report.render(),
        report.violations
    );
    let r = report.oracle_stats;
    assert!(
        r.budget_degraded_events > 0 || r.degraded_traps > 0,
        "budget of 1 event per trap never degraded anything: {r:?}"
    );
}
