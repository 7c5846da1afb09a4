//! The workloads and the run that measures one of them.
//!
//! A run draws *episodes*: episode 0 is the workload's canonical
//! schedule (its base seed, the same under every `--seed`), episode
//! `j > 0` is generated at `worker_seed(base + seed, j)`. One schedule's
//! cost depends heavily on where its random walk went (how large the
//! memcaches and stage 2 tables grew), so every metric aggregates over as
//! many episodes as the time budget allows. The budget is shared by three
//! interleaved phases, each with its own run of episodes from 0:
//!
//! 1. **checked**: each episode replayed inline, cached and pipelined
//!    (and, in a traced run, once more of each through the timing
//!    decorator);
//! 2. **unchecked**: each episode replayed with `NoHooks`;
//! 3. **matrix**: the differential matrix over each episode's trace
//!    file (the whole campaign for `diff-matrix`, the first
//!    `matrix_events` driver events otherwise).
//!
//! Generating an episode is its set-up, timed apart from the phases.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pkvm_ghost::event::EventRecord;
use pkvm_ghost::oracle::OracleOpts;
use pkvm_harness::campaign::{worker_seed, CampaignTrace};
use pkvm_harness::differential::{differential_matrix, DiffMatrix};

use crate::ledger::{Family, HookLedger};
use crate::matrix::timed_matrix;
use crate::replay::{replay, Mode, Replay, Verdict};
use crate::report::{median, quantile, Report};
use crate::schedule::{generate, record_campaign, write_trace, EncodeCost, Mix, Schedule};

/// Where a workload's schedules come from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A single-threaded `RandomTester` with this call mix.
    Random(Mix),
    /// A clean one-worker `CampaignCfg` campaign, default mix.
    Campaign,
}

/// One workload: a schedule source, an episode size and how the time
/// budget is shared between the phases.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Schedule source.
    pub source: Source,
    /// Base seed (`--seed` is added to it).
    pub base_seed: u64,
    /// Generator steps per episode.
    pub steps: u64,
    /// Driver events of each episode the matrix replays (`None`: all).
    pub matrix_events: Option<usize>,
    /// Shares of the timed budget: checked, unchecked, matrix.
    pub split: [f64; 3],
    /// Fault rows the canonical episode's matrix must detect.
    pub min_detected: usize,
}

/// Every workload.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "e12-random",
        source: Source::Random(Mix::Default),
        base_seed: 0xe12,
        steps: 5_000,
        matrix_events: Some(500),
        split: [0.55, 0.25, 0.2],
        min_detected: 0,
    },
    Workload {
        name: "android-churn",
        source: Source::Random(Mix::Android),
        base_seed: 0xe16,
        steps: 4_000,
        matrix_events: Some(500),
        split: [0.55, 0.25, 0.2],
        min_detected: 0,
    },
    Workload {
        name: "diff-matrix",
        source: Source::Campaign,
        base_seed: 0x42,
        steps: 2_500,
        matrix_events: None,
        split: [0.2, 0.1, 0.7],
        min_detected: 14,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated schedule, plus the campaign it was recorded from.
#[derive(Clone, Debug)]
pub struct Episode {
    /// The replayable driver events.
    pub schedule: Schedule,
    /// The recorded campaign (campaign-sourced workloads only).
    pub campaign: Option<CampaignTrace>,
}

impl Workload {
    /// The generator seed of episode `j` under `--seed seed`. Episode 0
    /// is the workload's canonical schedule, the same under every seed;
    /// the rest are drawn from the seed.
    pub fn episode_seed(&self, seed: u64, j: usize) -> u64 {
        match j {
            0 => self.base_seed,
            _ => worker_seed(self.base_seed.wrapping_add(seed), j),
        }
    }

    /// Generates episode `j`.
    ///
    /// # Errors
    ///
    /// A recording campaign that was not clean.
    pub fn episode(&self, seed: u64, j: usize, steps: u64) -> Result<Episode, String> {
        let s = self.episode_seed(seed, j);
        match self.source {
            Source::Random(mix) => Ok(Episode {
                schedule: generate(mix, s, steps),
                campaign: None,
            }),
            Source::Campaign => {
                let trace = record_campaign(s, steps)
                    .ok_or_else(|| format!("episode {j}: recording campaign was not clean"))?;
                Ok(Episode {
                    schedule: Schedule::of_trace(&trace),
                    campaign: Some(trace),
                })
            }
        }
    }

    /// The campaign trace the matrix replays for `ep`: the recorded
    /// campaign, or a clean trace of the schedule's first
    /// `matrix_events` driver events.
    fn matrix_trace(&self, ep: &Episode, seed: u64) -> CampaignTrace {
        if let Some(t) = &ep.campaign {
            return t.clone();
        }
        let n = self.matrix_events.unwrap_or(usize::MAX);
        CampaignTrace {
            config: ep.schedule.config.clone(),
            oracle_opts: OracleOpts::default(),
            fault_bits: 0,
            chaos: None,
            seeds: vec![seed],
            events: ep
                .schedule
                .events
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, e)| EventRecord {
                    seq: i as u64,
                    lane: 0,
                    trap: None,
                    t_ns: 0,
                    event: e.clone(),
                })
                .collect(),
        }
    }
}

/// FNV-1a over the schedule's debug rendering: equal digests for equal
/// schedules, for the determinism check.
pub fn digest(s: &Schedule) -> u64 {
    let text = format!("{:?}", s);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the timed budget, shared by the three phases.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Generator steps per episode, overriding the workload's (the
    /// self-tests' tiny passes).
    pub steps: Option<u64>,
}

/// Event count and time of a group of replays.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    events: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, events: u64, ns: u64) {
        self.events += events;
        self.ns += ns;
    }

    fn eps(&self) -> f64 {
        self.events as f64 * 1e9 / self.ns.max(1) as f64
    }

    fn ns_per_event(&self) -> f64 {
        self.ns as f64 / self.events.max(1) as f64
    }
}

/// Per checked mode accumulators.
#[derive(Clone, Debug, Default)]
struct ModeAcc {
    /// Events of every traced replay.
    events: u64,
    ledger: HookLedger,
    event_ns: Vec<f64>,
}

/// Everything the phases accumulate.
#[derive(Debug, Default)]
struct Acc {
    /// Replay tallies. Slot 0 is unchecked, slots 1..=3 follow
    /// [`Mode::CHECKED`], slots 4..=6 are their traced replays.
    tallies: [Tally; 7],
    modes: [ModeAcc; 3],
    quarters: [u64; 4],
    lag_max: u64,
    lag_sum: u64,
    lag_samples: u64,
    drain_ms: Vec<f64>,
    /// Episode 0's cached verdict (exact counts).
    counts0: Option<Verdict>,
    /// Episode 0's hook calls, traced cached run.
    calls0: Option<[u64; Family::ALL.len()]>,
    matrix_s: Vec<f64>,
    decode: Tally,
    boot_ms: Vec<f64>,
    clean_rows: Tally,
    fault_rows: Tally,
    matrix0: Option<DiffMatrix>,
    detected: Vec<f64>,
    peak_rss_mb: f64,
    encode: EncodeCost,
    episodes: [usize; 3],
}

struct Run<'a> {
    w: &'a Workload,
    cfg: &'a Cfg,
    steps: u64,
    work: &'a Path,
    report: Report,
    setup_s: Vec<f64>,
    digests: HashMap<usize, u64>,
    events0: u64,
    acc: Acc,
}

/// Runs workload `w` under `cfg`, using `work` for trace files, and
/// returns its report. Every check that fails is a failure in the
/// report; nothing is skipped.
pub fn run(w: &Workload, cfg: &Cfg, work: &Path) -> Report {
    let mut run = Run {
        w,
        cfg,
        steps: cfg.steps.unwrap_or(w.steps),
        work,
        report: Report::default(),
        setup_s: Vec::new(),
        digests: HashMap::new(),
        events0: 0,
        acc: Acc::default(),
    };
    run.interleave();
    if cfg.trace {
        run.per_layer_metrics();
    } else {
        run.end_to_end_metrics();
    }
    run.report
}

impl Run<'_> {
    /// Runs the three phases' episodes interleaved until the budget is
    /// spent, each phase's next episode going to whichever phase is
    /// furthest behind its share. Interleaving spreads every metric over
    /// the whole run, so a slow stretch of the machine hits all of them
    /// alike instead of whichever phase happened to run then. The
    /// checked phase goes first: peak RSS is read during its canonical
    /// episode.
    fn interleave(&mut self) {
        let budget = Duration::from_secs_f64(self.cfg.seconds);
        let start = Instant::now();
        let mut spent = [0.0f64; 3];
        while self.acc.episodes.contains(&0) || start.elapsed() < budget {
            let i = (0..3)
                .min_by(|&a, &b| {
                    (spent[a] / self.w.split[a]).total_cmp(&(spent[b] / self.w.split[b]))
                })
                .expect("three phases");
            let t = Instant::now();
            let j = self.acc.episodes[i];
            if let Some(ep) = self.setup(j) {
                match i {
                    0 => self.checked(j, &ep),
                    1 => self.unchecked(j, &ep),
                    _ => self.matrix(j, &ep),
                }
            }
            self.acc.episodes[i] += 1;
            spent[i] += t.elapsed().as_secs_f64();
        }
    }

    fn tally(&mut self, slot: usize, r: &Replay) {
        self.acc.tallies[slot].add(r.events, r.ns);
    }

    /// Generates episode `j`, timing it as one set-up, and checks that
    /// it is identical to the previous generation of episode `j`.
    fn setup(&mut self, j: usize) -> Option<Episode> {
        let t = Instant::now();
        let ep = match self.w.episode(self.cfg.seed, j, self.steps) {
            Ok(ep) => ep,
            Err(e) => {
                self.report.failures.push(e);
                return None;
            }
        };
        if let Some(trace) = &ep.campaign {
            let path = self.trace_path(j);
            match write_trace(&path, trace) {
                Ok(c) => self.acc.encode.add(c),
                Err(e) => self
                    .report
                    .failures
                    .push(format!("episode {j}: write: {e}")),
            }
        }
        self.setup_s.push(t.elapsed().as_secs_f64());
        let d = digest(&ep.schedule);
        let first = *self.digests.entry(j).or_insert(d);
        self.report.check(first == d, || {
            format!("episode {j}: two generations of one seed differ")
        });
        if j == 0 {
            self.events0 = ep.schedule.events.len() as u64;
        }
        Some(ep)
    }

    fn trace_path(&self, j: usize) -> PathBuf {
        self.work.join(format!("{}-{j}.pkvmtrace", self.w.name))
    }

    /// Counts the replay's events as attempted and its failed checks.
    fn check_replay(&mut self, j: usize, ep: &Episode, mode: Mode, r: &Replay) {
        let n = ep.schedule.events.len() as u64;
        let what = format!("episode {j} {}", mode.name());
        self.report.attempted += n;
        if let Some(p) = &r.panic {
            self.report
                .failures
                .push(format!("{what}: hypervisor panic: {p}"));
        } else {
            self.report.check(r.events == n, || {
                format!("{what}: ran {} of {n} events", r.events)
            });
        }
        if let Some(v) = &r.verdict {
            for (kind, seq) in &v.violations {
                self.report
                    .failures
                    .push(format!("{what}: violation {kind} at {seq:?}"));
            }
            let s = &v.stats;
            for _ in 0..(s.degraded_traps + s.quarantined_skips + s.contained_panics) {
                self.report
                    .failures
                    .push(format!("{what}: trap degraded or quarantined"));
            }
        }
    }

    fn unchecked(&mut self, j: usize, ep: &Episode) {
        let r = replay(&ep.schedule, Mode::Unchecked, false);
        self.check_replay(j, ep, Mode::Unchecked, &r);
        self.tally(0, &r);
    }

    fn checked(&mut self, j: usize, ep: &Episode) {
        let mut verdicts = Vec::new();
        let mut calls = Vec::new();
        // Rotate the order so drift over the phase spreads evenly.
        for k in 0..3 {
            let m = (j + k) % 3;
            let mode = Mode::CHECKED[m];
            if j == 0 && mode == Mode::Pipelined {
                // Peak RSS is read once the canonical episode (the same
                // under every seed) has run inline and cached: the
                // pipelined checker's queue depth, and with it its memory,
                // depends on thread timing.
                self.acc.peak_rss_mb = peak_rss_mb();
            }
            let r = replay(&ep.schedule, mode, false);
            self.check_replay(j, ep, mode, &r);
            self.tally(m + 1, &r);
            if mode == Mode::Cached {
                for (q, ns) in r.quarter_ns.iter().enumerate() {
                    self.acc.quarters[q] += ns;
                }
                if j == 0 {
                    self.acc.counts0 = r.verdict.clone();
                }
            }
            if let Some(l) = r.lag {
                self.acc.lag_max = self.acc.lag_max.max(l.max);
                self.acc.lag_sum += l.sum;
                self.acc.lag_samples += l.samples;
                self.acc.drain_ms.push(r.drain_ns as f64 / 1e6);
            }
            verdicts.push((mode, r.verdict));
            if self.cfg.trace {
                let t = replay(&ep.schedule, mode, true);
                self.check_replay(j, ep, mode, &t);
                self.tally(m + 4, &t);
                let acc = &mut self.acc.modes[m];
                acc.events += t.events;
                let traced = t.traced.expect("traced replay carries spans");
                for f in 0..Family::ALL.len() {
                    acc.ledger.ns[f] += traced.ledger.ns[f];
                    acc.ledger.calls[f] += traced.ledger.calls[f];
                }
                acc.ledger.self_ns += traced.ledger.self_ns;
                acc.event_ns
                    .extend(traced.event_ns.iter().map(|&ns| ns as f64));
                if mode == Mode::Cached && j == 0 {
                    self.acc.calls0 = Some(traced.ledger.calls);
                }
                calls.push((mode, traced.ledger.calls));
                verdicts.push((mode, t.verdict));
            }
        }
        let key = |v: &Option<Verdict>| {
            v.as_ref().map(|v| {
                (
                    v.stats.traps_checked,
                    v.stats.traps_unchecked,
                    v.violations.clone(),
                )
            })
        };
        let first = key(&verdicts[0].1);
        for (mode, v) in &verdicts[1..] {
            self.report.check(key(v) == first, || {
                format!(
                    "episode {j}: {} verdict differs from {}",
                    mode.name(),
                    verdicts[0].0.name()
                )
            });
        }
        for (mode, c) in calls.iter().skip(1) {
            self.report.check(*c == calls[0].1, || {
                format!("episode {j}: {} hook calls differ", mode.name())
            });
        }
    }

    fn matrix(&mut self, j: usize, ep: &Episode) {
        let path = self.trace_path(j);
        if ep.campaign.is_none() {
            let seed = self.w.episode_seed(self.cfg.seed, j);
            match write_trace(&path, &self.w.matrix_trace(ep, seed)) {
                Ok(c) => self.acc.encode.add(c),
                Err(e) => {
                    self.report
                        .failures
                        .push(format!("episode {j}: write: {e}"));
                    return;
                }
            }
        }
        let t = Instant::now();
        let computed = if self.cfg.trace {
            timed_matrix(&path).map(|ml| {
                self.acc.decode.add(ml.matrix.events, ml.decode_ns);
                self.acc
                    .boot_ms
                    .extend(ml.boot_ns.iter().map(|&ns| ns as f64 / 1e6));
                let rows = ml.matrix.rows.len() as u64;
                self.acc.clean_rows.add(ml.matrix.events, ml.clean_row_ns);
                self.acc
                    .fault_rows
                    .add(ml.matrix.events * (rows - 1), ml.fault_rows_ns);
                ml.matrix
            })
        } else {
            differential_matrix(&path)
        };
        self.acc.matrix_s.push(t.elapsed().as_secs_f64());
        let m = match computed {
            Ok(m) => m,
            Err(e) => {
                self.report
                    .failures
                    .push(format!("episode {j}: matrix: {e}"));
                return;
            }
        };
        self.report.attempted += m.events * m.rows.len() as u64;
        let clean = m.clean_row();
        self.report.check(!clean.diverged(), || {
            format!(
                "episode {j}: clean row diverged ({} violations, panic {})",
                clean.violations, clean.hyp_panic
            )
        });
        let detected = m.detected();
        self.acc.detected.push(detected as f64);
        // The floor is pinned for the canonical schedule at the
        // workload's own length; other schedules detect what they reach.
        let canonical = j == 0 && self.steps == self.w.steps;
        self.report
            .check(!canonical || detected >= self.w.min_detected, || {
                format!(
                    "episode {j}: {detected}/{} fault rows detected, expected at least {}",
                    m.fault_rows().len(),
                    self.w.min_detected
                )
            });
        if j == 0 {
            // The digest is deterministic: a second computation, by the
            // library's own loop, must print the same line.
            let t = Instant::now();
            let again = differential_matrix(&path);
            if !self.cfg.trace {
                self.acc.matrix_s.push(t.elapsed().as_secs_f64());
            }
            let line = m.matrix_line();
            self.report.check(
                again.as_ref().is_ok_and(|a| a.matrix_line() == line),
                || format!("episode {j}: matrix digest differs between two computations"),
            );
            println!("{line}");
            self.acc.matrix0 = Some(m);
        }
        let _ = std::fs::remove_file(&path);
    }

    fn mode_eps(&self) -> [f64; 3] {
        [1, 2, 3].map(|slot| self.acc.tallies[slot].eps())
    }

    /// Prints each mode's oracle tax with both of its bases.
    fn print_tax(&self) -> [f64; 3] {
        let u = self.acc.tallies[0].eps();
        let eps = self.mode_eps();
        [0, 1, 2].map(|m| {
            let tax = u / eps[m].max(1e-9);
            println!(
                "oracle_tax.{}: {tax:.3}x = unchecked {u:.0} events/s / {} {:.0} events/s",
                Mode::CHECKED[m].name(),
                Mode::CHECKED[m].name(),
                eps[m]
            );
            tax
        })
    }

    fn end_to_end_metrics(&mut self) {
        self.print_tax();
        let eps = self.mode_eps();
        let unchecked = self.acc.tallies[0].eps();
        let r = &mut self.report;
        r.push("unchecked_eps", unchecked, "events/s");
        for (m, mode) in Mode::CHECKED.iter().enumerate() {
            r.push(format!("{}_eps", mode.name()), eps[m], "events/s");
        }
        r.push("matrix_s", median(&self.acc.matrix_s), "s");
        r.push("setup_s", median(&self.setup_s), "s");
        r.push("peak_rss_mb", self.acc.peak_rss_mb, "MB");
    }

    fn per_layer_metrics(&mut self) {
        let tax = self.print_tax();
        let unchecked = self.acc.tallies[0];
        let untraced = [1, 2, 3].map(|slot| self.acc.tallies[slot]);
        let traced = [4, 5, 6].map(|slot| self.acc.tallies[slot]);
        let a = &self.acc;
        let r = &mut self.report;
        r.push(
            "pkvm.handler.ns_per_event",
            unchecked.ns_per_event(),
            "ns/event",
        );
        for (m, mode) in Mode::CHECKED.iter().enumerate() {
            let acc = &a.modes[m];
            let per_event = |ns: u64| ns as f64 / acc.events.max(1) as f64;
            let name = mode.name();
            r.push(
                format!("pkvm.handler.self_ns.{name}"),
                per_event(acc.ledger.self_ns),
                "ns/event",
            );
            for (f, family) in Family::ALL.iter().enumerate() {
                r.push(
                    format!("oracle.{}.ns.{name}", family.name()),
                    per_event(acc.ledger.ns[f]),
                    "ns/event",
                );
            }
            r.push(
                format!("event.p50_us.{name}"),
                quantile(&acc.event_ns, 0.5) / 1e3,
                "us",
            );
            r.push(
                format!("event.p99_us.{name}"),
                quantile(&acc.event_ns, 0.99) / 1e3,
                "us",
            );
            r.push(
                format!("trace.overhead_pct.{name}"),
                (traced[m].ns_per_event() / untraced[m].ns_per_event() - 1.0) * 100.0,
                "%",
            );
            r.push(format!("oracle_tax.{name}"), tax[m], "x");
        }
        let calls = a.calls0.unwrap_or_default();
        for (f, family) in Family::ALL.iter().enumerate() {
            r.push(
                format!("oracle.{}.calls", family.name()),
                calls[f] as f64,
                "count",
            );
        }
        let c = a.counts0.clone().unwrap_or_default();
        r.push(
            "oracle.traps_checked",
            c.stats.traps_checked as f64,
            "count",
        );
        r.push(
            "oracle.traps_unchecked",
            c.stats.traps_unchecked as f64,
            "count",
        );
        r.push("oracle.abstractions", c.stats.abstractions as f64, "count");
        r.push(
            "oracle.degraded_traps",
            c.stats.degraded_traps as f64,
            "count",
        );
        r.push("oracle.ghost_bytes", c.ghost_bytes as f64, "bytes");
        let cs = &c.cache;
        r.push("abscache.clean_hits", cs.clean_hits as f64, "count");
        r.push("abscache.incremental", cs.incremental as f64, "count");
        r.push(
            "abscache.subtrees_replayed",
            cs.subtrees_replayed as f64,
            "count",
        );
        r.push("abscache.full_cold", cs.full_cold as f64, "count");
        r.push(
            "abscache.full_dirty_ratio",
            cs.full_dirty_ratio as f64,
            "count",
        );
        r.push(
            "abscache.hit_ratio",
            (cs.clean_hits + cs.incremental) as f64 / cs.requests().max(1) as f64,
            "ratio",
        );
        r.push("checker.drain_ms", median(&a.drain_ms), "ms");
        r.push("checker.in_flight_max", a.lag_max as f64, "msgs");
        r.push(
            "checker.in_flight_mean",
            a.lag_sum as f64 / a.lag_samples.max(1) as f64,
            "msgs",
        );
        r.push(
            "replay.growth",
            a.quarters[3] as f64 / a.quarters[0].max(1) as f64,
            "x",
        );
        let records = a.encode.records.max(1) as f64;
        r.push(
            "tracefile.encode_ns_per_event",
            a.encode.ns as f64 / records,
            "ns/event",
        );
        r.push(
            "tracefile.bytes_per_event",
            a.encode.bytes as f64 / records,
            "B/event",
        );
        let decode = a.decode.ns_per_event();
        r.push("tracefile.decode_ns_per_event", decode, "ns/event");
        r.push("replay.boot_ms_per_row", median(&a.boot_ms), "ms");
        r.push(
            "replay.ns_per_event_clean_row",
            (a.clean_rows.ns_per_event() - decode).max(0.0),
            "ns/event",
        );
        r.push(
            "replay.ns_per_event_fault_rows",
            (a.fault_rows.ns_per_event() - decode).max(0.0),
            "ns/event",
        );
        let m0 = a.matrix0.as_ref();
        r.push(
            "differential.violations",
            m0.map_or(0, |m| {
                m.fault_rows().iter().map(|r| r.violations).sum::<usize>()
            }) as f64,
            "count",
        );
        r.push(
            "differential.detected",
            m0.map_or(0, DiffMatrix::detected) as f64,
            "count",
        );
        r.push(
            "differential.detected_mean",
            a.detected.iter().sum::<f64>() / a.detected.len().max(1) as f64,
            "count",
        );
        r.push(
            "fail_frac",
            r.failures.len() as f64 / r.attempted.max(1) as f64,
            "ratio",
        );
        r.push("schedule.events", self.events0 as f64, "count");
        r.push("episodes.checked", a.episodes[0] as f64, "count");
        r.push("host.nproc", nproc() as f64, "count");
    }
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
