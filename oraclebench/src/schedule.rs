//! Set-up: generating a workload's schedule of driver events from a seed.
//!
//! The generator (the model-guided [`RandomTester`], or a one-worker
//! [`CampaignCfg`] campaign) runs unchecked and recorded; only the
//! concrete driver events survive. The timed phase replays them, so no
//! generator RNG or `TestModel` scan is ever timed.

use std::path::Path;
use std::time::Instant;

use pkvm_ghost::event::{Event, EventRecord};
use pkvm_harness::campaign::{CampaignCfg, CampaignTrace};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester, DEFAULT_OP_WEIGHTS, OP_NAMES};
use pkvm_harness::tracefile::{TraceFileError, TraceHeader, TraceWriter};
use pkvm_hyp::machine::MachineConfig;

/// The call mix a schedule is generated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The E3/E12 default mix ([`DEFAULT_OP_WEIGHTS`]).
    Default,
    /// The Android churn mix ([`pkvm_harness::android::android_weights`]).
    Android,
}

impl Mix {
    fn weights(self) -> [f64; OP_NAMES.len()] {
        match self {
            Mix::Default => DEFAULT_OP_WEIGHTS,
            Mix::Android => pkvm_harness::android::android_weights(),
        }
    }
}

/// A replayable schedule: the machine shape it was generated on and its
/// driver events in generation order.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Machine shape every replay boots.
    pub config: MachineConfig,
    /// The concrete driver events (`Event::is_driver`).
    pub events: Vec<Event>,
}

fn driver_events(records: impl IntoIterator<Item = EventRecord>) -> Vec<Event> {
    records
        .into_iter()
        .map(|r| r.event)
        .filter(Event::is_driver)
        .collect()
}

/// Runs a single-threaded [`RandomTester`] for `steps` steps with `mix`
/// at `seed`, unchecked and recorded, and keeps its driver events.
pub fn generate(mix: Mix, seed: u64, steps: u64) -> Schedule {
    let proxy = Proxy::builder().with_oracle(false).record(true).boot();
    let cfg = RandomCfg::builder()
        .seed(seed)
        .op_weights(mix.weights())
        .build();
    let mut tester = RandomTester::new(proxy, cfg);
    tester.run(steps);
    Schedule {
        config: tester.proxy.machine.config().clone(),
        events: driver_events(tester.proxy.events().take_events()),
    }
}

/// Records the differential matrix's schedule: a clean one-worker
/// campaign with the default mix (single lane, so the recording is
/// bit-identical across runs), unchecked. `None` if the campaign was not
/// clean.
pub fn record_campaign(seed: u64, steps: u64) -> Option<CampaignTrace> {
    let report = CampaignCfg::builder()
        .workers(1)
        .steps_per_worker(steps)
        .base_seed(seed)
        .stop_on_violation(false)
        .with_oracle(false)
        .run();
    if !report.is_clean() {
        return None;
    }
    report.trace
}

impl Schedule {
    /// The replayable part of a recorded campaign.
    pub fn of_trace(trace: &CampaignTrace) -> Schedule {
        Schedule {
            config: trace.config.clone(),
            events: driver_events(trace.events.iter().cloned()),
        }
    }
}

/// What writing trace files cost, summed over files.
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeCost {
    /// Time inside `TraceWriter::create`, `append` and `finish`.
    pub ns: u64,
    /// Records written.
    pub records: u64,
    /// Bytes of the sealed files.
    pub bytes: u64,
}

impl EncodeCost {
    /// Adds another file's cost.
    pub fn add(&mut self, other: EncodeCost) {
        self.ns += other.ns;
        self.records += other.records;
        self.bytes += other.bytes;
    }
}

/// Writes `trace` to `path` through a [`TraceWriter`], timing the
/// writer from `create` to `finish`.
///
/// # Errors
///
/// Any file-system error from the writer.
pub fn write_trace(path: &Path, trace: &CampaignTrace) -> Result<EncodeCost, TraceFileError> {
    let t = Instant::now();
    let mut w = TraceWriter::create(path, &TraceHeader::of(trace))?;
    for rec in &trace.events {
        w.append(rec)?;
    }
    w.finish()?;
    Ok(EncodeCost {
        ns: t.elapsed().as_nanos() as u64,
        records: trace.events.len() as u64,
        bytes: std::fs::metadata(path)?.len(),
    })
}
