//! The fleet's shared-directory protocol.
//!
//! Coordinator and workers communicate *only* through files in the fleet
//! root — no shared memory, no pipes, no locks — so a `kill -9` of any
//! process can never corrupt another's state. Every file is one of:
//!
//! - **append-only by name**: corpus seeds and crash reproducers are
//!   written once under a fresh name and never rewritten;
//! - **atomically replaced**: heartbeats, assignments, the fleet config
//!   and the stats snapshot go through [`crate::tracefile::atomic_write`]
//!   (temp file + rename), so readers see the old version or the new
//!   one, never a torn hybrid;
//! - **existence flags**: `stop` and per-worker `freeze` files carry no
//!   content at all.
//!
//! Readers are symmetric: a missing, truncated or malformed file decodes
//! to `None` and the reader falls back to its previous knowledge. The
//! protocol needs no locks because no file is ever mutated in place.
//!
//! ```text
//! <root>/
//!   fleet.cfg            worker-side knobs, written once by the coordinator
//!   stop                 existence = "all workers drain and exit"
//!   fleet-stats          periodic FleetStats snapshot (coordinator-crash resumable)
//!   merged/seed-*.pkvmtrace         the coordinator-merged corpus
//!   workers/NNN/corpus/seed-*.pkvmtrace   worker-local admitted seeds
//!   workers/NNN/crashes/crash-*.pkvmtrace minimized reproducers
//!   workers/NNN/heartbeat           progress counters (atomic)
//!   workers/NNN/assign              shard assignment (atomic)
//!   workers/NNN/freeze              existence = injected wedge (chaos)
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use pkvm_ghost::{fnv1a, FNV_OFFSET};

use crate::tracefile::{atomic_write, FORMAT_VERSION, MAGIC};

/// Path arithmetic for one fleet root.
#[derive(Clone, Debug)]
pub struct FleetDirs {
    root: PathBuf,
}

impl FleetDirs {
    /// Wraps a fleet root directory (created by [`FleetDirs::create_all`]).
    pub fn new(root: impl Into<PathBuf>) -> FleetDirs {
        FleetDirs { root: root.into() }
    }

    /// The fleet root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The worker-side configuration file.
    pub fn config_file(&self) -> PathBuf {
        self.root.join("fleet.cfg")
    }

    /// The drain flag: its existence tells every worker to exit cleanly.
    pub fn stop_file(&self) -> PathBuf {
        self.root.join("stop")
    }

    /// The periodic [`crate::fleet::FleetStats`] snapshot.
    pub fn stats_file(&self) -> PathBuf {
        self.root.join("fleet-stats")
    }

    /// The coordinator-merged corpus directory.
    pub fn merged_dir(&self) -> PathBuf {
        self.root.join("merged")
    }

    /// One worker's private directory.
    pub fn worker_dir(&self, w: usize) -> PathBuf {
        self.root.join("workers").join(format!("{w:03}"))
    }

    /// One worker's corpus directory.
    pub fn corpus_dir(&self, w: usize) -> PathBuf {
        self.worker_dir(w).join("corpus")
    }

    /// One worker's crash-reproducer directory.
    pub fn crashes_dir(&self, w: usize) -> PathBuf {
        self.worker_dir(w).join("crashes")
    }

    /// One worker's heartbeat file.
    pub fn heartbeat_file(&self, w: usize) -> PathBuf {
        self.worker_dir(w).join("heartbeat")
    }

    /// One worker's shard-assignment file.
    pub fn assign_file(&self, w: usize) -> PathBuf {
        self.worker_dir(w).join("assign")
    }

    /// One worker's injected-wedge flag (fleet chaos).
    pub fn freeze_file(&self, w: usize) -> PathBuf {
        self.worker_dir(w).join("freeze")
    }

    /// Creates the whole directory tree for `workers` workers.
    pub fn create_all(&self, workers: usize) -> std::io::Result<()> {
        std::fs::create_dir_all(self.merged_dir())?;
        for w in 0..workers {
            std::fs::create_dir_all(self.corpus_dir(w))?;
            std::fs::create_dir_all(self.crashes_dir(w))?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- kv codec

/// Encodes `key=value` lines (the protocol's human-greppable format).
pub fn encode_kv(pairs: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(k);
        out.push('=');
        out.push_str(v);
        out.push('\n');
    }
    out
}

/// Parses `key=value` lines; malformed lines are ignored, not fatal.
pub fn parse_kv(text: &str) -> HashMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn kv_u64(map: &HashMap<String, String>, key: &str) -> Option<u64> {
    map.get(key)?.parse().ok()
}

// ------------------------------------------------------------ heartbeat

/// One crash family's first detection, as witnessed by a single worker:
/// the worker's cumulative `execs` and `steps` counters at the round the
/// family's first reproducer appeared. Workers never see wall clocks —
/// the coordinator stamps fleet time when it merges these.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Detection {
    /// The crash family (the `<kind>` from `crash-NNN-<kind>.pkvmtrace`).
    pub family: String,
    /// Worker-cumulative inputs executed when first observed.
    pub execs: u64,
    /// Worker-cumulative driver steps when first observed.
    pub steps: u64,
}

/// Extracts the crash family from a reproducer file name of the form
/// `crash-NNN-<kind>.pkvmtrace`; anything else is `None`.
pub fn crash_family(name: &str) -> Option<&str> {
    name.strip_prefix("crash-")
        .and_then(|n| n.strip_suffix(".pkvmtrace"))
        .and_then(|n| n.split_once('-'))
        .map(|(_, kind)| kind)
}

/// A worker's progress snapshot: cumulative counters, atomically
/// replaced after every round. The coordinator detects progress by the
/// `rounds` counter changing — never by the worker's own clock, so a
/// worker with a frozen clock (or a paused process) is still correctly
/// declared wedged by the coordinator's clock alone.
///
/// Counters are cumulative across worker *restarts*: a respawned worker
/// reloads its own last heartbeat and continues from it, so fleet totals
/// never move backwards when a worker dies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// Fuzzing rounds completed (the progress signal).
    pub rounds: u64,
    /// Inputs executed.
    pub execs: u64,
    /// Driver steps executed.
    pub steps: u64,
    /// Seeds in the worker's last in-memory corpus.
    pub corpus_seeds: u64,
    /// Coverage points the worker's last corpus reached.
    pub points: u64,
    /// Peer seeds skipped as corrupt during pull-sync.
    pub import_skips: u64,
    /// Persistence failures absorbed (full disk, unwritable dir).
    pub persist_errors: u64,
    /// Crash-reproducer files in the worker's crashes directory.
    pub crash_families: u64,
    /// Panics that escaped an execution's containment.
    pub escaped_panics: u64,
    /// First detection per crash family, in discovery order. Cumulative
    /// like the counters: a respawned worker reloads these with the rest
    /// of its heartbeat, so time-to-first-detection survives restarts.
    pub detections: Vec<Detection>,
}

impl Heartbeat {
    /// Serializes to `key=value` lines; detections as
    /// `detect=<execs>;<steps>;<family>` lines (the family last, so its
    /// own `;`s survive).
    pub fn encode(&self) -> String {
        let mut out = encode_kv(&[
            ("rounds", self.rounds.to_string()),
            ("execs", self.execs.to_string()),
            ("steps", self.steps.to_string()),
            ("corpus_seeds", self.corpus_seeds.to_string()),
            ("points", self.points.to_string()),
            ("import_skips", self.import_skips.to_string()),
            ("persist_errors", self.persist_errors.to_string()),
            ("crash_families", self.crash_families.to_string()),
            ("escaped_panics", self.escaped_panics.to_string()),
        ]);
        for d in &self.detections {
            out.push_str(&format!(
                "detect={};{};{}\n",
                d.execs,
                d.steps,
                d.family.replace('\n', " ")
            ));
        }
        out
    }

    /// Decodes from `key=value` lines; any missing field — or a torn
    /// `detect=` line — fails the whole decode (a torn heartbeat must
    /// not report zeros as progress).
    pub fn decode(text: &str) -> Option<Heartbeat> {
        let m = parse_kv(text);
        let mut hb = Heartbeat {
            rounds: kv_u64(&m, "rounds")?,
            execs: kv_u64(&m, "execs")?,
            steps: kv_u64(&m, "steps")?,
            corpus_seeds: kv_u64(&m, "corpus_seeds")?,
            points: kv_u64(&m, "points")?,
            import_skips: kv_u64(&m, "import_skips")?,
            persist_errors: kv_u64(&m, "persist_errors")?,
            crash_families: kv_u64(&m, "crash_families")?,
            escaped_panics: kv_u64(&m, "escaped_panics")?,
            detections: Vec::new(),
        };
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("detect=") else {
                continue;
            };
            let mut parts = rest.splitn(3, ';');
            let execs = parts.next()?.parse().ok()?;
            let steps = parts.next()?.parse().ok()?;
            let family = parts.next()?.to_string();
            hb.detections.push(Detection {
                family,
                execs,
                steps,
            });
        }
        Some(hb)
    }

    /// Atomically replaces the heartbeat file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.encode().as_bytes())
    }

    /// Reads a heartbeat; missing or malformed files are `None`.
    pub fn read(path: &Path) -> Option<Heartbeat> {
        Heartbeat::decode(&std::fs::read_to_string(path).ok()?)
    }
}

// ----------------------------------------------------------- assignment

/// A worker's shard assignment. Shards are abstract seed-space indices:
/// round `r` of a worker holding shards `s` fuzzes under a seed derived
/// from `(fleet seed, s[r % len], r)`. Quarantining a worker moves its
/// shards onto a healthy peer's assignment, so the seed space keeps
/// being explored with one fewer process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    /// The shard indices this worker owns.
    pub shards: Vec<u64>,
}

impl Assignment {
    /// Serializes to one `shards=a,b,c` line.
    pub fn encode(&self) -> String {
        let list: Vec<String> = self.shards.iter().map(u64::to_string).collect();
        encode_kv(&[("shards", list.join(","))])
    }

    /// Decodes; a missing or malformed file is `None` (the worker falls
    /// back to the shard matching its own id).
    pub fn decode(text: &str) -> Option<Assignment> {
        let m = parse_kv(text);
        let raw = m.get("shards")?;
        if raw.is_empty() {
            return Some(Assignment { shards: Vec::new() });
        }
        let mut shards = Vec::new();
        for part in raw.split(',') {
            shards.push(part.parse().ok()?);
        }
        Some(Assignment { shards })
    }

    /// Atomically replaces the assignment file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.encode().as_bytes())
    }

    /// Reads an assignment; missing or malformed files are `None`.
    pub fn read(path: &Path) -> Option<Assignment> {
        Assignment::decode(&std::fs::read_to_string(path).ok()?)
    }
}

// ------------------------------------------------------- worker config

/// The knobs a worker needs to run rounds, written once by the
/// coordinator into `fleet.cfg`. A worker is restartable from just
/// `(root, id)`: everything else lives here or in its assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerCfg {
    /// Fleet-wide base seed.
    pub seed: u64,
    /// Driver-step budget per fuzzing round.
    pub round_steps: u64,
    /// Bootstrap inputs for an empty corpus.
    pub bootstrap_inputs: u64,
    /// Base tester-step length of bootstrap inputs.
    pub bootstrap_len: u64,
    /// Cap on driver events per input.
    pub max_input_len: u64,
    /// Arbitrary-call fraction for generated ops.
    pub invalid_fraction: f64,
    /// Faults injected into every execution.
    pub fault_bits: u32,
    /// Whether seed/crash writes fsync before rename.
    pub fsync: bool,
}

impl Default for WorkerCfg {
    fn default() -> Self {
        WorkerCfg {
            seed: 0xf1ee7,
            round_steps: 400,
            bootstrap_inputs: 2,
            bootstrap_len: 60,
            max_input_len: 640,
            invalid_fraction: 0.15,
            fault_bits: 0,
            fsync: false,
        }
    }
}

impl WorkerCfg {
    /// Serializes to `key=value` lines (the fraction as IEEE bits, so
    /// the round trip is exact).
    pub fn encode(&self) -> String {
        encode_kv(&[
            ("seed", self.seed.to_string()),
            ("round_steps", self.round_steps.to_string()),
            ("bootstrap_inputs", self.bootstrap_inputs.to_string()),
            ("bootstrap_len", self.bootstrap_len.to_string()),
            ("max_input_len", self.max_input_len.to_string()),
            (
                "invalid_fraction",
                self.invalid_fraction.to_bits().to_string(),
            ),
            ("fault_bits", u64::from(self.fault_bits).to_string()),
            ("fsync", u64::from(self.fsync).to_string()),
        ])
    }

    /// Decodes; any missing field fails the whole decode.
    pub fn decode(text: &str) -> Option<WorkerCfg> {
        let m = parse_kv(text);
        Some(WorkerCfg {
            seed: kv_u64(&m, "seed")?,
            round_steps: kv_u64(&m, "round_steps")?,
            bootstrap_inputs: kv_u64(&m, "bootstrap_inputs")?,
            bootstrap_len: kv_u64(&m, "bootstrap_len")?,
            max_input_len: kv_u64(&m, "max_input_len")?,
            invalid_fraction: f64::from_bits(kv_u64(&m, "invalid_fraction")?),
            fault_bits: u32::try_from(kv_u64(&m, "fault_bits")?).ok()?,
            fsync: kv_u64(&m, "fsync")? != 0,
        })
    }

    /// Atomically writes the config file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.encode().as_bytes())
    }

    /// Reads the config; missing or malformed files are `None`.
    pub fn read(path: &Path) -> Option<WorkerCfg> {
        WorkerCfg::decode(&std::fs::read_to_string(path).ok()?)
    }
}

// ------------------------------------------------------------ utilities

/// FNV-1a over raw bytes — the content identity the merge loop dedups
/// by, so a seed ping-ponging worker → merged → worker is merged once.
pub fn content_hash(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Writes a deliberately torn seed file into `dir`: a valid magic and
/// format version followed by a dangling varint, exactly the shape a
/// `kill -9` between `write` and `rename` would have produced before
/// writes were atomic. The fleet chaos harness injects these to prove
/// every reader skips-and-counts instead of dying.
pub fn inject_torn_seed(dir: &Path, name: &str) -> std::io::Result<PathBuf> {
    let mut bytes = MAGIC.to_vec();
    bytes.push(FORMAT_VERSION as u8);
    // A varint whose continuation bit promises bytes that never come.
    bytes.extend_from_slice(&[0x83, 0x99, 0xff]);
    let path = dir.join(name);
    // Deliberately non-atomic: the point is a torn file on disk.
    std::fs::write(&path, &bytes)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_and_assignment_round_trip() {
        let hb = Heartbeat {
            rounds: 7,
            execs: 123,
            steps: 4567,
            corpus_seeds: 12,
            points: 88,
            import_skips: 2,
            persist_errors: 1,
            crash_families: 3,
            escaped_panics: 0,
            detections: vec![
                Detection {
                    family: "spec-mismatch".into(),
                    execs: 44,
                    steps: 1_200,
                },
                Detection {
                    family: "hyp-panic; with; semicolons".into(),
                    execs: 101,
                    steps: 3_000,
                },
            ],
        };
        assert_eq!(Heartbeat::decode(&hb.encode()), Some(hb.clone()));
        // A torn heartbeat (missing fields) decodes to None, not zeros.
        assert_eq!(Heartbeat::decode("rounds=7\nexecs=1\n"), None);
        assert_eq!(Heartbeat::decode("garbage"), None);
        // A torn detect line poisons the whole decode too.
        let torn = format!("{}detect=9;\n", hb.encode());
        assert_eq!(Heartbeat::decode(&torn), None);

        assert_eq!(
            crash_family("crash-007-hyp-panic @ teardown.pkvmtrace"),
            Some("hyp-panic @ teardown")
        );
        assert_eq!(crash_family("seed-000001.pkvmtrace"), None);
        assert_eq!(crash_family("crash-007.pkvmtrace"), None);

        let a = Assignment {
            shards: vec![0, 3, 9],
        };
        assert_eq!(Assignment::decode(&a.encode()), Some(a));
        assert_eq!(
            Assignment::decode("shards=\n"),
            Some(Assignment { shards: Vec::new() })
        );
        assert_eq!(Assignment::decode("shards=1,x"), None);
    }

    #[test]
    fn worker_cfg_round_trips_exactly() {
        let cfg = WorkerCfg {
            seed: 0xdead,
            round_steps: 321,
            bootstrap_inputs: 3,
            bootstrap_len: 77,
            max_input_len: 512,
            invalid_fraction: 0.137,
            fault_bits: 0b1010,
            fsync: true,
        };
        assert_eq!(WorkerCfg::decode(&cfg.encode()), Some(cfg));
        assert_eq!(WorkerCfg::decode(""), None);
    }

    #[test]
    fn torn_seed_fails_decode_but_not_the_scanner() {
        let dir = std::env::temp_dir().join(format!("pkvm-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = inject_torn_seed(&dir, "seed-000000.pkvmtrace").unwrap();
        assert!(crate::tracefile::load_trace(&p).is_err());
        let scan = crate::fuzz::scan_dir(&dir);
        assert_eq!((scan.loaded.len(), scan.skipped.len()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
