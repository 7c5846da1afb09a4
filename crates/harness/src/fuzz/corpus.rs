//! The persistent seed corpus.
//!
//! A seed is an input (a driver-event sequence wrapped in a
//! [`CampaignTrace`]) whose execution added coverage: a named
//! implementation/spec coverage point nobody in the corpus had reached,
//! or a novel ghost-state signature. Admitted seeds persist as
//! `seed-NNNNNN.pkvmtrace` files in the corpus directory through the
//! ordinary trace codec, so a corpus survives the process and reloads —
//! and replays bit-identically — in the next session.
//!
//! The corpus is built crash-first: every persistence failure (an
//! unwritable directory, a full disk, a torn peer file) degrades into a
//! counted, reported condition instead of a panic. Seeds that cannot be
//! written stay admitted in memory; directories that cannot be created
//! turn the corpus in-memory-only; unreadable files are skipped on load.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use pkvm_ghost::{fnv1a, FNV_OFFSET};

use crate::campaign::{replay_stream, CampaignTrace};
use crate::tracefile::{save_trace, TraceFileError, TraceReader};

/// Why a corpus I/O operation failed. Corpus errors are conditions to
/// count and report — a fuzzing worker never dies on one.
#[derive(Debug)]
pub enum CorpusError {
    /// A file-system operation failed (full disk, permissions, …).
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A seed file failed to encode or decode.
    Trace {
        /// The offending file.
        path: PathBuf,
        /// The codec's diagnosis.
        err: TraceFileError,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, err } => write!(f, "corpus i/o at {}: {err}", path.display()),
            CorpusError::Trace { path, err } => {
                write!(f, "corpus seed {}: {err}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// One admitted input and the footprint that earned it admission.
#[derive(Clone, Debug)]
pub struct CorpusSeed {
    /// Corpus-local id (also the persisted file number).
    pub id: u64,
    /// The input: driver events plus the execution configuration.
    pub trace: CampaignTrace,
    /// Coverage points the admitting execution reached (its delta, not
    /// the process totals) — the scheduler weighs energy over these.
    pub points: Vec<&'static str>,
    /// Ghost-state novelty signature of the admitting execution.
    pub sig: u64,
    /// Where the seed persists, when a corpus directory is configured.
    pub file: Option<PathBuf>,
}

/// The in-memory corpus with its on-disk mirror.
#[derive(Debug)]
pub struct Corpus {
    /// Admitted seeds, in admission order.
    pub seeds: Vec<CorpusSeed>,
    /// Persistence failures absorbed so far (each seed stayed admitted
    /// in memory; only its on-disk mirror is missing).
    pub persist_errors: u64,
    seen_points: HashSet<&'static str>,
    seen_sigs: HashSet<u64>,
    dir: Option<PathBuf>,
    next_id: u64,
    last_error: Option<CorpusError>,
}

impl Corpus {
    /// An empty corpus; creates the directory when one is given. Never
    /// fails: an uncreatable directory degrades the corpus to in-memory
    /// only, recorded as a persistence error ([`Corpus::last_error`]).
    pub fn new(dir: Option<PathBuf>) -> Corpus {
        let mut persist_errors = 0;
        let mut last_error = None;
        let mut next_id = 0;
        let dir = dir.and_then(|d| match std::fs::create_dir_all(&d) {
            Ok(()) => {
                // Resume numbering past any seed file already on disk, so
                // a corpus that re-admits only part of its files (or that
                // imported peer seeds) never overwrites a live one.
                next_id = next_free_id(&d);
                Some(d)
            }
            Err(e) => {
                persist_errors += 1;
                last_error = Some(CorpusError::Io { path: d, err: e });
                None
            }
        });
        Corpus {
            seeds: Vec::new(),
            persist_errors,
            seen_points: HashSet::new(),
            seen_sigs: HashSet::new(),
            dir,
            next_id,
            last_error,
        }
    }

    /// The most recent persistence failure, if any.
    pub fn last_error(&self) -> Option<&CorpusError> {
        self.last_error.as_ref()
    }

    /// Offers an executed input for admission. Admits when it reached a
    /// coverage point or novelty signature the corpus has not seen;
    /// returns the new seed's id, or `None` when the input added
    /// nothing. `existing` names the file a reloaded seed already lives
    /// in, so re-admission on reload does not duplicate it on disk.
    ///
    /// A failure to persist the seed file is absorbed: the seed stays
    /// admitted in memory (its coverage is never lost to a full disk)
    /// and [`Corpus::persist_errors`] counts the degradation.
    pub fn consider(
        &mut self,
        trace: CampaignTrace,
        points: Vec<&'static str>,
        sig: u64,
        existing: Option<PathBuf>,
    ) -> Option<u64> {
        let novel_point = points.iter().any(|p| !self.seen_points.contains(p));
        let novel_sig = !self.seen_sigs.contains(&sig);
        if !novel_point && !novel_sig {
            return None;
        }
        self.seen_points.extend(points.iter().copied());
        self.seen_sigs.insert(sig);
        let id = self.next_id;
        self.next_id += 1;
        let file = match existing {
            Some(f) => Some(f),
            None => self.dir.as_ref().and_then(|d| {
                let path = d.join(format!("seed-{id:06}.pkvmtrace"));
                match save_trace(&path, &trace) {
                    Ok(()) => Some(path),
                    Err(err) => {
                        self.persist_errors += 1;
                        self.last_error = Some(CorpusError::Trace { path, err });
                        None
                    }
                }
            }),
        };
        self.seeds.push(CorpusSeed {
            id,
            trace,
            points,
            sig,
            file,
        });
        Some(id)
    }

    /// Number of distinct coverage points the corpus reaches.
    pub fn points_covered(&self) -> usize {
        self.seen_points.len()
    }

    /// Number of distinct novelty signatures the corpus reaches.
    pub fn sigs_covered(&self) -> usize {
        self.seen_sigs.len()
    }

    /// Computes a minimal-ish seed subset that preserves the corpus's
    /// whole coverage frontier (every seen point and every seen novelty
    /// signature), by greedy set cover: repeatedly keep the seed whose
    /// footprint covers the most still-uncovered items, earliest seed
    /// winning ties. Returns the kept ids, in admission order. The
    /// coordinator runs this before redistributing shards, so a
    /// long-soak corpus stays bounded without losing admitted coverage.
    pub fn distill(&self) -> Vec<u64> {
        let mut need_points: HashSet<&'static str> = self.seen_points.clone();
        let mut need_sigs: HashSet<u64> = self.seen_sigs.clone();
        let mut kept: Vec<u64> = Vec::new();
        let mut available: Vec<&CorpusSeed> = self.seeds.iter().collect();
        while !need_points.is_empty() || !need_sigs.is_empty() {
            let gain = |s: &CorpusSeed| {
                s.points.iter().filter(|p| need_points.contains(*p)).count()
                    + usize::from(need_sigs.contains(&s.sig))
            };
            let Some((best_idx, best_gain)) = available
                .iter()
                .enumerate()
                .map(|(i, s)| (i, gain(s)))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                break;
            };
            if best_gain == 0 {
                // Unreachable unless the frontier sets drifted from the
                // seeds (they are only extended at admission); stop
                // rather than loop.
                break;
            }
            let s = available.remove(best_idx);
            for p in &s.points {
                need_points.remove(p);
            }
            need_sigs.remove(&s.sig);
            kept.push(s.id);
        }
        kept.sort_unstable();
        kept
    }
}

/// The first seed id not used by a `seed-NNNNNN.pkvmtrace` file in `dir`
/// (imported peer seeds like `seed-mNNNNNN` carry a non-numeric infix
/// and do not advance the counter).
fn next_free_id(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("seed-")?
                .strip_suffix(".pkvmtrace")?
                .parse::<u64>()
                .ok()
        })
        .map(|n| n + 1)
        .max()
        .unwrap_or(0)
}

/// What a directory scan found: the decodable seeds, and the files that
/// failed to decode (torn writes from a killed peer, bit rot) — skipped,
/// counted, never fatal.
#[derive(Debug, Default)]
pub struct DirScan {
    /// Decodable seeds, in filename order.
    pub loaded: Vec<(PathBuf, CampaignTrace)>,
    /// Files that failed to load, with the codec's diagnosis.
    pub skipped: Vec<CorpusError>,
}

/// The `seed-*.pkvmtrace` files in `dir`, in filename order. A missing
/// or unreadable directory yields an empty list.
fn seed_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seed-") && n.ends_with(".pkvmtrace"))
        })
        .collect();
    paths.sort();
    paths
}

/// Scans every `seed-*.pkvmtrace` in `dir`, in filename order,
/// partitioning decodable seeds from corrupt ones (each streamed
/// through a [`TraceReader`], then materialized — the corpus mutates
/// seeds in memory, so it needs the events). A missing or unreadable
/// directory yields an empty scan.
pub fn scan_dir(dir: &Path) -> DirScan {
    let mut scan = DirScan::default();
    for p in seed_paths(dir) {
        match TraceReader::open(&p).and_then(TraceReader::into_trace) {
            Ok(t) => scan.loaded.push((p, t)),
            Err(err) => scan.skipped.push(CorpusError::Trace { path: p, err }),
        }
    }
    scan
}

/// Loads every `seed-*.pkvmtrace` in `dir`, in filename order. Unreadable
/// or malformed files are skipped, not fatal — a half-written seed from a
/// killed session must not poison the next one.
pub fn load_dir(dir: &Path) -> Vec<(PathBuf, CampaignTrace)> {
    scan_dir(dir).loaded
}

/// Replays every persisted seed in `dir` (in filename order) and folds
/// the per-seed verdicts — file name, steps executed, violation count,
/// panic — into one FNV digest. Each seed streams straight from its
/// [`TraceReader`] into [`replay_stream`], so the digest runs in O(1)
/// memory per seed; a seed that fails to decode anywhere (header or
/// tail) is skipped entirely, exactly the files the old materializing
/// load skipped. Any process replaying the same corpus computes the
/// identical `(seed count, digest)` pair: the cross-process
/// bit-identical-replay check used by both the fuzz and fleet gates.
pub fn replay_digest(dir: &Path) -> (usize, u64) {
    let mut digest = FNV_OFFSET;
    let mut fold = |s: &str| digest = fnv1a(digest, s.as_bytes());
    let mut count = 0usize;
    for path in seed_paths(dir) {
        let Ok(reader) = TraceReader::open(&path) else {
            continue;
        };
        let header = reader.header().clone();
        let Ok(out) = replay_stream(&header, reader) else {
            continue;
        };
        count += 1;
        fold(&format!(
            "{}:{}:{}:{}\n",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            out.steps,
            out.violations.len(),
            out.hyp_panic.as_deref().unwrap_or("-"),
        ));
    }
    (count, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_ghost::event::{Event, EventRecord};
    use pkvm_ghost::oracle::OracleOpts;
    use pkvm_hyp::machine::MachineConfig;

    fn trace(n_events: usize) -> CampaignTrace {
        CampaignTrace {
            config: MachineConfig::default(),
            oracle_opts: OracleOpts::default(),
            fault_bits: 0,
            chaos: None,
            seeds: Vec::new(),
            events: (0..n_events)
                .map(|i| EventRecord {
                    seq: i as u64,
                    lane: 0,
                    trap: None,
                    t_ns: 0,
                    event: Event::Hvc {
                        cpu: 0,
                        func: 0xc600_0000,
                        args: vec![i as u64],
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn admission_requires_novelty() {
        let mut c = Corpus::new(None);
        assert_eq!(c.consider(trace(1), vec!["a"], 1, None), Some(0));
        // Same points, same sig: rejected.
        assert_eq!(c.consider(trace(2), vec!["a"], 1, None), None);
        // New point admits.
        assert_eq!(c.consider(trace(3), vec!["a", "b"], 1, None), Some(1));
        // Known points but new signature admits.
        assert_eq!(c.consider(trace(4), vec!["b"], 2, None), Some(2));
        assert_eq!(c.seeds.len(), 3);
        assert_eq!(c.points_covered(), 2);
        assert_eq!(c.sigs_covered(), 2);
        assert_eq!(c.persist_errors, 0);
    }

    #[test]
    fn seeds_persist_and_reload_bit_identically() {
        let dir = std::env::temp_dir().join(format!("pkvm-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Corpus::new(Some(dir.clone()));
        c.consider(trace(5), vec!["a"], 1, None);
        c.consider(trace(9), vec!["b"], 2, None);
        let loaded = load_dir(&dir);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1, trace(5));
        assert_eq!(loaded[1].1, trace(9));
        // A garbage file is skipped — counted, never fatal.
        std::fs::write(dir.join("seed-999999.pkvmtrace"), b"not a trace").unwrap();
        assert_eq!(load_dir(&dir).len(), 2);
        let scan = scan_dir(&dir);
        assert_eq!((scan.loaded.len(), scan.skipped.len()), (2, 1));
        // Re-admitting a loaded seed with its existing path does not
        // write a duplicate file.
        let mut c2 = Corpus::new(Some(dir.clone()));
        for (path, t) in load_dir(&dir) {
            c2.consider(t, vec!["x"], 3, Some(path));
        }
        let n_files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, 3, "reload duplicated seed files");
        // New admissions resume numbering past every on-disk seed file
        // (even ones this corpus did not re-admit), never overwriting.
        let id = c2.consider(trace(11), vec!["y"], 4, None).unwrap();
        assert!(id >= 1_000_000, "id {id} could collide with seed-999999");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_degrades_instead_of_panicking() {
        // A path that cannot be a directory (its parent is a file).
        let file = std::env::temp_dir().join(format!("pkvm-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"occupied").unwrap();
        let mut c = Corpus::new(Some(file.join("corpus")));
        assert_eq!(c.persist_errors, 1);
        assert!(c.last_error().is_some());
        // Admission still works, in memory.
        assert_eq!(c.consider(trace(2), vec!["a"], 1, None), Some(0));
        assert!(c.seeds[0].file.is_none());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn distill_preserves_the_whole_frontier() {
        let mut c = Corpus::new(None);
        // Seed 0 covers {a}, seed 1 covers {a, b}, seed 2 covers {b} with
        // a new sig, seed 3 covers {c}.
        c.consider(trace(1), vec!["a"], 1, None);
        c.consider(trace(2), vec!["b"], 1, None); // novel point b (sig seen)
        c.consider(trace(3), vec!["a", "b"], 2, None); // novel sig only
        c.consider(trace(4), vec!["c"], 2, None);
        let kept = c.distill();
        assert!(kept.len() <= c.seeds.len());
        // The kept subset covers every seen point and sig.
        let mut points = HashSet::new();
        let mut sigs = HashSet::new();
        for s in c.seeds.iter().filter(|s| kept.contains(&s.id)) {
            points.extend(s.points.iter().copied());
            sigs.insert(s.sig);
        }
        assert_eq!(points.len(), c.points_covered());
        assert_eq!(sigs.len(), c.sigs_covered());
        // Seed picking is deterministic.
        assert_eq!(kept, c.distill());
    }
}
