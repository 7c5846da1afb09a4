//! `oraclebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of timed replay (plus
//! set-up), prints a provenance line and the run's canonical lines, and
//! prints the result object as the last line of standard output. Exits
//! non-zero on a usage error; a failed check is reported in the result
//! (`"correct": false`), not as an exit code.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oraclebench::provenance;
use oraclebench::workload::{run, workload, Cfg, WORKLOADS};

const USAGE: &str = "usage: oraclebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Cfg), String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok((
        name.ok_or_else(|| missing("--workload"))?,
        Cfg {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            steps: None,
        },
    ))
}

/// A per-process scratch directory for trace files, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".oraclebench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails (harmlessly) while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let (name, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("oraclebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("oraclebench: unknown workload {name:?} (one of {names:?})");
        return ExitCode::from(2);
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("oraclebench: cannot create the work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let report = run(w, &cfg, &work.0);
    drop(work);
    println!(
        "provenance: workload={} seed={} trace={} steps={} {}",
        w.name,
        cfg.seed,
        u8::from(cfg.trace),
        w.steps,
        provenance::describe()
    );
    for f in report.failures.iter().take(20) {
        eprintln!("oraclebench: FAILED: {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
