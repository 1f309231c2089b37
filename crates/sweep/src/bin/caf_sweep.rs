//! `caf-sweep` — run a counterfactual policy sweep grid and write its
//! canonical results.
//!
//! Usage:
//!
//! ```text
//! caf-sweep --spec grid.json --out DIR [--workers N]
//! ```
//!
//! Parses and validates the [`SweepSpec`], runs the grid on the
//! cost-aware plan (one unit per (state, scale) world), and writes
//! `DIR/results.json` (the canonical artifact) and `DIR/results.csv`
//! (the results table). Both emissions are byte-identical at any
//! `--workers` — the CI determinism gate diffs them across worker
//! counts with `cmp`.

use caf_core::artifact::to_canonical_bytes;
use caf_sweep::{results_artifact, results_csv, SweepOptions, SweepRun, SweepSpec};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: caf-sweep --spec FILE --out DIR [--workers N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut spec_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut options = SweepOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--spec" => match value("--spec") {
                Some(v) => spec_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--out" => match value("--out") {
                Some(v) => out_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--workers" => match value("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => options.workers = v,
                None => return usage(),
            },
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    let (Some(spec_path), Some(out_dir)) = (spec_path, out_dir) else {
        return usage();
    };

    let text = match std::fs::read_to_string(&spec_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {}: {error}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };
    let spec = match SweepSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(error) => {
            eprintln!("invalid sweep spec {}: {error}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(error) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {error}", out_dir.display());
        return ExitCode::FAILURE;
    }

    eprintln!(
        "sweep: {} cells ({} states x {} scales x {} tiers x {} caps x {} rules), \
         {} workers",
        spec.cell_count(),
        spec.states.len(),
        spec.scales.len(),
        spec.tiers.len(),
        spec.cap_multipliers.len(),
        spec.rules.len(),
        options.workers,
    );
    let run = SweepRun::run(&spec, options);
    eprintln!("sweep: done — {} shards, {} steals", run.shards, run.steals);

    let json = to_canonical_bytes(&results_artifact(&run));
    let csv = results_csv(&run);
    for (name, bytes) in [
        ("results.json", json.as_str()),
        ("results.csv", csv.as_str()),
    ] {
        let path = out_dir.join(name);
        if let Err(error) = std::fs::write(&path, bytes) {
            eprintln!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} ({} bytes)", path.display(), bytes.len());
    }
    ExitCode::SUCCESS
}
