//! Bench for the execution layer introduced with the audit engine: audit
//! wall-clock as a function of engine worker count.
//!
//! The harness performs one instrumented audit per worker count under the
//! caf-obs telemetry layer and writes a one-line machine-readable summary
//! (the run-report JSON) to `BENCH_engine.json` at the repository root,
//! so CI and scripts can diff span timings.

use caf_core::pipeline::{audit_config, campaign_config};
use caf_core::{Audit, EngineConfig};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::hint::black_box;

const SEED: u64 = 0xCAF_2024;
/// The acceptance-criteria scale: `repro`'s default (`--scale 30`).
const SCALE: u32 = 30;

fn audit_at(scale: u32) -> (World, Audit) {
    let synth = SynthConfig { seed: SEED, scale };
    let world = World::generate_states(synth, &UsState::study_states());
    let audit = Audit::new(audit_config(synth, campaign_config(SEED)));
    (world, audit)
}

/// Runs one audit per worker count with telemetry enabled and writes the
/// resulting run report as a single line of compact JSON to
/// `BENCH_engine.json` at the repository root (or `$CAF_BENCH_DIR`).
fn write_bench_summary() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let (world, audit) = audit_at(SCALE);
    for workers in [1usize, 2, 4] {
        let _span = caf_obs::span_with(|| format!("bench.audit.workers_{workers}"));
        let dataset = audit.run_with(&world, EngineConfig::with_workers(workers));
        black_box(dataset.rows.len());
    }
    caf_obs::set_enabled(false);

    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_engine".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("scale".to_string(), SCALE.to_string());
    meta.insert("workers".to_string(), "1,2,4".to_string());
    let report = caf_obs::RunReport::collect(meta);
    // CAF_BENCH_DIR redirects the summary (CI points it at an artifact
    // directory so smoke runs never dirty the committed baseline).
    let dir = std::env::var("CAF_BENCH_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let path = std::path::Path::new(&dir).join("BENCH_engine.json");
    let mut line = report.to_json();
    line.push('\n');
    match std::fs::write(&path, line) {
        Ok(()) => eprintln!("wrote bench summary to {}", path.display()),
        Err(error) => eprintln!("cannot write {}: {error}", path.display()),
    }
}

fn main() {
    write_bench_summary();
}
