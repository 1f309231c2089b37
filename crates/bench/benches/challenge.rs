//! Bench for the epoch-versioned incremental recompute path: folding a
//! small challenge delta batch into a live world via
//! `IncrementalAudit::refresh` versus re-auditing the whole world from
//! scratch.
//!
//! The harness performs one instrumented measurement pass and writes a one-line machine-readable summary to
//! `BENCH_challenge.json` at the repository root (or `$CAF_BENCH_DIR`).
//! The `incremental_speedup` metadata key is the acceptance bar: a
//! delta batch touching ≤5% of CBG cells at scale 150 must refresh at
//! least 5× faster than a full re-audit (`metrics_check
//! --min-incremental-speedup` gates on it).

use caf_core::pipeline::{audit_config, campaign_config};
use caf_core::{Audit, EngineConfig, IncrementalAudit};
use caf_geo::UsState;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0xCAF_2024;
/// The acceptance-criteria scale (`caf-serve`'s default scenario).
const SCALE: u32 = 150;
/// Incremental measurement rounds (refresh wall-clock is small; the
/// average over several rounds is stabler than one draw).
const ROUNDS: u32 = 5;

fn synth() -> SynthConfig {
    SynthConfig {
        seed: SEED,
        scale: SCALE,
    }
}

fn audit(engine: EngineConfig) -> Audit {
    Audit::new(audit_config(synth(), campaign_config(SEED, engine)))
}

/// A challenge batch touching 4 of the world's CBG cells — under the 5%
/// batch bound at scale 150 (90 cells across the fifteen study states).
/// ISPs are resolved from the world's geography (the assignment is
/// RNG-dependent; the addresses are not).
fn sample_batch(world: &World) -> Vec<ChallengeDelta> {
    let cell = |state: UsState, cbg: usize, correction: Correction| {
        let sw = world
            .states
            .iter()
            .find(|sw| sw.state == state)
            .expect("study state present");
        assert!(cbg < sw.geography.cbgs.len());
        ChallengeDelta {
            state,
            cbg,
            isp: sw.geography.cbgs[cbg].isp,
            correction,
        }
    };
    vec![
        cell(
            UsState::Mississippi,
            0,
            Correction::Availability { rate_ppm: 95_000 },
        ),
        cell(
            UsState::Alabama,
            1,
            Correction::CertifiedTier {
                down_mbps: 25,
                up_mbps: 3,
            },
        ),
        cell(
            UsState::California,
            6,
            Correction::Availability { rate_ppm: 700_000 },
        ),
        cell(
            UsState::Wisconsin,
            2,
            Correction::Availability { rate_ppm: 330_000 },
        ),
    ]
}

/// One instrumented measurement pass: a full re-audit, then `ROUNDS`
/// apply+refresh rounds of the sample batch, written as a run report to
/// `BENCH_challenge.json`.
fn write_bench_summary() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let engine = EngineConfig::auto();
    let mut world = {
        let _span = caf_obs::span("bench.challenge.world");
        World::generate_states_on(synth(), &UsState::study_states(), engine)
    };
    let batch = sample_batch(&world);
    let total_cells: usize = world.states.iter().map(|sw| sw.geography.cbgs.len()).sum();
    let mut inc = {
        let _span = caf_obs::span("bench.challenge.build");
        IncrementalAudit::build(audit(engine), &world, engine)
    };

    let full_audit = audit(engine);
    let full_wall = {
        let _span = caf_obs::span("bench.challenge.full_rebuild");
        let start = Instant::now();
        black_box(full_audit.run_with(&world, engine).row_count());
        start.elapsed().as_secs_f64()
    };

    let mut dirty_cells = 0;
    let incremental_wall = {
        let _span = caf_obs::span("bench.challenge.incremental");
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let outcome = world.apply_deltas(&batch).expect("valid batch");
            dirty_cells = outcome.dirty_cells();
            inc.refresh(&world, &outcome, engine);
        }
        start.elapsed().as_secs_f64() / f64::from(ROUNDS)
    };
    caf_obs::set_enabled(false);

    let speedup = full_wall / incremental_wall.max(f64::EPSILON);
    let deltas_per_s = batch.len() as f64 / incremental_wall.max(f64::EPSILON);
    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_challenge".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("scale".to_string(), SCALE.to_string());
    meta.insert("workers".to_string(), engine.workers.to_string());
    meta.insert("deltas_per_batch".to_string(), batch.len().to_string());
    meta.insert("dirty_cells".to_string(), dirty_cells.to_string());
    meta.insert("total_cells".to_string(), total_cells.to_string());
    meta.insert("rounds".to_string(), ROUNDS.to_string());
    meta.insert("full_wall_s".to_string(), format!("{full_wall:.4}"));
    meta.insert(
        "incremental_wall_s".to_string(),
        format!("{incremental_wall:.4}"),
    );
    meta.insert("incremental_speedup".to_string(), format!("{speedup:.2}"));
    meta.insert("deltas_per_s".to_string(), format!("{deltas_per_s:.1}"));
    let report = caf_obs::RunReport::collect(meta);
    let dir = std::env::var("CAF_BENCH_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let path = std::path::Path::new(&dir).join("BENCH_challenge.json");
    let mut line = report.to_json();
    line.push('\n');
    match std::fs::write(&path, line) {
        Ok(()) => eprintln!(
            "wrote bench summary to {} (incremental speedup {speedup:.2}x over {} cells)",
            path.display(),
            total_cells
        ),
        Err(error) => eprintln!("cannot write {}: {error}", path.display()),
    }
}

fn main() {
    write_bench_summary();
}
