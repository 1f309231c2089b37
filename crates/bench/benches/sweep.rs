//! Bench for the cost-aware counterfactual policy sweep engine: grid
//! wall-clock as a function of worker count over a fixed policy grid.
//!
//! The harness performs instrumented measurement passes and writes a one-line machine-readable summary to
//! `BENCH_sweep.json` at the repository root (or `$CAF_BENCH_DIR`) —
//! the same run-report format as the other bench baselines. Key
//! metadata:
//!
//! * `sweep_speedup_4_workers` — 1-worker grid wall over 4-worker grid
//!   wall (`metrics_check --min-sweep-speedup` gates on it on ≥4-core
//!   hosts).
//! * `sweep_cells_per_s` — grid throughput at 4 workers.
//! * `sweep_steals_4_workers` — shards migrated by the stealing
//!   executor during the 4-worker pass.
//! * `sweep_cache_hit_ratio` — hit ratio of a content-addressed memo
//!   (keyed by `ScenarioKey`, the `/v1/sweep` cache key) under a 2×
//!   re-run of the same grid: the second pass must hit on every cell.
//! * `sweep_deterministic` — whether the 1-worker run and the 4-worker
//!   run emit byte-identical canonical artifacts.

use caf_core::artifact::to_canonical_bytes;
use caf_sweep::{
    results_artifact, run_world, world_groups, ScenarioKey, SweepOptions, SweepRun, SweepSpec,
};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0xCAF_2024;

/// A grid heavy enough to measure scheduling against: four Q3-capable
/// states at a small scale divisor (`scale` divides the paper counts,
/// so 20 yields worlds large enough that per-cell pipeline cost dwarfs
/// thread-dispatch noise), two speed tiers, two subsidy rules — 16
/// cells with a skewed per-state cost profile (California and Georgia
/// dwarf New Hampshire), exactly the imbalance the cost-aware planner
/// and stealing executor exist to absorb.
fn bench_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "seed": 212803620,
            "states": ["CA", "GA", "UT", "NH"],
            "scales": [20],
            "speed_tiers": ["10_1", "25_3"],
            "price_cap_multipliers": [1.0],
            "subsidy_rules": ["status_quo", "full_buildout"]
        }"#,
    )
    .expect("bench spec is valid")
}

/// Median of three timed passes after one untimed warmup.
fn median_of_3(run: &mut dyn FnMut() -> f64) -> f64 {
    run(); // warmup
    let mut samples = [run(), run(), run()];
    samples.sort_by(f64::total_cmp);
    samples[1]
}

fn write_bench_summary() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let spec = bench_spec();
    let cells = spec.cells();

    let mut wall = std::collections::BTreeMap::new();
    let mut steals_4w = 0u64;
    for workers in [1usize, 4] {
        let _span = caf_obs::span_with(|| format!("bench.sweep.workers_{workers}"));
        let seconds = median_of_3(&mut || {
            let start = Instant::now();
            let run = SweepRun::run(&spec, SweepOptions { workers });
            if workers == 4 {
                steals_4w = run.steals;
            }
            black_box(run.results.len());
            start.elapsed().as_secs_f64()
        });
        wall.insert(workers, seconds);
    }

    // Determinism: the 1-worker run and the 4-worker run must render
    // the same canonical artifact byte-for-byte.
    let deterministic = {
        let _span = caf_obs::span_with(|| "bench.sweep.determinism".to_string());
        let serial = SweepRun::run(&spec, SweepOptions { workers: 1 });
        let parallel = SweepRun::run(&spec, SweepOptions { workers: 4 });
        to_canonical_bytes(&results_artifact(&serial))
            == to_canonical_bytes(&results_artifact(&parallel))
    };

    // Cache hit ratio under a 2× re-run: a content-addressed memo keyed
    // by `ScenarioKey` (the same key `/v1/sweep` caches under) misses on
    // every first-pass cell and must hit on every second-pass cell.
    let (hit_ratio, lookups) = {
        let _span = caf_obs::span_with(|| "bench.sweep.rerun_memo".to_string());
        let mut memo: std::collections::HashMap<ScenarioKey, u64> =
            std::collections::HashMap::new();
        let mut hits = 0u64;
        let mut lookups = 0u64;
        for _pass in 0..2 {
            for group in world_groups(&spec, &cells) {
                // A missed cell runs its whole world group, at most once
                // per pass, as a `/v1/sweep` miss does.
                let mut world: Option<Vec<u64>> = None;
                for (i, cell) in group.iter().enumerate() {
                    lookups += 1;
                    let key = cell.key(spec.seed);
                    if let std::collections::hash_map::Entry::Vacant(slot) = memo.entry(key) {
                        let records = world.get_or_insert_with(|| {
                            run_world(spec.seed, group)
                                .iter()
                                .map(|r| r.records)
                                .collect()
                        });
                        slot.insert(records[i]);
                    } else {
                        hits += 1;
                    }
                }
            }
        }
        (hits as f64 / lookups as f64, lookups)
    };
    caf_obs::set_enabled(false);

    let speedup_4w = wall[&1] / wall[&4].max(f64::EPSILON);
    let cells_per_s = cells.len() as f64 / wall[&4].max(f64::EPSILON);

    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_sweep".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("sweep_cells".to_string(), cells.len().to_string());
    meta.insert("sweep_memo_lookups".to_string(), lookups.to_string());
    meta.insert("workers".to_string(), "1,4".to_string());
    meta.insert(
        "sweep_speedup_4_workers".to_string(),
        format!("{speedup_4w:.2}"),
    );
    meta.insert("sweep_cells_per_s".to_string(), format!("{cells_per_s:.1}"));
    meta.insert("sweep_steals_4_workers".to_string(), steals_4w.to_string());
    meta.insert(
        "sweep_cache_hit_ratio".to_string(),
        format!("{hit_ratio:.2}"),
    );
    meta.insert("sweep_deterministic".to_string(), deterministic.to_string());
    for (workers, seconds) in &wall {
        meta.insert(
            format!("sweep_wall_s_workers_{workers}"),
            format!("{seconds:.3}"),
        );
    }
    let report = caf_obs::RunReport::collect(meta);
    let dir = std::env::var("CAF_BENCH_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let path = std::path::Path::new(&dir).join("BENCH_sweep.json");
    let mut line = report.to_json();
    line.push('\n');
    match std::fs::write(&path, line) {
        Ok(()) => eprintln!(
            "wrote bench summary to {} (4-worker speedup {speedup_4w:.2}x, \
             {cells_per_s:.1} cells/s, steals {steals_4w}, hit ratio {hit_ratio:.2}, \
             deterministic {deterministic})",
            path.display(),
        ),
        Err(error) => eprintln!("cannot write {}: {error}", path.display()),
    }
    assert!(
        deterministic,
        "sweep emissions must be byte-identical at any worker count"
    );
    assert!(
        (hit_ratio - 0.5).abs() < 1e-9,
        "a 2x re-run must hit on exactly the second pass, got {hit_ratio}"
    );
}

fn main() {
    write_bench_summary();
}
