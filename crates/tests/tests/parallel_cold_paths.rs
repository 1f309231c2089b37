//! Cold-path determinism regression: world generation, the Q3 analysis
//! and bootstrap resampling must produce **identical** output at any
//! worker count, mirroring what `determinism.rs` pins for the audit hot
//! path.
//!
//! These paths run on `caf_exec::map_units` shard plans with
//! entity-keyed randomness (per-CBG and per-block streams for world
//! generation, per-query streams for the Q3 campaigns, per-replicate
//! streams for the bootstrap), so neither the
//! worker count nor the shard policy can move anything but wall-clock
//! time. The worker count for the parallel side is taken from the
//! `CAF_EQUIV_WORKERS` environment variable (default 4) so CI can
//! exercise two different pool shapes against the same pinned serial
//! fingerprint; the shard-policy matrix is pinned explicitly via
//! `EngineConfig::with_shard_policy`.

use caf_core::{artifact, EngineConfig, Q3Analysis, ServiceabilityAnalysis, ShardPolicy};
use caf_geo::UsState;
use caf_snap::{fnv1a, Writer};
use caf_stats::{bootstrap_ci, bootstrap_ci_on, bootstrap_indices_ci, bootstrap_indices_ci_on};
use caf_synth::{SynthConfig, World};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEED: u64 = 0xCAF_C01D;
const SCALE: u32 = 40;

/// Worker count for the parallel side of every equivalence check.
fn equiv_workers() -> usize {
    std::env::var("CAF_EQUIV_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn states() -> [UsState; 4] {
    [
        UsState::Alabama,
        UsState::Mississippi,
        UsState::NewHampshire,
        UsState::Vermont,
    ]
}

/// A content fingerprint of a generated world: FNV-1a of its canonical
/// `caf-snap` encoding, which covers every state's geography, followed
/// by the `Debug` form of every USAC record's truth lookup. Q1 truth is
/// drawn on demand and the USAC records are built on first read, so the
/// encoding alone holds neither. (Q3 blocks are no part of a world: the
/// Q3 analysis draws them, and the test below pins its artifact.)
fn world_fingerprint(world: &World) -> u64 {
    let mut w = Writer::new();
    w.put(world);
    let mut bytes = w.into_bytes();
    for r in world.states.iter().flat_map(|sw| &sw.usac.records) {
        let lookup = world.truth.get(r.address.id, r.isp);
        bytes.extend_from_slice(format!("{lookup:?}\n").as_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn worker_count_does_not_change_generated_world() {
    let config = SynthConfig {
        seed: SEED,
        scale: SCALE,
    };
    let serial = World::generate_states(config, &states());
    let serial_print = world_fingerprint(&serial);

    let workers = equiv_workers();
    let parallel =
        World::generate_states_on(config, &states(), EngineConfig::with_workers(workers));
    assert_eq!(
        world_fingerprint(&parallel),
        serial_print,
        "world fingerprint diverged at {workers} workers"
    );

    // Guard against the degenerate explanation (a fingerprint blind to
    // its input would also be "deterministic").
    let other = World::generate_states(
        SynthConfig {
            seed: SEED ^ 0x5DEECE66D,
            scale: SCALE,
        },
        &states(),
    );
    assert_ne!(
        world_fingerprint(&other),
        serial_print,
        "distinct seeds must produce distinct worlds"
    );
}

/// The Q3 analysis runs one unit per Q3 state on the campaign's
/// workers, each drawing, querying and classifying its state's blocks:
/// the artifact bytes are the same at one worker and at the CI-varied
/// count.
#[test]
fn campaign_workers_do_not_change_the_q3_artifact() {
    let synth = SynthConfig {
        seed: SEED,
        scale: SCALE,
    };
    let workers = equiv_workers();
    let world =
        || World::generate_states_on(synth, &UsState::q3_states(), EngineConfig::with_workers(2));
    let q3_bytes = |world: &World, workers: usize| {
        let campaign = caf_bqt::CampaignConfig {
            seed: SEED,
            workers,
            ..caf_bqt::CampaignConfig::default()
        };
        artifact::to_canonical_bytes(&artifact::q3(&Q3Analysis::run(world, campaign)))
    };
    let serial = q3_bytes(&world(), 1);
    assert_eq!(
        q3_bytes(&world(), workers),
        serial,
        "Q3 artifact diverged at {workers} campaign workers"
    );
}

#[test]
fn worker_count_does_not_change_bootstrap_cis() {
    let workers = equiv_workers();

    // Synthetic but non-trivial sample: a deterministic sawtooth with a
    // heavy tail, so the replicate means actually spread.
    let sample: Vec<f64> = (0..257)
        .map(|i| ((i * 37 % 101) as f64) + if i % 11 == 0 { 50.0 } else { 0.0 })
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;

    let serial = bootstrap_ci(&sample, mean, 500, 0.95, SEED).unwrap();
    for w in [1usize, workers] {
        let engine = EngineConfig::with_workers(w);
        let parallel = bootstrap_ci_on(engine, &sample, mean, 500, 0.95, SEED).unwrap();
        assert_eq!(serial, parallel, "bootstrap_ci diverged at {w} workers");
    }

    // The index variant shares the same replicate streams.
    let indexed = bootstrap_indices_ci(
        sample.len(),
        |idx| idx.iter().map(|&i| sample[i]).sum::<f64>() / idx.len() as f64,
        500,
        0.95,
        SEED,
    )
    .unwrap();
    assert_eq!(serial, indexed);
    let indexed_parallel = bootstrap_indices_ci_on(
        EngineConfig::with_workers(workers),
        sample.len(),
        |idx| idx.iter().map(|&i| sample[i]).sum::<f64>() / idx.len() as f64,
        500,
        0.95,
        SEED,
    )
    .unwrap();
    assert_eq!(serial, indexed_parallel);
}

/// Shard-policy bit-identity: world, audit, and bootstrap artifacts
/// must hash identically whether giant units are split to the bone
/// (one element per shard), split by the default cost threshold, or
/// not split at all — at every worker count. This is the acceptance
/// contract of the cost-aware scheduler: shard boundaries move wall
/// clock, never bytes.
#[test]
fn shard_policy_does_not_change_any_artifact() {
    let synth = SynthConfig { seed: 7, scale: 30 };
    let run = |engine: EngineConfig| {
        let world = World::generate_states_on(synth, &states()[..2], engine);
        let audit = caf_core::Audit::new(caf_core::AuditConfig {
            synth,
            campaign: caf_bqt::CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..caf_bqt::CampaignConfig::default()
            },
            rule: caf_core::SamplingRule::paper(),
            resample_rounds: 1,
        });
        let dataset = audit.run_with(&world, engine);
        let ci = ServiceabilityAnalysis::compute(&dataset)
            .overall_rate_ci_on(engine, 400, 0.95, 99)
            .unwrap();
        let mut h = DefaultHasher::new();
        world_fingerprint(&world).hash(&mut h);
        format!("{:?}", dataset.rows).hash(&mut h);
        format!("{:?}", dataset.records).hash(&mut h);
        format!("{ci:?}").hash(&mut h);
        h.finish()
    };
    let baseline = run(EngineConfig::serial().with_shard_policy(ShardPolicy::disabled()));
    for policy in [
        ShardPolicy::finest(),
        ShardPolicy::default_policy(),
        ShardPolicy::disabled(),
    ] {
        for workers in [1usize, 2, 4] {
            let hash = run(EngineConfig::with_workers(workers).with_shard_policy(policy));
            assert_eq!(
                hash, baseline,
                "artifacts diverged under {policy:?} at {workers} workers"
            );
        }
    }
}

#[test]
fn worker_count_does_not_change_pipeline_cis() {
    // End to end: the Q1 serviceability CI resamples real audit rows
    // through the engine-aware bootstrap. Serial and parallel runs of
    // the full world → audit → CI pipeline must agree to the bit.
    let workers = equiv_workers();
    let synth = SynthConfig { seed: 7, scale: 30 };
    let run = |engine: EngineConfig| {
        let world = World::generate_states_on(synth, &states()[..2], engine);
        let audit = caf_core::Audit::new(caf_core::AuditConfig {
            synth,
            campaign: caf_bqt::CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..caf_bqt::CampaignConfig::default()
            },
            rule: caf_core::SamplingRule::paper(),
            resample_rounds: 1,
        });
        let dataset = audit.run_with(&world, engine);
        let analysis = ServiceabilityAnalysis::compute(&dataset);
        analysis.overall_rate_ci_on(engine, 400, 0.95, 99).unwrap()
    };
    let serial = run(EngineConfig::serial());
    let parallel = run(EngineConfig::with_workers(workers));
    assert_eq!(
        serial, parallel,
        "pipeline CI diverged at {workers} workers"
    );
}
