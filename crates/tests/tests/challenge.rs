//! The incremental-recompute determinism contract, exercised across
//! crates: folding a challenge delta stream into a live world with
//! [`IncrementalAudit::refresh`] must produce **byte-identical**
//! artifacts to regenerating the world and re-auditing it from scratch
//! at the same epoch — at any worker count, under any shard policy, and
//! for any batch decomposition of the stream.
//!
//! This is the property that lets `caf-serve` answer a historical-epoch
//! query by rebuilding from the delta log prefix, and lets `ci.sh`
//! byte-diff `challenge_replay --mode incremental` against
//! `--mode full`.

use caf_bqt::CampaignConfig;
use caf_core::{
    artifact, Audit, AuditConfig, AuditDataset, AuditIndex, ComplianceAnalysis, EngineConfig,
    IncrementalAudit, SamplingRule, ScenarioMeta, ServiceabilityAnalysis, ShardPolicy,
};
use caf_geo::{BlockGroupId, UsState};
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::collections::BTreeSet;
use std::sync::Arc;

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 40;

fn states() -> [UsState; 4] {
    [
        UsState::Alabama,
        UsState::NewHampshire,
        UsState::Utah,
        UsState::Vermont,
    ]
}

fn audit_at(seed: u64) -> Audit {
    Audit::new(AuditConfig {
        synth: SynthConfig { seed, scale: SCALE },
        campaign: CampaignConfig {
            seed,
            workers: 8,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    })
}

fn world_at(seed: u64) -> World {
    World::generate_states(SynthConfig { seed, scale: SCALE }, &states())
}

/// A delta stream touching every study state in the fixture, with both
/// correction kinds and a deliberate overwrite (last-writer-wins). ISPs
/// are resolved from the world's geography, since the cell -> ISP
/// assignment is RNG-dependent.
fn sample_stream(world: &World) -> Vec<ChallengeDelta> {
    let cell = |state: UsState, cbg: usize, correction: Correction| {
        let sw = world
            .states
            .iter()
            .find(|sw| sw.state == state)
            .expect("state in world");
        assert!(cbg < sw.geography.cbgs.len(), "cbg in range for {state:?}");
        ChallengeDelta {
            state,
            cbg,
            isp: sw.geography.cbgs[cbg].isp,
            correction,
        }
    };
    vec![
        cell(
            UsState::Alabama,
            0,
            Correction::Availability { rate_ppm: 90_000 },
        ),
        cell(
            UsState::Vermont,
            0,
            Correction::CertifiedTier {
                down_mbps: 25,
                up_mbps: 3,
            },
        ),
        cell(
            UsState::Utah,
            1,
            Correction::Availability { rate_ppm: 640_000 },
        ),
        cell(
            UsState::NewHampshire,
            0,
            Correction::Availability { rate_ppm: 10_000 },
        ),
        // Overwrites the first Alabama correction and composes a tier
        // correction onto the same cell.
        cell(
            UsState::Alabama,
            0,
            Correction::Availability { rate_ppm: 250_000 },
        ),
        cell(
            UsState::Alabama,
            0,
            Correction::CertifiedTier {
                down_mbps: 100,
                up_mbps: 10,
            },
        ),
    ]
}

/// The full canonical artifact bundle at the dataset's epoch: the exact
/// bytes `repro --artifacts`, `caf-serve`, and `challenge_replay` emit.
fn canonical_bundle(dataset: &AuditDataset, epoch: u64) -> String {
    let index = AuditIndex::build_at(dataset, epoch);
    assert_eq!(index.epoch(), epoch);
    let serviceability = ServiceabilityAnalysis::from_index(&index);
    let compliance = ComplianceAnalysis::from_index(dataset, &index);
    let meta = ScenarioMeta::new(SEED, SCALE).at_epoch(epoch);
    [
        artifact::serviceability(&serviceability, None),
        artifact::compliance(&compliance, dataset, None),
        artifact::table2(dataset),
    ]
    .into_iter()
    .map(|body| artifact::to_canonical_bytes(&meta.wrap(body)))
    .collect()
}

#[test]
fn incremental_refresh_matches_fresh_rebuild_across_engines() {
    // The from-scratch truth: regenerate the world, fold the whole
    // stream in one batch, audit everything.
    let audit = audit_at(SEED);
    let mut fresh_world = world_at(SEED);
    let deltas = sample_stream(&fresh_world);
    fresh_world
        .apply_deltas(&deltas)
        .expect("stream is valid against its own world");
    let expected_records: Vec<_> = audit
        .run_with(&fresh_world, EngineConfig::serial())
        .records()
        .cloned()
        .collect();
    let expected = canonical_bundle(
        &audit.run_with(&fresh_world, EngineConfig::serial()),
        fresh_world.epoch,
    );

    for workers in [1usize, 2, 4] {
        for policy in [
            ShardPolicy::finest(),
            ShardPolicy::default_policy(),
            ShardPolicy::disabled(),
        ] {
            let engine = EngineConfig::with_workers(workers).with_shard_policy(policy);
            let mut world = world_at(SEED);
            let mut inc = IncrementalAudit::build(audit_at(SEED), &world, engine);
            let outcome = world.apply_deltas(&deltas).expect("valid stream");
            inc.refresh(&world, &outcome, engine);
            assert_eq!(world.epoch, fresh_world.epoch);

            let dataset = inc.dataset();
            assert_eq!(
                dataset.records().cloned().collect::<Vec<_>>(),
                expected_records,
                "query records diverged at {workers} workers / {policy:?}"
            );
            assert_eq!(
                canonical_bundle(&dataset, world.epoch),
                expected,
                "artifact bytes diverged at {workers} workers / {policy:?}"
            );
        }
    }
}

#[test]
fn batch_decomposition_does_not_change_the_result() {
    let probe = world_at(SEED);
    let deltas = sample_stream(&probe);
    let engine = EngineConfig::with_workers(2);

    // Apply the same stream three ways: one batch, singleton batches,
    // and pairs. Same final epoch, same bytes.
    let bundles: Vec<(u64, String)> = [deltas.len(), 1, 2]
        .into_iter()
        .map(|batch| {
            let mut world = world_at(SEED);
            let mut inc = IncrementalAudit::build(audit_at(SEED), &world, engine);
            for chunk in deltas.chunks(batch) {
                let outcome = world.apply_deltas(chunk).expect("valid chunk");
                assert_eq!(outcome.applied, chunk.len());
                inc.refresh(&world, &outcome, engine);
            }
            assert_eq!(world.epoch, deltas.len() as u64);
            (world.epoch, canonical_bundle(&inc.dataset(), world.epoch))
        })
        .collect();
    assert_eq!(bundles[0], bundles[1], "singleton batches diverged");
    assert_eq!(bundles[0], bundles[2], "paired batches diverged");
}

#[test]
fn epoch_prefixes_replay_to_distinct_but_deterministic_views() {
    let probe = world_at(SEED);
    let deltas = sample_stream(&probe);
    let engine = EngineConfig::serial();

    // Walk the incremental world delta-by-delta, capturing each epoch's
    // bundle; every prefix rebuilt from scratch must land on the same
    // bytes (this is how caf-serve answers historical-epoch queries).
    let mut world = world_at(SEED);
    let mut inc = IncrementalAudit::build(audit_at(SEED), &world, engine);
    let mut walked = vec![canonical_bundle(&inc.dataset(), 0)];
    for delta in &deltas {
        let outcome = world
            .apply_deltas(std::slice::from_ref(delta))
            .expect("valid delta");
        inc.refresh(&world, &outcome, engine);
        walked.push(canonical_bundle(&inc.dataset(), world.epoch));
    }

    for epoch in [0usize, 1, 4, deltas.len()] {
        let mut prefix_world = world_at(SEED);
        if epoch > 0 {
            prefix_world
                .apply_deltas(&deltas[..epoch])
                .expect("valid prefix");
        }
        let dataset = audit_at(SEED).run_with(&prefix_world, engine);
        assert_eq!(
            canonical_bundle(&dataset, epoch as u64),
            walked[epoch],
            "epoch {epoch} prefix rebuild diverged from the walked view"
        );
    }

    // Distinct epochs are genuinely distinct views, not a no-op chain
    // (the availability corrections move rates, which moves artifacts).
    assert_ne!(walked[0], walked[deltas.len()]);
}

/// A write rebuilds only its dirty cells: after each refresh, every
/// clean cell of the new dataset is the very cell (the same allocation)
/// the dataset held before the write, and exactly `dirty_cells()` (the
/// `cells_refreshed` a challenge response reports) cells are new.
#[test]
fn refresh_replaces_only_the_dirty_cells() {
    let engine = EngineConfig::with_workers(2);
    let mut world = world_at(SEED);
    let deltas = sample_stream(&world);
    let mut inc = IncrementalAudit::build(audit_at(SEED), &world, engine);
    // Pairs: the last pair corrects one Alabama cell twice.
    for chunk in deltas.chunks(2) {
        let before = inc.dataset();
        let outcome = world.apply_deltas(chunk).expect("valid chunk");
        inc.refresh(&world, &outcome, engine);
        let after = inc.dataset();

        let dirty: BTreeSet<(UsState, BlockGroupId)> = outcome
            .touched
            .iter()
            .flat_map(|(state, cbgs)| {
                let sw = world.state(*state).expect("touched state");
                cbgs.iter().map(move |&i| (*state, sw.geography.cbgs[i].id))
            })
            .collect();
        assert_eq!(before.cells().count(), after.cells().count());
        assert_eq!(inc.cell_count(), after.cells().count());
        let mut replaced = 0;
        for (old, new) in before.cells().zip(after.cells()) {
            assert_eq!((old.meta.isp, old.meta.cbg), (new.meta.isp, new.meta.cbg));
            let kept = Arc::ptr_eq(old, new);
            assert_eq!(
                kept,
                !dirty.contains(&(new.meta.state, new.meta.cbg)),
                "cell {} kept={kept}",
                new.meta.cbg
            );
            replaced += usize::from(!kept);
        }
        assert_eq!(replaced, outcome.dirty_cells());
    }
}
