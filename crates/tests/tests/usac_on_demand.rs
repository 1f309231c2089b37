//! A state's USAC records are built only when something reads a record
//! field, once per state. Checked in its own test process, so the
//! global registry's `caf.synth.usac.*` counters count only this file's
//! builds.

use caf_bqt::CampaignConfig;
use caf_core::{Audit, AuditConfig, EngineConfig, Q3Analysis, SamplingRule, ShardPolicy};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::sync::Barrier;

const SEED: u64 = 0xCAF_2024;

fn counter(name: &str) -> u64 {
    caf_obs::registry().counter(name).get()
}

fn states_built() -> u64 {
    counter("caf.synth.usac.states_built")
}

#[test]
fn usac_records_are_built_once_per_read_state() {
    caf_obs::set_enabled(true);
    let campaign = CampaignConfig {
        seed: SEED,
        workers: 2,
        ..CampaignConfig::default()
    };
    let engine = EngineConfig::with_workers(2);

    // The Q3 analysis reads blocks, never the CAF-Map records: a fresh
    // 1:10 Q3 world stays unbuilt through it.
    let before = states_built();
    let q3_world = World::generate_states_on(
        SynthConfig {
            seed: SEED,
            scale: 10,
        },
        &UsState::q3_states(),
        engine,
    );
    let q3 = Q3Analysis::run(&q3_world, campaign);
    assert!(!q3.blocks.is_empty());
    assert_eq!(states_built() - before, 0);
    assert!(q3_world.states.iter().all(|sw| !sw.usac.is_built()));

    // The audit reads address ids off the geography: it builds no
    // record, even with states split into shards on two workers.
    let synth = SynthConfig {
        seed: SEED,
        scale: 60,
    };
    let world = World::generate_states_on(
        synth,
        &[UsState::Vermont, UsState::Ohio, UsState::Alabama],
        engine,
    );
    let (states, records) = (states_built(), counter("caf.synth.usac.records_built"));
    let audit = Audit::new(AuditConfig {
        synth,
        campaign,
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let full = audit.run_with(&world, engine.with_shard_policy(ShardPolicy::finest()));
    assert!(full.row_count() > 0);
    assert_eq!(states_built() - states, 0);
    assert_eq!(counter("caf.synth.usac.records_built") - records, 0);
    assert!(world.states.iter().all(|sw| !sw.usac.is_built()));

    // A direct read builds its state, once, and only its state.
    let ohio = world.state(UsState::Ohio).expect("generated");
    assert!(!ohio.usac.records.is_empty());
    assert!(!ohio.usac.records.is_empty());
    assert_eq!(states_built() - states, 1);
    let built: Vec<bool> = world.states.iter().map(|sw| sw.usac.is_built()).collect();
    assert_eq!(built, [false, true, false]);
    for sw in &world.states {
        assert!(!sw.usac.records.is_empty());
    }
    assert_eq!(states_built() - states, 3);
    assert_eq!(
        counter("caf.synth.usac.records_built") - records,
        world.total_caf_addresses()
    );

    // Two threads reading one unbuilt state build it once between them.
    let world = World::generate_states(synth, &[UsState::Vermont]);
    let sw = &world.states[0];
    let before = states_built();
    let barrier = Barrier::new(2);
    let lens: Vec<usize> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    sw.usac.records.len()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(lens[0], lens[1]);
    assert_eq!(lens[0] as u64, world.total_caf_addresses());
    assert_eq!(states_built() - before, 1);

    // The build is charged to its state's world span.
    let spans = caf_obs::registry().span_snapshot();
    assert!(
        spans.iter().any(|(path, _)| path.ends_with("world.OH")),
        "{:?}",
        spans.iter().map(|(path, _)| path).collect::<Vec<_>>()
    );
    caf_obs::set_enabled(false);
}
