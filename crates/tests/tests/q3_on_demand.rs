//! A state's Q3 blocks and their truth are built the first time
//! something reads them, and only then. Checked in its own test
//! process, so the global registry's `caf.synth.q3.*` counters count
//! only this file's builds.

use caf_bqt::CampaignConfig;
use caf_core::pipeline::{campaign_config, Scenario};
use caf_core::{EngineConfig, Q3Analysis};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::sync::Barrier;

const SEED: u64 = 0xCAF_2024;

fn counter(name: &str) -> u64 {
    caf_obs::registry().counter(name).get()
}

fn states_built() -> u64 {
    counter("caf.synth.q3.states_built")
}

#[test]
fn q3_worlds_are_built_once_per_read_state() {
    caf_obs::set_enabled(true);
    let engine = EngineConfig::with_workers(2);

    // The Q1/Q2 pipeline reads no Q3 block: a scenario over every study
    // state (seven of them Q3 states) builds none.
    let before = states_built();
    let scenario = Scenario::build(
        SynthConfig {
            seed: SEED,
            scale: 30,
        },
        &UsState::study_states(),
        engine,
        campaign_config(SEED, engine),
        &[],
    )
    .expect("an empty delta stream cannot fail validation");
    assert!(!scenario.dataset.rows.is_empty());
    assert_eq!(states_built() - before, 0);
    assert!(scenario.world.states.iter().all(|sw| !sw.q3.is_built()));

    // Cloning an unbuilt world builds nothing, USAC records included.
    let fresh = World::generate_states_on(
        SynthConfig {
            seed: SEED,
            scale: 10,
        },
        &UsState::q3_states(),
        engine,
    );
    let (usac_before, q3_before) = (counter("caf.synth.usac.states_built"), states_built());
    let copy = fresh.clone();
    assert_eq!(counter("caf.synth.usac.states_built"), usac_before);
    assert_eq!(states_built(), q3_before);
    assert!(copy
        .states
        .iter()
        .all(|sw| !sw.q3.is_built() && !sw.usac.is_built()));

    // The Q3 analysis builds each of the seven Q3 states exactly once,
    // on two lanes; a second run over the same world builds nothing.
    let campaign = CampaignConfig {
        seed: SEED,
        workers: 2,
        ..CampaignConfig::default()
    };
    let (states, blocks) = (states_built(), counter("caf.synth.q3.blocks_built"));
    let q3 = Q3Analysis::run(&fresh, campaign);
    assert!(!q3.blocks.is_empty());
    assert_eq!(states_built() - states, 7);
    let generated: usize = fresh.states.iter().map(|sw| sw.q3.blocks.len()).sum();
    assert_eq!(
        counter("caf.synth.q3.blocks_built") - blocks,
        generated as u64
    );
    let again = Q3Analysis::run(&fresh, campaign);
    assert_eq!(again.blocks.len(), q3.blocks.len());
    assert_eq!(states_built() - states, 7);
    assert!(fresh.states.iter().all(|sw| !sw.usac.is_built()));
    // The clone taken before the run is still unbuilt.
    assert!(copy.states.iter().all(|sw| !sw.q3.is_built()));

    // Two threads reading one unbuilt state build it once between them.
    let world = World::generate_states(
        SynthConfig {
            seed: SEED,
            scale: 40,
        },
        &[UsState::Ohio],
    );
    let sw = &world.states[0];
    let before = states_built();
    let barrier = Barrier::new(2);
    let lens: Vec<usize> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    sw.q3.blocks.len()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(lens[0], lens[1]);
    assert!(lens[0] > 0);
    assert_eq!(states_built() - before, 1);

    // Each unit is charged to its own `q3.<ABBREV>` span under the
    // analysis's `q3` span, and the build to its state's world span.
    let spans = caf_obs::registry().span_snapshot();
    let paths: Vec<&String> = spans.iter().map(|(path, _)| path).collect();
    assert!(paths.iter().any(|p| p.ends_with("q3.OH")), "{paths:?}");
    assert!(
        paths
            .iter()
            .any(|p| p.contains("q3.CA") && p.ends_with("/world.CA")),
        "{paths:?}"
    );
    caf_obs::set_enabled(false);
}
