//! A state's Q3 blocks and their truth are drawn only by the Q3
//! analysis, once per state per run, and stored nowhere. Checked in its
//! own test process, so the global registry's `caf.synth.q3.*` counters
//! count only this file's draws.

use caf_bqt::CampaignConfig;
use caf_core::pipeline::{campaign_config, Scenario};
use caf_core::{EngineConfig, Q3Analysis};
use caf_geo::UsState;
use caf_synth::{Q3World, SynthConfig, World};

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
    // state (seven of them Q3 states) draws none.
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

    // Cloning an unbuilt world builds nothing, USAC records included.
    let synth = SynthConfig {
        seed: SEED,
        scale: 10,
    };
    let fresh = World::generate_states_on(synth, &UsState::q3_states(), engine);
    let (usac_before, q3_before) = (counter("caf.synth.usac.states_built"), states_built());
    let copy = fresh.clone();
    assert_eq!(counter("caf.synth.usac.states_built"), usac_before);
    assert_eq!(states_built(), q3_before);
    assert!(copy.states.iter().all(|sw| !sw.usac.is_built()));

    // The Q3 analysis draws each of the seven Q3 states exactly once,
    // on two lanes, and stores none: a second run over the same world
    // draws them again, to the same result.
    let campaign = CampaignConfig {
        seed: SEED,
        workers: 2,
        ..CampaignConfig::default()
    };
    let (states, blocks) = (states_built(), counter("caf.synth.q3.blocks_built"));
    let q3 = Q3Analysis::run(&fresh, campaign);
    assert!(!q3.blocks.is_empty());
    assert_eq!(states_built() - states, 7);
    let specs: usize = UsState::q3_states()
        .iter()
        .map(|&state| Q3World::block_specs(&synth, state).len())
        .sum();
    assert_eq!(counter("caf.synth.q3.blocks_built") - blocks, specs as u64);
    let again = Q3Analysis::run(&fresh, campaign);
    assert_eq!(again.blocks.len(), q3.blocks.len());
    assert_eq!(states_built() - states, 14);
    assert!(fresh.states.iter().all(|sw| !sw.usac.is_built()));

    // Each unit is charged to its own `q3.<ABBREV>` span under the
    // analysis's `q3` span, draws included: no world span opens inside
    // it.
    let spans = caf_obs::registry().span_snapshot();
    let paths: Vec<&String> = spans.iter().map(|(path, _)| path).collect();
    assert!(paths.iter().any(|p| p.ends_with("q3.OH")), "{paths:?}");
    assert!(
        !paths
            .iter()
            .any(|p| p.contains("q3.CA") && p.contains("/world.")),
        "{paths:?}"
    );
    caf_obs::set_enabled(false);
}
