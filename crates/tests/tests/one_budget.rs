//! The caller's `EngineConfig` is the only thread budget of a scenario:
//! no pool that the Q1/Q2 build, the Q3 analysis or the incremental
//! audit starts has more lanes than the engine, BQT campaigns included.
//! A pool of `n` lanes records the gauges `caf.exec.worker.<i>.*` for
//! `i < n`, and an inline (one-lane) run records none. Checked in its
//! own test process, because it reads the global telemetry registry.

use caf_core::pipeline::{self, campaign_config, Scenario};
use caf_core::{EngineConfig, IncrementalAudit};
use caf_geo::UsState;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};

const SEED: u64 = 0xCAF_2024;

/// The names of every `caf.exec.worker.*` gauge recorded so far.
fn worker_gauges() -> Vec<String> {
    caf_obs::registry()
        .metrics_snapshot()
        .gauges
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("caf.exec.worker."))
        .collect()
}

/// Runs every stage under `engine` on a cleared registry and returns
/// the worker gauges it recorded: the Q1/Q2 scenario, the Q3 world and
/// analysis, and an incremental audit built and refreshed by a
/// three-cell challenge batch.
fn pools_under(engine: EngineConfig) -> Vec<String> {
    caf_obs::registry().reset();
    let synth = SynthConfig {
        seed: SEED,
        scale: 40,
    };
    let states = [UsState::Vermont, UsState::Utah, UsState::Alabama];
    let campaign = campaign_config(SEED, engine);
    let scenario = Scenario::build(synth, &states, engine, campaign, &[])
        .expect("an empty delta stream cannot fail validation");
    assert!(scenario.dataset.row_count() > 0);

    let (_, q3) = pipeline::build_q3(
        SynthConfig {
            seed: SEED,
            scale: 60,
        },
        engine,
        campaign,
    );
    assert!(!q3.blocks.is_empty());

    let mut world = World::generate_states_on(synth, &states, engine);
    let mut inc = IncrementalAudit::build(scenario.audit, &world, engine);
    let vt = world.state(UsState::Vermont).expect("Vermont generated");
    let deltas: Vec<ChallengeDelta> = [0usize, 2, 4]
        .into_iter()
        .map(|cbg| ChallengeDelta {
            state: UsState::Vermont,
            cbg,
            isp: vt.geography.cbgs[cbg].isp,
            correction: Correction::Availability { rate_ppm: 90_000 },
        })
        .collect();
    let outcome = world.apply_deltas(&deltas).expect("valid deltas");
    inc.refresh(&world, &outcome, engine);
    assert_eq!(inc.epoch(), 3);
    worker_gauges()
}

#[test]
fn no_pool_has_more_lanes_than_the_engine() {
    caf_obs::set_enabled(true);

    // A serial engine runs everything inline: no pool at all.
    let serial = pools_under(EngineConfig::serial());
    assert!(
        serial.is_empty(),
        "a serial engine started a pool: {serial:?}"
    );

    // Two workers: lanes 0 and 1 only. Lane 1 shows the budget is used.
    let two = pools_under(EngineConfig::with_workers(2));
    assert!(
        two.iter()
            .any(|name| name.starts_with("caf.exec.worker.1.")),
        "two workers never ran a second lane: {two:?}"
    );
    let wider: Vec<&String> = two
        .iter()
        .filter(|name| {
            !name.starts_with("caf.exec.worker.0.") && !name.starts_with("caf.exec.worker.1.")
        })
        .collect();
    assert!(
        wider.is_empty(),
        "a pool ran more lanes than two workers: {wider:?}"
    );
}
