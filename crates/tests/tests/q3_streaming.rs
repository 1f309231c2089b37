//! The streaming Q3 analysis equals the stored-world path it replaced.
//!
//! `Q3Analysis::run` draws each block, queries its tasks against the
//! just-drawn truth and classifies it from its own records. The
//! reference below is the path it replaced, rebuilt from public parts:
//! per Q3 state, a stored `Q3World::build` (blocks and a truth table),
//! the state's task list, one one-lane `Campaign::run` over it, a
//! `RecordIndex` over the records (first record wins), and the same
//! classification. The two agree only while no address id repeats
//! within a state, which the second test pins. Checked in its own test
//! process, so the global registry's `caf.bqt.campaign.*` counters
//! count only this file's campaigns.

use caf_bqt::{Campaign, CampaignConfig, QueryOutcome, QueryTask};
use caf_core::q3::{BlockComparison, BlockType};
use caf_core::{artifact, EngineConfig, Q3Analysis, RecordIndex};
use caf_geo::{Address, AddressId, UsState};
use caf_synth::q3::Q3Block;
use caf_synth::{AddressTruth, Isp, Q3Sink, Q3World, SynthConfig, World};
use std::collections::HashSet;

/// The Q3 scales covered: the paper's 1:1, repro's and the sweep's
/// small scales, and the coarse ones tests use.
const SCALES: [u32; 5] = [1, 8, 10, 40, 150];

/// The `caf.bqt.campaign.*` counters a campaign publishes.
const CAMPAIGN_COUNTERS: [&str; 11] = [
    "caf.bqt.campaign.queries",
    "caf.bqt.campaign.attempts",
    "caf.bqt.campaign.retries",
    "caf.bqt.campaign.errors",
    "caf.bqt.campaign.proxy_rotations",
    "caf.bqt.campaign.outcome.serviceable",
    "caf.bqt.campaign.outcome.no_service",
    "caf.bqt.campaign.outcome.address_not_found",
    "caf.bqt.campaign.outcome.unknown",
    "caf.bqt.campaign.outcome.call_to_order",
    "caf.bqt.campaign.throttle_wait_us",
];

/// Every `caf.bqt.campaign.*` counter, then the count and sum of the
/// `caf.bqt.campaign.query_us` histogram.
fn campaign_telemetry() -> Vec<u64> {
    let registry = caf_obs::registry();
    let mut values: Vec<u64> = CAMPAIGN_COUNTERS
        .iter()
        .map(|name| registry.counter(name).get())
        .collect();
    let query_us = registry.histogram("caf.bqt.campaign.query_us");
    values.extend([query_us.count(), query_us.sum()]);
    values
}

/// What `f` adds to [`campaign_telemetry`].
fn published_by<T>(f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    let before = campaign_telemetry();
    let value = f();
    let after = campaign_telemetry();
    let added = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (value, added)
}

/// The stored-world Q3 path: per Q3 state in world order, build the
/// blocks and their truth table, run one one-lane campaign over the
/// state's task list, index its records and classify every block.
fn stored_world_path(world: &World, campaign: CampaignConfig) -> Q3Analysis {
    let campaign = Campaign::new(CampaignConfig {
        workers: 1,
        ..campaign
    });
    let mut analysis = Q3Analysis::default();
    for sw in &world.states {
        if !UsState::q3_states().contains(&sw.state) {
            continue;
        }
        let q3 = Q3World::build(&world.config, sw.state);
        let mut tasks: Vec<QueryTask> = Vec::new();
        for block in &q3.blocks {
            for a in &block.addresses {
                let id = a.address.id;
                tasks.push(QueryTask {
                    address: id,
                    isp: block.caf_isp,
                });
                let slot = analysis
                    .queries_per_isp
                    .entry(block.caf_isp)
                    .or_insert((0, 0));
                if a.is_caf {
                    analysis.caf_queried += 1;
                    slot.0 += 1;
                } else {
                    analysis.non_caf_queried += 1;
                    slot.1 += 1;
                    for &comp in &block.competitors {
                        tasks.push(QueryTask {
                            address: id,
                            isp: comp,
                        });
                        analysis.queries_per_isp.entry(comp).or_insert((0, 0)).1 += 1;
                    }
                }
            }
        }
        let result = campaign.run(&q3.truth, &tasks);
        let outcomes = RecordIndex::build(&result.records);
        let served = |id: AddressId, isp: Isp| {
            outcomes
                .get(&result.records, id, isp)
                .filter(|r| r.outcome.is_served() == Some(true))
        };

        for block in &q3.blocks {
            let mut caf_speeds: Vec<f64> = Vec::new();
            let mut mono_speeds: Vec<f64> = Vec::new();
            let mut comp_speeds: Vec<f64> = Vec::new();
            let mut caf_cv: Vec<f64> = Vec::new();
            let mut mono_cv: Vec<f64> = Vec::new();
            let mut comp_cv: Vec<f64> = Vec::new();
            for a in &block.addresses {
                let id = a.address.id;
                let Some(record) = served(id, block.caf_isp) else {
                    continue;
                };
                let speed = record.outcome.max_download_mbps();
                let carriage = match &record.outcome {
                    QueryOutcome::Serviceable { plans, .. } => {
                        plans.first().and_then(|p| p.carriage_value())
                    }
                    _ => None,
                };
                let (speeds, cvs) = if a.is_caf {
                    analysis.caf_served += 1;
                    (&mut caf_speeds, &mut caf_cv)
                } else {
                    analysis.non_caf_served += 1;
                    let competitive = block
                        .competitors
                        .iter()
                        .any(|&comp| served(id, comp).is_some());
                    if competitive {
                        (&mut comp_speeds, &mut comp_cv)
                    } else {
                        (&mut mono_speeds, &mut mono_cv)
                    }
                };
                speeds.extend(speed);
                cvs.extend(carriage);
            }
            if caf_speeds.is_empty() || (mono_speeds.is_empty() && comp_speeds.is_empty()) {
                analysis.blocks_dropped += 1;
                continue;
            }
            let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let avg_opt = |xs: &[f64]| (!xs.is_empty()).then(|| avg(xs));
            let block_type = match (!mono_speeds.is_empty(), !comp_speeds.is_empty()) {
                (true, false) => BlockType::A,
                (false, true) => BlockType::B,
                _ => BlockType::C,
            };
            analysis.blocks.push(BlockComparison {
                block: block.id,
                state: block.state,
                caf_isp: block.caf_isp,
                block_type,
                caf_speed: avg(&caf_speeds),
                monopoly_speed: avg_opt(&mono_speeds),
                competition_speed: avg_opt(&comp_speeds),
                caf_carriage: avg_opt(&caf_cv),
                monopoly_carriage: avg_opt(&mono_cv),
                competition_carriage: avg_opt(&comp_cv),
            });
        }
    }
    analysis
}

/// Asserts that two analyses agree in every field, in the `Debug` form
/// of their blocks and in their canonical artifact bytes.
fn assert_same_analysis(streamed: &Q3Analysis, stored: &Q3Analysis, case: &str) {
    assert_eq!(
        format!("{:?}", streamed.blocks),
        format!("{:?}", stored.blocks),
        "{case}: blocks"
    );
    let counts = |q: &Q3Analysis| {
        [
            q.caf_queried,
            q.non_caf_queried,
            q.caf_served,
            q.non_caf_served,
            q.blocks_dropped,
        ]
    };
    assert_eq!(counts(streamed), counts(stored), "{case}: counts");
    assert_eq!(
        streamed.queries_per_isp, stored.queries_per_isp,
        "{case}: queries per ISP"
    );
    let bytes = |q: &Q3Analysis| artifact::to_canonical_bytes(&artifact::q3(q));
    assert_eq!(bytes(streamed), bytes(stored), "{case}: artifact bytes");
}

#[test]
fn streaming_q3_matches_the_stored_world_path() {
    caf_obs::set_enabled(true);
    let cases: [(u64, u32); 9] = [
        (7, 1),
        (11, 8),
        (0xCAF_2024, 8),
        (0xCAF_2024, 10),
        (3, 10),
        (3, 40),
        (7, 40),
        (0xCAF_2024, 150),
        (11, 150),
    ];
    assert!(SCALES.iter().all(|s| cases.iter().any(|c| c.1 == *s)));
    for (seed, scale) in cases {
        let synth = SynthConfig { seed, scale };
        let world = World::generate_states_on(synth, &UsState::q3_states(), EngineConfig::serial());
        let campaign = CampaignConfig {
            seed,
            ..CampaignConfig::default()
        };
        let (stored, stored_telemetry) = published_by(|| stored_world_path(&world, campaign));
        assert!(!stored.blocks.is_empty(), "seed {seed} 1:{scale}");
        for workers in [1usize, 2] {
            let case = format!("seed {seed} 1:{scale}, {workers} workers");
            let (streamed, telemetry) = published_by(|| {
                Q3Analysis::run(
                    &world,
                    CampaignConfig {
                        workers,
                        ..campaign
                    },
                )
            });
            assert_same_analysis(&streamed, &stored, &case);
            assert_eq!(telemetry, stored_telemetry, "{case}: campaign telemetry");
        }
    }
    caf_obs::set_enabled(false);
}

/// Collects one state's drawn address ids and truth keys, asserting
/// that neither repeats.
#[derive(Default)]
struct UniqueIds {
    addresses: HashSet<AddressId>,
    truths: HashSet<(AddressId, Isp)>,
}

impl Q3Sink for UniqueIds {
    fn address(&mut self, id: AddressId, _is_caf: bool, _address: impl FnOnce() -> Address) {
        assert!(self.addresses.insert(id), "address id {id} repeats");
    }

    fn truth(&mut self, address: AddressId, isp: Isp, _truth: AddressTruth) {
        assert!(
            self.truths.insert((address, isp)),
            "truth ({address}, {isp}) repeats"
        );
    }

    fn block(&mut self, _block: Q3Block) {}
}

/// A Q3 block's ids are its counter's base (4 000 apart) plus the
/// address's index, with non-CAF parcels from offset 2 000: no block
/// reaches either bound, so every id and every truth key is unique
/// within its state, and a per-block lookup answers what the stored
/// state table (last insert wins) and a `RecordIndex` over the state's
/// records (first record wins) answered.
#[test]
fn q3_address_ids_are_unique_within_each_state() {
    for scale in SCALES {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale,
        };
        for state in UsState::q3_states() {
            let specs = Q3World::block_specs(&config, state);
            let largest = |n: fn(&caf_synth::q3::Q3BlockSpec) -> u32| {
                specs.iter().map(n).max().expect("a Q3 state has blocks")
            };
            let (caf, non_caf) = (largest(|s| s.caf_n), largest(|s| s.non_caf_n));
            assert!(caf < 2_000, "1:{scale} {state}: {caf} CAF addresses");
            assert!(
                non_caf <= 2_000,
                "1:{scale} {state}: {non_caf} non-CAF parcels"
            );
            let mut ids = UniqueIds::default();
            Q3World::draw(&config, state, &specs, &mut ids);
            let addresses: u64 = specs.iter().map(|s| s.addresses()).sum();
            assert_eq!(ids.addresses.len() as u64, addresses);
        }
    }
}

/// Each state's queries per incumbent in Table 4 come from the block
/// specs without a draw: they equal the drawn blocks' CAF and non-CAF
/// address counts.
#[test]
fn block_specs_count_the_drawn_addresses() {
    let config = SynthConfig {
        seed: 0xCAF_2024,
        scale: 40,
    };
    for state in UsState::q3_states() {
        let specs = Q3World::block_specs(&config, state);
        let world = Q3World::build(&config, state);
        assert_eq!(specs.len(), world.blocks.len());
        for (spec, block) in specs.iter().zip(&world.blocks) {
            assert_eq!(spec.isp, block.caf_isp);
            assert_eq!(spec.caf_n as usize, block.caf_addresses().count());
            assert_eq!(spec.non_caf_n as usize, block.non_caf_addresses().count());
        }
    }
}
