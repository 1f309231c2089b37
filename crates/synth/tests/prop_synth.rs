//! Property-based tests for the synthetic-world generators.
//!
//! Each invariant lives in a plain helper function called two ways: the
//! properties run it on seeded inputs from `caf_exec::prop`, and the
//! `smoke_*` tests pin a handful of hand-picked fixed points.

use caf_exec::prop;
use caf_geo::{AddressId, BlockGroupId, UsState};
use caf_synth::geography::StateGeography;
use caf_synth::params::CalibrationParams;
use caf_synth::{Isp, Q3World, SynthConfig, UsacDataset, World};
use std::collections::BTreeMap;

/// World generation upholds its structural invariants for any seed
/// and state: truth covers every record, GEOIDs are state-scoped and
/// unique, and block totals reconcile with CBG totals.
fn check_world_structure_invariants(seed: u64, state: UsState) {
    let config = SynthConfig { seed, scale: 120 };
    let world = World::generate_states(config, &[state]);
    let sw = world.state(state).expect("generated");

    // Every certified record has a truth entry under its own ISP.
    for record in &sw.usac.records {
        assert!(world.truth.get(record.address.id, record.isp).is_some());
        assert_eq!(record.address.state().code(), state.fips().code());
    }
    // CBG address counts reconcile with blocks and records.
    let mut ids = std::collections::HashSet::new();
    for cbg in sw.geography.cbgs.iter() {
        assert!(ids.insert(cbg.id.geoid()), "duplicate CBG");
        let block_sum: u32 = cbg.blocks.iter().map(|b| b.caf_addresses).sum();
        assert_eq!(block_sum, cbg.caf_addresses);
        let records = sw
            .usac
            .records
            .iter()
            .filter(|r| r.address.block_group() == cbg.id)
            .count();
        assert_eq!(records as u32, cbg.caf_addresses);
    }
    // Address ids unique across the state (Q1 + Q3 spaces disjoint).
    let mut addr_ids = std::collections::HashSet::new();
    for record in &sw.usac.records {
        assert!(addr_ids.insert(record.address.id.0));
    }
    for block in &Q3World::build(&config, state).blocks {
        for a in &block.addresses {
            assert!(addr_ids.insert(a.address.id.0), "Q3/Q1 id collision");
        }
    }
}

/// Served truth entries always carry plans whose labels exist in the
/// ISP's catalog, with the max tier first.
fn check_truth_plans_are_catalog_consistent(seed: u64) {
    let config = SynthConfig { seed, scale: 150 };
    let world = World::generate_states(config, &[UsState::Alabama]);
    let sw = world.state(UsState::Alabama).expect("generated");
    for record in sw.usac.records.iter().take(400) {
        let truth = world
            .truth
            .get(record.address.id, record.isp)
            .expect("exists");
        assert_eq!(truth.served, !truth.plans.is_empty());
        if let Some(max) = truth.max_download_mbps() {
            let first = truth.plans[0].download_mbps;
            assert_eq!(first, Some(max), "first plan must be the max tier");
        }
        let catalog = caf_synth::PlanCatalog::for_isp(record.isp);
        for plan in &truth.plans {
            assert!(
                catalog.tier_labeled(&plan.name).is_some(),
                "unknown tier {} for {}",
                plan.name,
                record.isp
            );
        }
    }
}

/// Regeneration is exact: two worlds from the same config agree on
/// every record and truth entry.
fn check_regeneration_is_exact(seed: u64) {
    let config = SynthConfig { seed, scale: 200 };
    let a = World::generate_states(config, &[UsState::Utah]);
    let b = World::generate_states(config, &[UsState::Utah]);
    let (sa, sb) = (
        a.state(UsState::Utah).expect("generated"),
        b.state(UsState::Utah).expect("generated"),
    );
    assert_eq!(sa.usac.records.len(), sb.usac.records.len());
    for (ra, rb) in sa.usac.records.iter().zip(&sb.usac.records) {
        assert_eq!(ra.address.id, rb.address.id);
        assert_eq!(ra.certified_down_mbps, rb.certified_down_mbps);
        assert_eq!(
            a.truth.get(ra.address.id, ra.isp),
            b.truth.get(rb.address.id, rb.isp)
        );
    }
}

/// The presence matrix governs which ISPs materialize per state.
fn check_presence_matrix_is_respected(seed: u64, state: UsState) {
    let config = SynthConfig { seed, scale: 150 };
    let world = World::generate_states(config, &[state]);
    let sw = world.state(state).expect("generated");
    for isp in Isp::audited() {
        let present = sw.geography.caf_cells().iter().any(|cell| cell.isp == isp);
        let expected = CalibrationParams::presence(state, isp).is_some();
        assert_eq!(present, expected, "{} in {}", isp, state);
    }
}

/// Each state's USAC slice, built on first read, equals a direct
/// [`UsacDataset::build`], and the geography's `caf_cells()` equal a
/// per-record recomputation: the same (ISP, CBG) keys in ascending
/// order, each with its records' ids in order.
fn check_lazy_usac_matches_a_direct_build(seed: u64, scale: u32, states: &[UsState]) {
    let config = SynthConfig { seed, scale };
    let world = World::generate_states(config, states);
    for sw in &world.states {
        assert!(!sw.usac.is_built(), "generation builds no record");
        let direct = UsacDataset::build(&config, &StateGeography::build(&config, sw.state));
        assert!(*sw.usac == direct, "{}", sw.state);
        assert!(sw.usac.is_built());

        let mut expected: BTreeMap<(Isp, BlockGroupId), Vec<AddressId>> = BTreeMap::new();
        for r in &sw.usac.records {
            expected
                .entry((r.isp, r.address.block_group()))
                .or_default()
                .push(r.address.id);
        }
        let cells: Vec<_> = sw
            .geography
            .caf_cells()
            .iter()
            .map(|cell| ((cell.isp, cell.cbg), cell.ids().collect::<Vec<_>>()))
            .collect();
        assert_eq!(cells, expected.into_iter().collect::<Vec<_>>());
    }
}

/// Cases per property: each case generates a whole state world.
const CASES: u32 = 10;

#[test]
fn world_structure_invariants() {
    let states = prop::select(UsState::study_states());
    prop::check(CASES, (0u64..1_000_000, states), |(seed, state)| {
        check_world_structure_invariants(seed, state);
    });
}

#[test]
fn truth_plans_are_catalog_consistent() {
    prop::check(
        CASES,
        0u64..1_000_000,
        check_truth_plans_are_catalog_consistent,
    );
}

#[test]
fn regeneration_is_exact() {
    prop::check(CASES, 0u64..1_000_000, check_regeneration_is_exact);
}

#[test]
fn presence_matrix_is_respected() {
    let states = prop::select(UsState::study_states());
    prop::check(CASES, (0u64..1_000_000, states), |(seed, state)| {
        check_presence_matrix_is_respected(seed, state);
    });
}

#[test]
fn lazy_usac_matches_a_direct_build() {
    let states = prop::vec(prop::select(UsState::study_states()), 1..4);
    prop::check(
        CASES,
        (0u64..1_000_000, 60u32..400, states),
        |(seed, scale, mut states)| {
            states.sort_unstable();
            states.dedup();
            check_lazy_usac_matches_a_direct_build(seed, scale, &states);
        },
    );
}

#[test]
fn smoke_lazy_usac_matches_a_direct_build() {
    check_lazy_usac_matches_a_direct_build(0xCAF_2024, 60, &[UsState::Vermont, UsState::Ohio]);
    check_lazy_usac_matches_a_direct_build(7, 200, &UsState::study_states());
}

#[test]
fn smoke_world_invariants_hold_at_fixed_points() {
    check_world_structure_invariants(0xCAF_2024, UsState::Vermont);
    check_world_structure_invariants(7, UsState::Georgia);
}

#[test]
fn smoke_truth_and_regeneration_hold_at_fixed_seeds() {
    check_truth_plans_are_catalog_consistent(0xCAF_2024);
    check_regeneration_is_exact(42);
}

#[test]
fn smoke_presence_matrix_holds_at_fixed_points() {
    check_presence_matrix_is_respected(0xCAF_2024, UsState::California);
    check_presence_matrix_is_respected(3, UsState::NewHampshire);
}
