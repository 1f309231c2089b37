//! The geography fixes every CAF-Map record's id, ISP, CBG and block,
//! so the readers that need only those read them off the geography and
//! build no record. These checks pin that the two agree: over all
//! fifteen study states at 1:60, pristine and after a fixed batch of
//! availability and certified-tier corrections, the geography's cells
//! and block walk equal the built records', a snapshot restore
//! (generation plus a replay of the challenge log) builds the same
//! records as the live world, and a certified-tier correction changes
//! exactly its CBG's certified speeds.

use caf_geo::UsState;
use caf_synth::geography::CafCell;
use caf_synth::{ChallengeDelta, Correction, StateWorld, SynthConfig, World};

const CONFIG: SynthConfig = SynthConfig {
    seed: 0xCAF_2024,
    scale: 60,
};

/// Availability and certified-tier corrections over the first CBGs of
/// three states, one cell corrected twice (last writer wins) and one
/// carrying both kinds.
fn delta_batch(world: &World) -> Vec<ChallengeDelta> {
    let tier = |down_mbps, up_mbps| Correction::CertifiedTier { down_mbps, up_mbps };
    [
        (
            UsState::Vermont,
            0,
            Correction::Availability { rate_ppm: 250_000 },
        ),
        (UsState::Vermont, 1, tier(25, 3)),
        (
            UsState::Ohio,
            2,
            Correction::Availability { rate_ppm: 900_000 },
        ),
        (UsState::Ohio, 2, tier(100, 20)),
        (UsState::California, 3, tier(10, 1)),
        (UsState::California, 3, tier(1000, 100)),
    ]
    .into_iter()
    .map(|(state, cbg, correction)| ChallengeDelta {
        state,
        cbg,
        isp: world.state(state).expect("study state").geography.cbgs[cbg].isp,
        correction,
    })
    .collect()
}

/// The built records' cells: each maximal run of one (ISP, CBG) with
/// consecutive ids, sorted by key.
fn cells_of_records(sw: &StateWorld) -> Vec<CafCell> {
    let mut cells: Vec<CafCell> = Vec::new();
    for r in &sw.usac.records {
        let (isp, cbg) = (r.isp, r.address.block_group());
        match cells.last_mut() {
            Some(cell)
                if (cell.isp, cell.cbg) == (isp, cbg)
                    && cell.first.0 + u64::from(cell.count) == r.address.id.0 =>
            {
                cell.count += 1
            }
            _ => cells.push(CafCell {
                isp,
                cbg,
                first: r.address.id,
                count: 1,
            }),
        }
    }
    cells.sort_unstable_by_key(|cell| (cell.isp, cell.cbg));
    cells
}

fn check_geography_matches_records(world: &World) {
    for sw in &world.states {
        assert_eq!(
            sw.geography.caf_cells(),
            cells_of_records(sw),
            "{}",
            sw.state
        );
        assert!(
            sw.geography.address_blocks().eq(sw
                .usac
                .records
                .iter()
                .map(|r| (r.address.id, r.address.block))),
            "{}: the block walk disagrees with the records",
            sw.state
        );
        assert!(
            sw.geography.certified_addresses().eq(sw
                .usac
                .records
                .iter()
                .map(|r| (r.address.id, r.isp))),
            "{}: the certified list disagrees with the records",
            sw.state
        );
    }
}

/// A snapshot restore rebuilds the world from its recipe and its
/// challenge log: the restored states build their records only when
/// read, and build the live world's.
fn check_snapshot_builds_the_live_records(world: &World, log: &[ChallengeDelta]) {
    let mut restored = World::generate_states(CONFIG, &UsState::study_states());
    restored.apply_deltas(log).expect("the live log replays");
    assert_eq!(restored.states.len(), world.states.len());
    for (live, restored) in world.states.iter().zip(&restored.states) {
        assert!(!restored.usac.is_built(), "the replay builds no record");
        assert!(
            restored.usac.records == live.usac.records,
            "{}: restored records differ",
            live.state
        );
    }
}

#[test]
fn geography_cells_and_blocks_match_the_records() {
    let mut world = World::generate_states(CONFIG, &UsState::study_states());
    check_geography_matches_records(&world);
    check_snapshot_builds_the_live_records(&world, &[]);
    let pristine = world.clone();

    let deltas = delta_batch(&world);
    world.apply_deltas(&deltas).expect("valid batch");
    check_geography_matches_records(&world);
    check_snapshot_builds_the_live_records(&world, &deltas);

    // A certified-tier correction restates its CBG's certified speeds
    // and leaves every other field, and every other CBG, as drawn.
    let restated = [
        (UsState::Vermont, 1, (25.0, 3.0)),
        (UsState::Ohio, 2, (100.0, 20.0)),
        (UsState::California, 3, (1000.0, 100.0)),
    ];
    for (before, after) in pristine.states.iter().zip(&world.states) {
        assert_eq!(before.usac.records.len(), after.usac.records.len());
        for (a, b) in before.usac.records.iter().zip(&after.usac.records) {
            let tier = restated.iter().find(|&&(state, cbg, _)| {
                state == after.state && after.geography.cbgs[cbg].id == b.address.block_group()
            });
            let mut expected = a.clone();
            if let Some(&(_, _, (down, up))) = tier {
                expected.certified_down_mbps = down;
                expected.certified_up_mbps = up;
            }
            assert_eq!(&expected, b, "{}", after.state);
        }
    }
}
