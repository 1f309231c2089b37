//! Truth-lookup identity: every `TruthTable::get` answer is pinned by
//! digest.
//!
//! The world answers a Q1 lookup by drawing the address's truth from
//! its CBG's latent rate when BQT asks, not from a stored entry. These
//! digests were recorded while every Q1 entry was still materialised at
//! generation, so they pin the on-demand draw to the stored table it
//! replaced, bit for bit: one FNV-1a over the `Debug` form of the lookup
//! of every USAC record (and, separately, of every Q3 address under the
//! block's CAF ISP and its competitors), for one seed at 1:60, pristine
//! and after a fixed batch of availability and certified-tier deltas.

use caf_geo::UsState;
use caf_snap::fnv1a;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};

const CONFIG: SynthConfig = SynthConfig {
    seed: 0xCAF_2024,
    scale: 60,
};

/// Recorded on the materialised table (see the module docs).
const PRISTINE_Q1: u64 = 0x61f8_03ee_3acf_7cd0;
const PRISTINE_Q3: u64 = 0x59b3_49cf_f6d9_ede5;
const CHALLENGED_Q1: u64 = 0xd376_955d_0b09_9382;
const CHALLENGED_Q3: u64 = 0x59b3_49cf_f6d9_ede5;

/// FNV-1a over one `Debug` line per USAC record's lookup, in state and
/// record order.
fn q1_digest(world: &World) -> u64 {
    let mut text = String::new();
    for sw in &world.states {
        for r in &sw.usac.records {
            text.push_str(&format!("{:?}\n", world.truth.get(r.address.id, r.isp)));
        }
    }
    fnv1a(text.as_bytes())
}

/// FNV-1a over the lookups of every Q3 address under its block's CAF
/// ISP and each competitor, in the state's Q3 table.
fn q3_digest(world: &World) -> u64 {
    let mut text = String::new();
    for sw in &world.states {
        for block in &sw.q3.blocks {
            for a in &block.addresses {
                for &isp in std::iter::once(&block.caf_isp).chain(&block.competitors) {
                    text.push_str(&format!("{:?}\n", sw.q3.truth.get(a.address.id, isp)));
                }
            }
        }
    }
    fnv1a(text.as_bytes())
}

/// A fixed batch: availability and certified-tier corrections over the
/// first CBGs of three states, one cell corrected twice (last writer
/// wins) and one carrying both kinds.
fn delta_batch(world: &World) -> Vec<ChallengeDelta> {
    let mut deltas = Vec::new();
    for (state, cbg, correction) in [
        (
            UsState::Vermont,
            0,
            Correction::Availability { rate_ppm: 250_000 },
        ),
        (
            UsState::Vermont,
            1,
            Correction::CertifiedTier {
                down_mbps: 25,
                up_mbps: 3,
            },
        ),
        (
            UsState::Ohio,
            2,
            Correction::Availability { rate_ppm: 900_000 },
        ),
        (
            UsState::Ohio,
            2,
            Correction::CertifiedTier {
                down_mbps: 100,
                up_mbps: 20,
            },
        ),
        (
            UsState::California,
            3,
            Correction::Availability { rate_ppm: 0 },
        ),
        (
            UsState::Vermont,
            0,
            Correction::Availability { rate_ppm: 600_000 },
        ),
    ] {
        let isp = world.state(state).expect("study state").geography.cbgs[cbg].isp;
        deltas.push(ChallengeDelta {
            state,
            cbg,
            isp,
            correction,
        });
    }
    deltas
}

#[test]
fn truth_lookups_match_the_materialised_table() {
    let mut world = World::generate_states(CONFIG, &UsState::study_states());
    let pristine = (q1_digest(&world), q3_digest(&world));
    let deltas = delta_batch(&world);
    world.apply_deltas(&deltas).expect("valid batch");
    let challenged = (q1_digest(&world), q3_digest(&world));
    assert_eq!(
        (pristine, challenged),
        ((PRISTINE_Q1, PRISTINE_Q3), (CHALLENGED_Q1, CHALLENGED_Q3)),
        "truth lookups moved: got pristine {:#018x}/{:#018x}, challenged {:#018x}/{:#018x}",
        pristine.0,
        pristine.1,
        challenged.0,
        challenged.1,
    );
}
