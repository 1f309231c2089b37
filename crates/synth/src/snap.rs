//! [`Snap`] codecs for the synthetic world: everything `caf-serve`
//! persists to resume a live, epoch-versioned scenario without
//! regenerating it.
//!
//! Three invariants matter here:
//!
//! * **Canonical encodings.** Every encoded collection is in a fixed
//!   order, so snapshotting the same world twice produces
//!   byte-identical files — which is what lets the disk tier and CI
//!   compare snapshots by content hash.
//! * **Nothing derivable is stored.** Q1 truth is drawn on demand from
//!   per-CBG cells, and the cells are a function of the geography and
//!   the effective corrections; decoding re-derives them through the
//!   same function generation uses. A state's USAC records are a
//!   function of the seed, the geography and its certified-tier
//!   corrections: a decoded world builds them on first read, as a
//!   generated or challenged one does. Q3 blocks are no part of a world;
//!   the Q3 analysis draws them from the seed, the scale and the state.
//! * **Validated decoding.** Enum discriminants and cross-field
//!   invariants are checked on the way in; a corrupt payload that
//!   survives the container checksums still cannot materialize an
//!   invalid world.

use crate::challenge::{CellCorrections, ChallengeSet, Correction};
use crate::geography::{BlockInfo, CbgInfo, StateGeography};
use crate::params::{ErrorCategory, SynthConfig};
use crate::plans::BroadbandPlan;
use crate::truth::{self, Q1Cell, TruthTable};
use crate::usac::{LazyUsac, UsacRecipe};
use crate::world::{StateWorld, World};
use crate::Isp;
use caf_snap::{Reader, Snap, SnapError, Writer};
use std::sync::Arc;

fn bad_tag(what: &str, tag: u8) -> SnapError {
    SnapError::Malformed(format!("{what}: unknown tag {tag}"))
}

impl Snap for Isp {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Isp::Att => 0,
            Isp::CenturyLink => 1,
            Isp::Frontier => 2,
            Isp::Consolidated => 3,
            Isp::Windstream => 4,
            Isp::Xfinity => 5,
            Isp::Spectrum => 6,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Isp::Att,
            1 => Isp::CenturyLink,
            2 => Isp::Frontier,
            3 => Isp::Consolidated,
            4 => Isp::Windstream,
            5 => Isp::Xfinity,
            6 => Isp::Spectrum,
            other => return Err(bad_tag("isp", other)),
        })
    }
}

impl Snap for ErrorCategory {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            ErrorCategory::SelectDropdown => 0,
            ErrorCategory::AnalyzingResult => 1,
            ErrorCategory::EmptyTraceback => 2,
            ErrorCategory::ClickingButton => 3,
            ErrorCategory::Other => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => ErrorCategory::SelectDropdown,
            1 => ErrorCategory::AnalyzingResult,
            2 => ErrorCategory::EmptyTraceback,
            3 => ErrorCategory::ClickingButton,
            4 => ErrorCategory::Other,
            other => return Err(bad_tag("error category", other)),
        })
    }
}

impl Snap for SynthConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seed);
        w.put_u32(self.scale);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let seed = r.u64()?;
        let scale = r.u32()?;
        if scale == 0 {
            return Err(SnapError::Malformed("zero scale".to_string()));
        }
        Ok(SynthConfig { seed, scale })
    }
}

impl Snap for BroadbandPlan {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put(&self.download_mbps);
        w.put(&self.upload_mbps);
        w.put_f64(self.monthly_usd);
        w.put_bool(self.speed_guaranteed);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(BroadbandPlan {
            name: r.str()?.into(),
            download_mbps: r.get()?,
            upload_mbps: r.get()?,
            monthly_usd: r.f64()?,
            speed_guaranteed: r.bool()?,
        })
    }
}

/// Re-derives a decoded world's Q1 truth cells from its geography and
/// effective corrections, through the same `truth::q1_cells`
/// generation uses. Every input the derivation consumes is checked
/// first: a payload whose pieces disagree is corrupt even if every
/// checksum passed.
fn q1_truth_cells(
    config: &SynthConfig,
    states: &[StateWorld],
    challenges: &ChallengeSet,
) -> Result<Vec<Q1Cell>, SnapError> {
    let mut cells = Vec::new();
    for (i, sw) in states.iter().enumerate() {
        let state = sw.state;
        if states[..i].iter().any(|other| other.state == state) {
            return Err(SnapError::Malformed(format!("{state} appears twice")));
        }
        for cbg in sw.geography.cbgs.iter() {
            // A CBG's records are built from its blocks under the ids
            // its count reserves, so the blocks must hold the count.
            let in_blocks: u64 = cbg.blocks.iter().map(|b| u64::from(b.caf_addresses)).sum();
            if !(0.0..=1.0).contains(&cbg.density_pct)
                || !Isp::audited().contains(&cbg.isp)
                || in_blocks != u64::from(cbg.caf_addresses)
            {
                return Err(SnapError::Malformed(format!(
                    "CBG {} ({}, density percentile {}, {in_blocks} of {} addresses in blocks) \
                     cannot carry Q1 truth",
                    cbg.id, cbg.isp, cbg.density_pct, cbg.caf_addresses
                )));
            }
        }
        // Ids are the state's FIPS code times 10⁹ plus a running
        // count, so a state certifying 10⁹ addresses would reach into
        // the next state's ids.
        if sw.geography.total_caf_addresses() >= 1_000_000_000 {
            return Err(SnapError::Malformed(format!(
                "{state} certifies more addresses than its id space holds"
            )));
        }
        cells.extend(truth::q1_cells(
            config,
            state,
            sw.geography.certified_cbgs(),
            |cbg| {
                challenges
                    .cell(state, cbg)
                    .and_then(CellCorrections::availability_rate)
            },
        ));
    }
    Ok(cells)
}

impl Snap for BlockInfo {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.id);
        w.put(&self.centroid);
        w.put_u32(self.caf_addresses);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(BlockInfo {
            id: r.get()?,
            centroid: r.get()?,
            caf_addresses: r.u32()?,
        })
    }
}

impl Snap for CbgInfo {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.id);
        w.put(&self.isp);
        w.put(&self.centroid);
        w.put_u32(self.population);
        w.put_f64(self.density);
        w.put_f64(self.density_pct);
        w.put_u32(self.caf_addresses);
        w.put_seq(&self.blocks);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(CbgInfo {
            id: r.get()?,
            isp: r.get()?,
            centroid: r.get()?,
            population: r.u32()?,
            density: r.f64()?,
            density_pct: r.f64()?,
            caf_addresses: r.u32()?,
            blocks: r.get_seq()?,
        })
    }
}

impl Snap for StateGeography {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.state);
        w.put_seq(&self.cbgs);
        w.put_seq(&self.urban_centers);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(StateGeography {
            state: r.get()?,
            cbgs: r.get_seq::<CbgInfo>()?.into(),
            urban_centers: r.get_seq()?,
        })
    }
}

impl Snap for Correction {
    fn encode(&self, w: &mut Writer) {
        match self {
            Correction::Availability { rate_ppm } => {
                w.put_u8(0);
                w.put_u32(*rate_ppm);
            }
            Correction::CertifiedTier { down_mbps, up_mbps } => {
                w.put_u8(1);
                w.put_u32(*down_mbps);
                w.put_u32(*up_mbps);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Correction::Availability { rate_ppm: r.u32()? },
            1 => Correction::CertifiedTier {
                down_mbps: r.u32()?,
                up_mbps: r.u32()?,
            },
            other => return Err(bad_tag("correction", other)),
        })
    }
}

impl Snap for crate::ChallengeDelta {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.state);
        w.put_usize(self.cbg);
        w.put(&self.isp);
        w.put(&self.correction);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ChallengeDelta {
            state: r.get()?,
            cbg: r.usize()?,
            isp: r.get()?,
            correction: r.get()?,
        })
    }
}

impl Snap for CellCorrections {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.availability_ppm);
        w.put(&self.certified);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let availability_ppm: Option<u32> = r.get()?;
        if let Some(ppm) = availability_ppm.filter(|&ppm| ppm > 1_000_000) {
            return Err(SnapError::Malformed(format!(
                "availability {ppm} ppm is not a rate"
            )));
        }
        Ok(CellCorrections {
            availability_ppm,
            certified: r.get()?,
        })
    }
}

impl Snap for ChallengeSet {
    fn encode(&self, w: &mut Writer) {
        // BTreeMap iteration is already sorted — canonical as-is.
        let cells: Vec<(u16, usize, CellCorrections)> = self
            .iter()
            .map(|(fips, cbg, cell)| (fips, cbg, *cell))
            .collect();
        w.put_seq(&cells);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cells: Vec<(u16, usize, CellCorrections)> = r.get_seq()?;
        let mut set = ChallengeSet::new();
        for (fips, cbg, cell) in cells {
            set.insert_cell(fips, cbg, cell);
        }
        Ok(set)
    }
}

impl Snap for World {
    /// Writes the configuration, each state's geography, the epoch and
    /// the corrections. The Q1 truth cells and the USAC records are a
    /// function of these, so they are not written: a generated world's
    /// truth table holds nothing else.
    fn encode(&self, w: &mut Writer) {
        assert_eq!(self.truth.stored_count(), 0, "stored truth is not encoded");
        w.put(&self.config);
        w.put_u64(self.states.len() as u64);
        for sw in &self.states {
            w.put(&sw.geography);
        }
        w.put_u64(self.epoch);
        w.put(&self.challenges);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let config: SynthConfig = r.get()?;
        // Each state costs at least one byte; reserve no more states
        // than the remaining input could hold.
        let count = r.len_prefix()?;
        let mut geographies: Vec<StateGeography> =
            Vec::with_capacity(count.min(r.remaining() / size_of::<StateGeography>()));
        for _ in 0..count {
            geographies.push(r.get()?);
        }
        let epoch = r.u64()?;
        let challenges: ChallengeSet = r.get()?;
        // An epoch-0 world must carry no corrections (and vice versa a
        // corrected world must be past epoch 0) — a cheap cross-field
        // check that catches section-splicing mistakes.
        if epoch == 0 && !challenges.is_empty() {
            return Err(SnapError::Malformed(
                "epoch-0 world carries challenge corrections".to_string(),
            ));
        }
        let states: Vec<StateWorld> = geographies
            .into_iter()
            .map(|geography| {
                let state = geography.state;
                StateWorld {
                    state,
                    usac: LazyUsac::new(UsacRecipe::new(
                        config,
                        state,
                        Arc::clone(&geography.cbgs),
                        challenges.certified_tiers(state),
                    )),
                    geography,
                }
            })
            .collect();
        let mut truth = TruthTable::new();
        truth.install_q1(config.seed, q1_truth_cells(&config, &states, &challenges)?);
        Ok(World {
            config,
            states,
            truth,
            epoch,
            challenges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q3::Q3World;
    use crate::ChallengeDelta;
    use caf_geo::UsState;

    fn round_trip_bytes<T: Snap>(value: &T) -> (Vec<u8>, T) {
        let mut w = Writer::new();
        w.put(value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = r.get::<T>().unwrap();
        r.finish().unwrap();
        (bytes, decoded)
    }

    /// Asserts that two worlds answer every truth lookup alike: each
    /// USAC record under its ISP, and each Q3 address under its block's
    /// CAF ISP and competitors (in the Q3 table each world's config
    /// draws for the state).
    fn assert_same_lookups(a: &World, b: &World) {
        let mut lookups = 0;
        assert_eq!(a.states.len(), b.states.len());
        for (sa, sb) in a.states.iter().zip(&b.states) {
            for r in &sa.usac.records {
                let id = r.address.id;
                assert_eq!(a.truth.get(id, r.isp), b.truth.get(id, r.isp), "{id}");
                lookups += 1;
            }
            let (qa, qb) = (
                Q3World::build(&a.config, sa.state),
                Q3World::build(&b.config, sb.state),
            );
            for block in &qa.blocks {
                for addr in &block.addresses {
                    let id = addr.address.id;
                    for &isp in std::iter::once(&block.caf_isp).chain(&block.competitors) {
                        let (ta, tb) = (qa.truth.get(id, isp), qb.truth.get(id, isp));
                        assert_eq!(ta, tb, "{id} {isp}");
                        lookups += 1;
                    }
                }
            }
        }
        assert!(lookups > 0, "nothing was compared");
    }

    #[test]
    fn world_round_trips_byte_identically() {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale: 4000,
        };
        let world = World::generate_states(config, &[UsState::Texas, UsState::Kansas]);
        let (bytes, decoded) = round_trip_bytes(&world);
        // Canonical: re-encoding the decoded world reproduces the bytes.
        let mut w = Writer::new();
        w.put(&decoded);
        assert_eq!(w.into_bytes(), bytes);
        assert_eq!(decoded.epoch, world.epoch);
        assert_eq!(decoded.truth.len(), world.truth.len());
        assert_eq!(decoded.states.len(), world.states.len());
        for (a, b) in world.states.iter().zip(&decoded.states) {
            assert_eq!(a.state, b.state);
            assert_eq!(a.geography.cbgs.len(), b.geography.cbgs.len());
            assert_eq!(a.usac.records.len(), b.usac.records.len());
        }
    }

    #[test]
    fn decoded_world_equals_the_generated_one() {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale: 150,
        };
        let world = World::generate_states(config, &[UsState::Vermont, UsState::NewHampshire]);
        let (bytes, decoded) = round_trip_bytes(&world);
        // The USAC records are not in the encoding: the decoded ones are
        // built on first read, and equal the generated ones.
        assert!(decoded.states.iter().all(|sw| !sw.usac.is_built()));
        assert!(decoded == world);
        assert_same_lookups(&world, &decoded);
        assert_eq!(format!("{decoded:?}"), format!("{world:?}"));
        let mut w = Writer::new();
        w.put(&decoded);
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn challenged_world_round_trips_with_log_state() {
        let config = SynthConfig {
            seed: 7,
            scale: 1000,
        };
        let mut world = World::generate_states(config, &UsState::study_states());
        let populated = world
            .states
            .iter()
            .find(|sw| !sw.geography.cbgs.is_empty())
            .expect("some study state has a CBG at this scale");
        let delta = ChallengeDelta {
            state: populated.state,
            cbg: 0,
            isp: populated.geography.cbgs[0].isp,
            correction: Correction::Availability { rate_ppm: 123_456 },
        };
        world.apply_deltas(std::slice::from_ref(&delta)).unwrap();
        assert_eq!(world.epoch, 1);
        let (_, decoded) = round_trip_bytes(&world);
        assert_eq!(decoded.epoch, 1);
        assert_eq!(decoded.challenges, world.challenges);
        // The restored challenge state must keep future deltas correct:
        // a second correction to the same cell rebuilds from the merged
        // set, not from the baseline.
        let mut a = world;
        let mut b = decoded;
        let next = ChallengeDelta {
            correction: Correction::CertifiedTier {
                down_mbps: 25,
                up_mbps: 3,
            },
            ..delta
        };
        a.apply_deltas(std::slice::from_ref(&next)).unwrap();
        b.apply_deltas(std::slice::from_ref(&next)).unwrap();
        let (bytes_a, _) = round_trip_bytes(&a);
        let (bytes_b, _) = round_trip_bytes(&b);
        assert_eq!(bytes_a, bytes_b, "snapshot-restored world diverged");
        assert_same_lookups(&a, &b);
    }

    /// A challenged world, with availability corrections on several
    /// cells: the restored copy must draw every Q1 address at the
    /// corrected rates, not the latent ones.
    #[test]
    fn restored_challenged_world_answers_every_lookup_like_the_live_one() {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale: 150,
        };
        let mut world = World::generate_states(config, &[UsState::Vermont, UsState::Ohio]);
        let pristine = world.clone();
        let mut deltas = Vec::new();
        for sw in &world.states {
            for (cbg, info) in sw.geography.cbgs.iter().enumerate().take(4) {
                let correction = if cbg % 2 == 0 {
                    Correction::Availability {
                        rate_ppm: 1_000_000 * (cbg as u32 % 3) / 2,
                    }
                } else {
                    Correction::CertifiedTier {
                        down_mbps: 25,
                        up_mbps: 3,
                    }
                };
                deltas.push(ChallengeDelta {
                    state: sw.state,
                    cbg,
                    isp: info.isp,
                    correction,
                });
            }
        }
        world.apply_deltas(&deltas).unwrap();
        let (_, restored) = round_trip_bytes(&world);
        assert!(restored == world);
        assert_same_lookups(&world, &restored);
        // The corrections reached the draws: some corrected address
        // answers differently from the pristine world.
        let moved = world
            .states
            .iter()
            .flat_map(|sw| &sw.usac.records)
            .any(|r| {
                restored.truth.get(r.address.id, r.isp) != pristine.truth.get(r.address.id, r.isp)
            });
        assert!(moved, "no availability correction changed a lookup");
    }

    /// Every input the cell derivation consumes is checked: blocks that
    /// disagree with their CBG's count, more addresses than the state's
    /// id space holds, a density percentile the rate modulation cannot
    /// use, and an availability beyond 100%.
    #[test]
    fn inconsistent_q1_inputs_are_malformed() {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale: 400,
        };
        let mut world = World::generate_states(config, &[UsState::Vermont]);
        world
            .apply_deltas(&[ChallengeDelta {
                state: UsState::Vermont,
                cbg: 0,
                isp: world.states[0].geography.cbgs[0].isp,
                correction: Correction::Availability { rate_ppm: 500_000 },
            }])
            .unwrap();
        let malformed = |world: &World| {
            let mut w = Writer::new();
            w.put(world);
            let bytes = w.into_bytes();
            matches!(
                Reader::new(&bytes).get::<World>(),
                Err(SnapError::Malformed(_))
            )
        };
        assert!(!malformed(&world));

        let mut blocks = world.clone();
        Arc::make_mut(&mut blocks.states[0].geography.cbgs)[0].blocks[0].caf_addresses += 1;
        assert!(malformed(&blocks), "blocks holding more than their CBG");

        let mut overflow = world.clone();
        let cbg = &mut Arc::make_mut(&mut overflow.states[0].geography.cbgs)[0];
        cbg.caf_addresses += 1_000_000_000;
        cbg.blocks[0].caf_addresses += 1_000_000_000;
        assert!(malformed(&overflow), "more addresses than the id space");

        let mut nan = world.clone();
        Arc::make_mut(&mut nan.states[0].geography.cbgs)[0].density_pct = f64::NAN;
        assert!(malformed(&nan), "a NaN density percentile");

        let mut rate = world.clone();
        rate.challenges = ChallengeSet::new();
        rate.challenges.merge_delta(&ChallengeDelta {
            state: UsState::Vermont,
            cbg: 0,
            isp: world.states[0].geography.cbgs[0].isp,
            correction: Correction::Availability {
                rate_ppm: 1_000_001,
            },
        });
        assert!(malformed(&rate), "an availability above 100%");

        let mut twice = world.clone();
        twice.states.push(twice.states[0].clone());
        assert!(malformed(&twice), "a state listed twice");
    }

    #[test]
    fn epoch_challenge_consistency_is_enforced() {
        let mut w = Writer::new();
        w.put(&SynthConfig { seed: 1, scale: 10 });
        w.put_u64(0); // no states
        w.put_u64(0); // epoch 0…
        let mut set = ChallengeSet::new();
        set.merge_delta(&ChallengeDelta {
            state: UsState::Texas,
            cbg: 3,
            isp: Isp::Att,
            correction: Correction::Availability { rate_ppm: 1 },
        });
        w.put(&set); // …but a non-empty correction set
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<World>(),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn enum_discriminants_reject_unknown_tags() {
        assert!(Reader::new(&[7]).get::<Isp>().is_err());
        assert!(Reader::new(&[5]).get::<ErrorCategory>().is_err());
    }

    #[test]
    fn zero_scale_config_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u32(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<SynthConfig>(),
            Err(SnapError::Malformed(_))
        ));
    }
}
