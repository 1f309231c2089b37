//! [`Snap`] codecs for the synthetic values other crates persist: the
//! challenge deltas of `caf-serve`'s snapshot log, and the ISPs, plans
//! and error categories of `caf-bqt`'s query records.
//!
//! No world is encoded. A world is a function of its configuration and
//! its challenge log — epoch E is generation plus the log's first E
//! deltas — so a snapshot stores the log, and a restore regenerates the
//! world and replays the log through [`World::apply_deltas`], which
//! validates every delta against the geography as it does for a live
//! batch. Enum discriminants are checked on decode; every other check
//! is that validation's.
//!
//! [`World::apply_deltas`]: crate::World::apply_deltas

use crate::challenge::Correction;
use crate::params::ErrorCategory;
use crate::plans::BroadbandPlan;
use crate::Isp;
use caf_snap::{Reader, Snap, SnapError, Writer};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q3::Q3World;
    use crate::{ChallengeDelta, SynthConfig, World};
    use caf_geo::UsState;

    /// The world `deltas` leave on a fresh `config` world, replayed from
    /// the log's encoding as a snapshot restore replays it.
    fn replayed(config: SynthConfig, states: &[UsState], deltas: &[ChallengeDelta]) -> World {
        let mut w = Writer::new();
        w.put_seq(deltas);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let log: Vec<ChallengeDelta> = r.get_seq().unwrap();
        r.finish().unwrap();
        assert_eq!(log, deltas);
        let mut world = World::generate_states(config, states);
        world.apply_deltas(&log).unwrap();
        world
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
    fn challenged_world_round_trips_with_log_state() {
        let config = SynthConfig {
            seed: 7,
            scale: 1000,
        };
        let states = UsState::study_states();
        let mut world = World::generate_states(config, &states);
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
        let restored = replayed(config, &states, std::slice::from_ref(&delta));
        assert_eq!(restored.epoch, 1);
        assert_eq!(restored.challenges, world.challenges);
        // The restored challenge state must keep future deltas correct:
        // a second correction to the same cell rebuilds from the merged
        // set, not from the baseline.
        let mut a = world;
        let mut b = restored;
        let next = ChallengeDelta {
            correction: Correction::CertifiedTier {
                down_mbps: 25,
                up_mbps: 3,
            },
            ..delta
        };
        a.apply_deltas(std::slice::from_ref(&next)).unwrap();
        b.apply_deltas(std::slice::from_ref(&next)).unwrap();
        assert!(a == b, "snapshot-restored world diverged");
        assert_same_lookups(&a, &b);
    }

    /// A challenged world, with availability corrections on several
    /// cells: the copy replayed from its log must draw every Q1 address
    /// at the corrected rates, not the latent ones.
    #[test]
    fn restored_challenged_world_answers_every_lookup_like_the_live_one() {
        let config = SynthConfig {
            seed: 0xCAF_2024,
            scale: 150,
        };
        let states = [UsState::Vermont, UsState::Ohio];
        let mut world = World::generate_states(config, &states);
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
        let restored = replayed(config, &states, &deltas);
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

    #[test]
    fn enum_discriminants_reject_unknown_tags() {
        assert!(Reader::new(&[7]).get::<Isp>().is_err());
        assert!(Reader::new(&[5]).get::<ErrorCategory>().is_err());
        assert!(Reader::new(&[2, 0, 0, 0, 0]).get::<Correction>().is_err());
    }
}
