//! The assembled synthetic world.
//!
//! [`World::generate`] is the single entry point the rest of the workspace
//! uses: it builds, per study state, the census geography, and one
//! [`TruthTable`] of per-CBG cells answering every Q1 (address, ISP)
//! pair a campaign can query by drawing it on demand. The geography
//! fixes every certified address's id, ISP, CBG and block, which is all
//! the audit reads. The USAC CAF-Map records (a pure function of the
//! seed, the geography and the state's certified-tier corrections) are
//! built per state on first read. The world holds no Q3 block: the Q3
//! analysis draws each state's blocks from the seed as it queries them
//! ([`Q3World::draw`](crate::q3::Q3World::draw)).

use crate::challenge::{
    self, CellCorrections, ChallengeDelta, ChallengeError, ChallengeSet, DeltaOutcome,
};
use crate::geography::StateGeography;
use crate::params::SynthConfig;
use crate::truth::{self, Q1Cell, TruthTable};
use crate::usac::{LazyUsac, UsacRecipe};
use caf_exec::{CostHint, EngineConfig};
use caf_geo::UsState;
use std::sync::Arc;
use std::time::Instant;

/// Everything generated for one state. The USAC slice is built when
/// first read; cloning leaves it unbuilt if it is, and `PartialEq` and
/// `Debug` see it built.
#[derive(Debug, Clone, PartialEq)]
pub struct StateWorld {
    /// The state.
    pub state: UsState,
    /// Census geography (CBGs, blocks, densities).
    pub geography: StateGeography,
    /// The USAC CAF-Map slice (certified addresses), built the first
    /// time it is read. Readers of ids, ISPs, CBGs or blocks alone use
    /// the geography ([`StateGeography::caf_cells`],
    /// [`StateGeography::address_blocks`]) and build nothing.
    pub usac: LazyUsac,
}

/// The full synthetic world.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// The configuration it was generated from.
    pub config: SynthConfig,
    /// Per-state worlds, in [`UsState::study_states`] order.
    pub states: Vec<StateWorld>,
    /// The latent truth for every Q1 (address, ISP) pair: one cell per
    /// CBG, drawn on demand. Q3 truth is drawn with its block
    /// ([`Q3World::draw`](crate::q3::Q3World::draw)). **For `caf-bqt` only** —
    /// analysis code must not read it.
    pub truth: TruthTable,
    /// The world's version: the cumulative number of challenge deltas
    /// applied since generation. Epoch 0 is the pristine seeded world;
    /// every [`World::apply_deltas`] batch advances it by the batch
    /// size, so any decomposition of one delta stream into batches
    /// lands on the same final epoch.
    pub epoch: u64,
    /// The merged effective corrections behind the current epoch (the
    /// content-addressed state that makes incremental rebuilds converge
    /// with from-scratch ones).
    pub challenges: ChallengeSet,
}

impl World {
    /// Generates the world for all fifteen study states.
    pub fn generate(config: SynthConfig) -> World {
        Self::generate_states(config, &UsState::study_states())
    }

    /// Generates the world for all fifteen study states on a worker
    /// pool (the `--workers` budget of the repro harness).
    pub fn generate_on(config: SynthConfig, engine: EngineConfig) -> World {
        Self::generate_states_on(config, &UsState::study_states(), engine)
    }

    /// Generates the world for a subset of states (cheaper for tests and
    /// focused experiments).
    pub fn generate_states(config: SynthConfig, states: &[UsState]) -> World {
        Self::generate_states_on(config, states, EngineConfig::serial())
    }

    /// Generates the world for a subset of states across an engine
    /// worker pool, fanning out in cost-hinted shards so a giant state
    /// (California is ~40 % of the total) no longer caps the speedup at
    /// its own build time.
    ///
    /// Generation is one [`caf_exec::map_units`] pass over the
    /// geography: per-state units hinted by
    /// [`StateGeography::cbg_count`]; big states split into contiguous
    /// CBG ranges ([`StateGeography::build_range`]) and reassemble via
    /// [`StateGeography::assemble`], which finalizes the whole-state
    /// density percentiles the Q1 truth cells read. The cells (one per
    /// CBG) are then derived serially, and they are all of
    /// [`World::truth`].
    ///
    /// Nothing else is built here. Each state's USAC records
    /// ([`LazyUsac`]) are built from the seed and the state the first
    /// time something reads them; the audit reads only the geography's
    /// address ids, so it builds none. Q3 blocks are not part of the
    /// world: the Q3 analysis draws them from the seed and the state as
    /// it queries them. Each call counts its states into
    /// `caf.synth.world.states_built`.
    ///
    /// Output is **byte-identical at any worker count and shard
    /// policy**: every stream in the generators is entity-keyed
    /// (`crate::rng`), shards cover disjoint contiguous CBG ranges, and
    /// the ranges reassemble positionally. The contract is pinned by
    /// `crates/tests/tests/parallel_cold_paths.rs`.
    pub fn generate_states_on(
        config: SynthConfig,
        states: &[UsState],
        engine: EngineConfig,
    ) -> World {
        let telemetry = caf_obs::enabled();
        let _span = caf_obs::span("synth.world");
        let wall_start = telemetry.then(Instant::now);

        // Geography, sharded by contiguous CBG ranges. The cost hint
        // (CBG count) is known without building anything.
        let geo_hints: Vec<CostHint> = states
            .iter()
            .map(|&state| {
                let n = StateGeography::cbg_count(&config, state);
                CostHint::Uniform {
                    cost: n as u64,
                    elements: n,
                }
            })
            .collect();
        let geo_plan = engine.plan(&geo_hints);
        let workers = engine.for_plan(&geo_plan).workers;
        let geo_parts = caf_exec::map_units(&geo_plan, |shard| {
            let state = states[shard.unit];
            let _span = caf_obs::span_with(|| format!("world.{}.geo", state.abbrev()));
            StateGeography::build_range(&config, state, shard.range.clone())
        });

        // Q1 truth cells: one per CBG, read off the finalized geography.
        let mut cells: Vec<Q1Cell> = Vec::new();
        let mut state_worlds = Vec::with_capacity(states.len());
        for (parts, &state) in geo_parts.into_iter().zip(states) {
            let geography =
                StateGeography::assemble(&config, state, parts.into_iter().flatten().collect());
            cells.extend(truth::q1_cells(
                &config,
                state,
                geography.certified_cbgs(),
                |_| None,
            ));
            state_worlds.push(StateWorld {
                state,
                usac: LazyUsac::new(UsacRecipe::new(
                    config,
                    state,
                    Arc::clone(&geography.cbgs),
                    Vec::new(),
                )),
                geography,
            });
        }
        let mut truth = TruthTable::new();
        truth.install_q1(config.seed, cells);
        caf_obs::count("caf.synth.world.states_built", states.len() as u64);
        if let Some(start) = wall_start {
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            caf_obs::gauge("caf.synth.world.wall_us", micros);
            caf_obs::gauge("caf.synth.world.workers", workers as u64);
            caf_obs::gauge("caf.synth.world.states", states.len() as u64);
            caf_obs::gauge("caf.synth.world.truth_cells", truth.cell_count() as u64);
        }
        World {
            config,
            states: state_worlds,
            truth,
            epoch: 0,
            challenges: ChallengeSet::new(),
        }
    }

    /// Applies a batch of challenge deltas, rebuilding only the touched
    /// (state, CBG, ISP) cells and advancing the epoch by the batch
    /// size. The batch is atomic: every delta is validated against the
    /// geography before anything mutates, so an `Err` leaves the world
    /// untouched.
    ///
    /// Each touched CBG's truth cell is rebuilt from the seed baseline
    /// through `truth::q1_cells`, the seam generation uses, with the
    /// *effective* availability correction from the merged
    /// [`ChallengeSet`] in place of the Beta-drawn rate. Each touched
    /// state's USAC records become an unbuilt [`LazyUsac`] whose recipe
    /// carries the state's effective certified-tier corrections, which
    /// the build applies last (rewriting certified speeds; technology
    /// stays at the baseline draw — a restated tier does not re-trench
    /// fiber). Because both start from the baseline and overlay only
    /// effective values, applying a delta stream in any batch
    /// decomposition converges to a byte-identical world.
    ///
    /// Geometry is invariant: corrections never change the geography,
    /// so address ids and per-cell address counts stay put — the
    /// property the incremental audit's dirty-cell invalidation relies
    /// on.
    pub fn apply_deltas(
        &mut self,
        deltas: &[ChallengeDelta],
    ) -> Result<DeltaOutcome, ChallengeError> {
        let _span = caf_obs::span("challenge.apply");
        // Validate the whole batch before mutating anything.
        {
            let _span = caf_obs::span("challenge.validate");
            for delta in deltas {
                let sw = self
                    .state(delta.state)
                    .ok_or(ChallengeError::UnknownState(delta.state))?;
                challenge::validate_delta(delta, &sw.geography)?;
            }
        }

        // Merge into the effective correction set, collecting the dirty
        // cells per state index.
        let mut touched_by_state: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); self.states.len()];
        for delta in deltas {
            self.challenges.merge_delta(delta);
            let idx = self
                .states
                .iter()
                .position(|s| s.state == delta.state)
                .expect("validated above");
            touched_by_state[idx].insert(delta.cbg);
        }

        // Rebuild each dirty cell from the seed baseline + effective
        // corrections.
        let _rebuild_span = caf_obs::span("challenge.rebuild");
        let config = self.config;
        let mut cells_rebuilt: u64 = 0;
        for (sw, cells) in self.states.iter_mut().zip(&touched_by_state) {
            if cells.is_empty() {
                continue;
            }
            let state = sw.state;
            let touched = sw
                .geography
                .certified_cbgs()
                .filter(|(i, _, _)| cells.contains(i));
            for cell in truth::q1_cells(&config, state, touched, |i| {
                self.challenges
                    .cell(state, i)
                    .and_then(CellCorrections::availability_rate)
            }) {
                self.truth.replace_q1_cell(cell);
            }
            sw.usac = LazyUsac::new(UsacRecipe::new(
                config,
                state,
                Arc::clone(&sw.geography.cbgs),
                self.challenges.certified_tiers(state),
            ));
            cells_rebuilt += cells.len() as u64;
        }

        self.epoch += deltas.len() as u64;
        if caf_obs::enabled() {
            caf_obs::count("caf.challenge.applied", deltas.len() as u64);
            caf_obs::count("caf.challenge.cells_rebuilt", cells_rebuilt);
            caf_obs::gauge("caf.challenge.epoch", self.epoch);
        }
        Ok(DeltaOutcome {
            epoch: self.epoch,
            applied: deltas.len(),
            touched: touched_by_state
                .into_iter()
                .enumerate()
                .filter(|(_, cells)| !cells.is_empty())
                .map(|(idx, cells)| (self.states[idx].state, cells.into_iter().collect()))
                .collect(),
        })
    }

    /// The per-state world for `state`, if generated.
    pub fn state(&self, state: UsState) -> Option<&StateWorld> {
        self.states.iter().find(|s| s.state == state)
    }

    /// Total certified CAF addresses across all generated states.
    pub fn total_caf_addresses(&self) -> u64 {
        self.states
            .iter()
            .map(|s| s.geography.total_caf_addresses())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::Isp;
    use crate::q3::Q3World;

    #[test]
    fn two_state_world_assembles() {
        let config = SynthConfig {
            seed: 21,
            scale: 40,
        };
        let world = World::generate_states(config, &[UsState::Vermont, UsState::Utah]);
        assert_eq!(world.states.len(), 2);
        let vt = world.state(UsState::Vermont).unwrap();
        let q3_blocks = |state| Q3World::build(&config, state).blocks;
        assert!(q3_blocks(vt.state).is_empty(), "Vermont is not a Q3 state");
        let ut = world.state(UsState::Utah).unwrap();
        assert!(!q3_blocks(ut.state).is_empty(), "Utah is a Q3 state");
        assert!(world.total_caf_addresses() > 0);
        // The world's truth covers at least every USAC record.
        let usac_total: usize = world.states.iter().map(|s| s.usac.records.len()).sum();
        assert!(world.truth.len() >= usac_total);
        assert!(world.state(UsState::Ohio).is_none());
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let config = SynthConfig {
            seed: 23,
            scale: 30,
        };
        let states = &UsState::study_states()[..4];
        let serial = World::generate_states(config, states);
        let parallel = World::generate_states_on(config, states, EngineConfig::with_workers(4));
        assert_eq!(serial.truth.len(), parallel.truth.len());
        assert_eq!(
            format!("{:?}", serial.states),
            format!("{:?}", parallel.states)
        );
        for sw in &serial.states {
            for r in &sw.usac.records {
                assert_eq!(
                    format!("{:?}", serial.truth.get(r.address.id, r.isp)),
                    format!("{:?}", parallel.truth.get(r.address.id, r.isp)),
                );
            }
        }
    }

    #[test]
    fn sharded_generation_matches_serial_at_any_policy() {
        use caf_exec::ShardPolicy;
        let config = SynthConfig {
            seed: 23,
            scale: 30,
        };
        let states = &[UsState::California, UsState::Vermont, UsState::Ohio];
        let baseline = World::generate_states_on(
            config,
            states,
            EngineConfig::serial().with_shard_policy(ShardPolicy::disabled()),
        );
        for policy in [ShardPolicy::default_policy(), ShardPolicy::finest()] {
            for workers in [1usize, 4] {
                let world = World::generate_states_on(
                    config,
                    states,
                    EngineConfig::with_workers(workers).with_shard_policy(policy),
                );
                assert_eq!(
                    format!("{:?}", baseline.states),
                    format!("{:?}", world.states),
                    "policy {policy:?} workers {workers}"
                );
                assert!(
                    baseline.truth == world.truth,
                    "policy {policy:?} workers {workers}"
                );
                for sw in &baseline.states {
                    for r in &sw.usac.records {
                        assert_eq!(
                            baseline.truth.get(r.address.id, r.isp),
                            world.truth.get(r.address.id, r.isp),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_deltas_converges_across_batch_splits() {
        use crate::challenge::{ChallengeDelta, Correction};
        let config = SynthConfig {
            seed: 21,
            scale: 40,
        };
        let states = &[UsState::Vermont, UsState::Utah];
        let make_deltas = |world: &World| {
            let vt = world.state(UsState::Vermont).unwrap();
            let isp0 = vt.geography.cbgs[0].isp;
            let isp1 = vt.geography.cbgs[1].isp;
            vec![
                ChallengeDelta {
                    state: UsState::Vermont,
                    cbg: 0,
                    isp: isp0,
                    correction: Correction::Availability { rate_ppm: 50_000 },
                },
                ChallengeDelta {
                    state: UsState::Vermont,
                    cbg: 1,
                    isp: isp1,
                    correction: Correction::CertifiedTier {
                        down_mbps: 10,
                        up_mbps: 1,
                    },
                },
                // Overwrites the first delta: last writer wins.
                ChallengeDelta {
                    state: UsState::Vermont,
                    cbg: 0,
                    isp: isp0,
                    correction: Correction::Availability { rate_ppm: 900_000 },
                },
            ]
        };

        // One batch vs. three singleton batches.
        let mut whole = World::generate_states(config, states);
        let deltas = make_deltas(&whole);
        let outcome = whole.apply_deltas(&deltas).expect("valid batch");
        assert_eq!(outcome.epoch, 3);
        assert_eq!(outcome.applied, 3);
        assert_eq!(outcome.dirty_cells(), 2);

        let mut split = World::generate_states(config, states);
        for delta in &deltas {
            split.apply_deltas(std::slice::from_ref(delta)).unwrap();
        }
        assert_eq!(split.epoch, 3);
        assert_eq!(format!("{:?}", whole.states), format!("{:?}", split.states));
        for sw in &whole.states {
            for r in &sw.usac.records {
                assert_eq!(
                    format!("{:?}", whole.truth.get(r.address.id, r.isp)),
                    format!("{:?}", split.truth.get(r.address.id, r.isp)),
                );
            }
        }

        // The corrections actually bit: certified tier rewritten in cell
        // 1, and untouched cells match the pristine world.
        let pristine = World::generate_states(config, states);
        let vt = whole.state(UsState::Vermont).unwrap();
        let cbg1 = &vt.geography.cbgs[1];
        let in_cbg1: Vec<_> = vt
            .usac
            .records
            .iter()
            .filter(|r| r.address.block_group() == cbg1.id)
            .collect();
        assert_eq!(in_cbg1.len(), cbg1.caf_addresses as usize);
        for r in in_cbg1 {
            assert_eq!(r.certified_down_mbps, 10.0);
            assert_eq!(r.certified_up_mbps, 1.0);
        }
        let vt_pristine = pristine.state(UsState::Vermont).unwrap();
        assert_eq!(
            format!("{:?}", vt.usac.records[vt.usac.records.len() - 1]),
            format!(
                "{:?}",
                vt_pristine.usac.records[vt_pristine.usac.records.len() - 1]
            ),
        );

        // An invalid batch leaves the world untouched (atomicity).
        let before = format!("{:?}", whole.states);
        let bad = ChallengeDelta {
            state: UsState::Vermont,
            cbg: usize::MAX,
            isp: crate::isp::Isp::Att,
            correction: Correction::Availability { rate_ppm: 0 },
        };
        assert!(whole.apply_deltas(&[deltas[0], bad]).is_err());
        assert_eq!(whole.epoch, 3);
        assert_eq!(before, format!("{:?}", whole.states));
    }

    #[test]
    fn generated_strings_borrow_their_lexicons() {
        use std::borrow::Cow;
        let config = SynthConfig {
            seed: 24,
            scale: 40,
        };
        // Vermont is Q1-only; Ohio adds Q3 blocks with competitor truth
        // entries.
        let world = World::generate_states(config, &[UsState::Vermont, UsState::Ohio]);
        let borrowed = |s: &Cow<'static, str>| matches!(s, Cow::Borrowed(_));
        let mut competitor_entries = 0;
        for sw in &world.states {
            assert!(!sw.usac.records.is_empty());
            for r in &sw.usac.records {
                let street = &r.address.street;
                assert!(borrowed(&street.street), "{street}");
                assert!(borrowed(&street.city), "{street}");
                assert!(borrowed(&street.state_abbrev), "{street}");
            }
        }
        let q3 = Q3World::build(&config, UsState::Ohio);
        for a in q3.blocks.iter().flat_map(|b| &b.addresses) {
            let street = &a.address.street;
            // The per-block street name is the one dynamic string.
            assert!(!borrowed(&street.street), "{street}");
            assert!(borrowed(&street.city), "{street}");
            assert!(borrowed(&street.state_abbrev), "{street}");
        }
        for (_, isp, truth) in q3.truth.entries() {
            competitor_entries += usize::from(matches!(isp, Isp::Xfinity | Isp::Spectrum));
            for plan in &truth.plans {
                assert!(borrowed(&plan.name), "{isp}: {plan}");
            }
        }
        // Q1 truth drawn on demand borrows its plan names too.
        for r in world.states.iter().flat_map(|sw| &sw.usac.records) {
            for plan in &world.truth.get(r.address.id, r.isp).unwrap().plans {
                assert!(borrowed(&plan.name), "{}: {plan}", r.isp);
            }
        }
        assert!(competitor_entries > 0, "Q3 competitor truth was generated");
    }

    #[test]
    fn q1_and_q3_truth_coexist() {
        let config = SynthConfig {
            seed: 22,
            scale: 60,
        };
        let world = World::generate_states(config, &[UsState::NewHampshire]);
        let nh = world.state(UsState::NewHampshire).unwrap();
        // A Q1 record's truth is present.
        let r = &nh.usac.records[0];
        assert!(world.truth.get(r.address.id, r.isp).is_some());
        // A Q3 address's truth is present under the block's CAF ISP, in
        // the state's Q3 table, not the world's.
        let q3 = Q3World::build(&config, nh.state);
        let block = &q3.blocks[0];
        let a = &block.addresses[0];
        assert!(q3.truth.get(a.address.id, block.caf_isp).is_some());
        assert!(world.truth.get(a.address.id, block.caf_isp).is_none());
        assert_eq!(world.truth.stored_count(), 0);
        // NH's Q3 incumbent is Consolidated (Table 4).
        assert_eq!(block.caf_isp, Isp::Consolidated);
    }
}
