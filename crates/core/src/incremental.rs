//! Epoch-versioned incremental recompute over the audit.
//!
//! A challenge delta batch ([`World::apply_deltas`]) invalidates a
//! handful of (state, CBG, ISP) cells; everything else in the audited
//! world is untouched. Rerunning [`Audit::run_with`] from scratch after
//! every batch would redo all of that clean work, so [`IncrementalAudit`]
//! keeps the audit's per-cell partial results resident and recomputes
//! **only the invalidated cells**, splicing the refreshed partials into
//! the retained ones.
//!
//! This is deliberately a refactor of the existing engine, not a second
//! one: cells were already the audit's scheduling element
//! ([`Audit::audit_cells_each`] computes them independently inside any
//! shard), so delta invalidation reduces to planning a shard schedule
//! over the dirty element runs — [`EngineConfig::plan_subset`] — and
//! running the same per-cell loop over it. The same LPT dispatch,
//! nested-campaign worker budgeting, and positional reassembly apply.
//!
//! ## Determinism contract
//!
//! [`IncrementalAudit::dataset`] at epoch `e` is **byte-identical** to a
//! from-scratch [`Audit::run_with`] over a world rebuilt at epoch `e`,
//! at any worker count and shard policy on either side, and under any
//! batch decomposition of the delta stream. Three facts carry it:
//!
//! 1. Cell partials are pure functions of `(seed, cell state)` — the
//!    campaign's query outcomes are entity-keyed and the resample
//!    cursor never crosses cells.
//! 2. [`World::apply_deltas`] rebuilds touched cells content-addressed
//!    (seed baseline + effective corrections), so the cell state a
//!    refresh sees equals what a fresh world at the same epoch holds.
//! 3. Dataset assembly is the same cell-order, round-major merge the
//!    batch path uses ([`merge_round_major`]), so retained and
//!    refreshed partials interleave exactly as a full run would emit
//!    them.
//!
//! The contract is pinned by `crates/tests/tests/challenge.rs` across
//! worker counts × shard policies × batch splits.

use caf_exec::{map_units, EngineConfig};
use caf_geo::{BlockGroupId, UsState};
use caf_synth::challenge::DeltaOutcome;
use caf_synth::{Isp, StateWorld, World};
use std::collections::HashMap;
use std::ops::Range;

use crate::audit::{flatten_partial, merge_round_major, Audit, AuditDataset, StatePartial};

/// Resident per-cell audit state for one state: one [`StatePartial`]
/// per (ISP, CBG) cell, in the state's canonical cell order
/// (`usac.cbg_cells()` — sorted by `(Isp, BlockGroupId)`).
#[derive(Debug, Clone)]
struct StateCells {
    state: UsState,
    cells: Vec<StatePartial>,
}

/// The audit as a live, epoch-versioned system of record: full compute
/// once, then cell-granular refreshes as challenge deltas arrive.
#[derive(Debug, Clone)]
pub struct IncrementalAudit {
    audit: Audit,
    epoch: u64,
    states: Vec<StateCells>,
}

impl IncrementalAudit {
    /// Runs the full audit over `world`, keeping per-cell partials
    /// resident. Equivalent in cost to one [`Audit::run_with`], plus
    /// the retained partials' memory.
    pub fn build(audit: Audit, world: &World, engine: EngineConfig) -> IncrementalAudit {
        let _span = caf_obs::span("audit.incremental.build");
        let units: Vec<&StateWorld> = world.states.iter().collect();
        let hints = audit.unit_hints(&units);
        let plan = engine.plan(&hints);
        let configured = engine.workers;
        let engine = engine.for_plan(&plan);
        Audit::record_plan_gauges(configured, engine.workers, units.len());
        let campaign = audit.nested_campaign(&engine);
        let unit_partials = map_units(&plan, |shard| {
            audit.audit_cells_each(
                &campaign,
                &world.truth,
                units[shard.unit],
                shard.range.clone(),
            )
        });
        let states = unit_partials
            .into_iter()
            .zip(&world.states)
            .map(|(shard_groups, sw)| StateCells {
                state: sw.state,
                cells: shard_groups.into_iter().flatten().collect(),
            })
            .collect();
        IncrementalAudit {
            audit,
            epoch: world.epoch,
            states,
        }
    }

    /// The epoch the resident partials reflect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The audit configuration driving (re)computation.
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Total resident cells across all states.
    pub fn cell_count(&self) -> usize {
        self.states.iter().map(|s| s.cells.len()).sum()
    }

    /// Recomputes the cells a delta batch invalidated, against the
    /// already-advanced `world`. `outcome` must be the result of the
    /// [`World::apply_deltas`] call (or the last of a series of calls —
    /// pass accumulated touched sets if refreshing less often than
    /// applying) that brought `world` to its current epoch.
    ///
    /// Dirty (state, CBG) addresses arrive in *geography enumeration*
    /// coordinates (the challenge wire format) and are translated to
    /// audit cell positions (`usac.cbg_cells()` order) here; contiguous
    /// dirty positions coalesce into runs so the subset plan shards
    /// them like any other cost-hinted range.
    pub fn refresh(&mut self, world: &World, outcome: &DeltaOutcome, engine: EngineConfig) {
        assert_eq!(
            world.epoch, outcome.epoch,
            "refresh must see the world the outcome describes"
        );
        assert!(
            self.epoch <= outcome.epoch,
            "cannot refresh backwards (resident epoch {}, outcome {})",
            self.epoch,
            outcome.epoch
        );
        let _span = caf_obs::span("audit.incremental.refresh");
        let units: Vec<&StateWorld> = world.states.iter().collect();
        assert_eq!(
            units.len(),
            self.states.len(),
            "world shape changed under the incremental audit"
        );

        // Translate dirty geography indices to audit cell runs.
        let mut runs: Vec<Vec<Range<usize>>> = vec![Vec::new(); units.len()];
        let mut dirty_cells = 0u64;
        for (state, geo_indices) in &outcome.touched {
            let unit = world
                .states
                .iter()
                .position(|s| s.state == *state)
                .expect("touched state present in world");
            debug_assert_eq!(self.states[unit].state, *state);
            let sw = &world.states[unit];
            let pos_of: HashMap<(Isp, BlockGroupId), usize> = sw
                .usac
                .cbg_cells()
                .enumerate()
                .map(|(pos, (isp, cbg, _))| ((isp, cbg), pos))
                .collect();
            let mut positions: Vec<usize> = geo_indices
                .iter()
                .map(|&i| {
                    let cbg = &sw.geography.cbgs[i];
                    pos_of[&(cbg.isp, cbg.id)]
                })
                .collect();
            positions.sort_unstable();
            positions.dedup();
            dirty_cells += positions.len() as u64;
            for &pos in &positions {
                match runs[unit].last_mut() {
                    Some(run) if run.end == pos => run.end = pos + 1,
                    _ => runs[unit].push(pos..pos + 1),
                }
            }
        }

        let hints = self.audit.unit_hints(&units);
        let plan = engine.plan_subset(&hints, &runs);
        caf_obs::count("caf.core.audit.cells_refreshed", dirty_cells);
        caf_obs::observe("caf.core.audit.dirty_shards", plan.shard_count() as u64);
        let engine = engine.for_plan(&plan);
        let audit = self.audit;
        let campaign = audit.nested_campaign(&engine);
        let refreshed = map_units(&plan, |shard| {
            audit.audit_cells_each(
                &campaign,
                &world.truth,
                units[shard.unit],
                shard.range.clone(),
            )
        });

        // Splice refreshed partials into the retained cells: shard
        // groups arrive in ascending range order, covering exactly the
        // dirty runs in order.
        for (unit, (shard_groups, unit_runs)) in refreshed.into_iter().zip(&runs).enumerate() {
            let new_partials: Vec<StatePartial> = shard_groups.into_iter().flatten().collect();
            let positions: Vec<usize> = unit_runs.iter().flat_map(|r| r.clone()).collect();
            debug_assert_eq!(new_partials.len(), positions.len());
            for (pos, partial) in positions.into_iter().zip(new_partials) {
                self.states[unit].cells[pos] = partial;
            }
        }
        self.epoch = outcome.epoch;
        caf_obs::gauge("caf.core.audit.epoch", self.epoch);
    }

    /// Materializes the full [`AuditDataset`] at the resident epoch —
    /// byte-identical to a from-scratch [`Audit::run_with`] over a
    /// world at the same epoch (see the module docs).
    pub fn dataset(&self) -> AuditDataset {
        let _span = caf_obs::span("audit.incremental.dataset");
        let mut rows = Vec::new();
        let mut records = Vec::new();
        let mut coverage = Vec::new();
        for state_cells in &self.states {
            let merged = merge_round_major(state_cells.cells.clone());
            flatten_partial(merged, &mut rows, &mut records, &mut coverage);
        }
        AuditDataset {
            rows,
            records,
            coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::sampling::SamplingRule;
    use caf_bqt::CampaignConfig;
    use caf_synth::challenge::{ChallengeDelta, Correction};
    use caf_synth::SynthConfig;

    fn fixture() -> (World, Audit) {
        let synth = SynthConfig {
            seed: 55,
            scale: 40,
        };
        let world = World::generate_states(synth, &[UsState::Vermont, UsState::Utah]);
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..CampaignConfig::default()
            },
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        (world, audit)
    }

    fn datasets_equal(a: &AuditDataset, b: &AuditDataset) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.to_dataframe().to_csv(), b.to_dataframe().to_csv());
        assert_eq!(a.coverage.len(), b.coverage.len());
        for (x, y) in a.coverage.iter().zip(&b.coverage) {
            assert_eq!(
                (x.isp, x.cbg, x.total, x.queried, x.collected),
                (y.isp, y.cbg, y.total, y.queried, y.collected)
            );
        }
    }

    #[test]
    fn build_matches_batch_audit_and_refresh_tracks_deltas() {
        let (mut world, audit) = fixture();
        let engine = EngineConfig::with_workers(2);
        let mut inc = IncrementalAudit::build(audit, &world, engine);
        assert_eq!(inc.epoch(), 0);
        datasets_equal(&inc.dataset(), &audit.run_with(&world, engine));

        // Apply a batch touching two Vermont cells and refresh.
        let vt = world.state(UsState::Vermont).unwrap();
        let deltas = vec![
            ChallengeDelta {
                state: UsState::Vermont,
                cbg: 2,
                isp: vt.geography.cbgs[2].isp,
                correction: Correction::Availability { rate_ppm: 80_000 },
            },
            ChallengeDelta {
                state: UsState::Vermont,
                cbg: 4,
                isp: vt.geography.cbgs[4].isp,
                correction: Correction::CertifiedTier {
                    down_mbps: 25,
                    up_mbps: 3,
                },
            },
        ];
        let outcome = world.apply_deltas(&deltas).expect("valid deltas");
        inc.refresh(&world, &outcome, engine);
        assert_eq!(inc.epoch(), 2);

        // The refreshed dataset equals a from-scratch audit of the
        // mutated world.
        datasets_equal(&inc.dataset(), &audit.run_with(&world, engine));
    }
}
