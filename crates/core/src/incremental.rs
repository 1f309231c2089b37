//! Epoch-versioned incremental recompute over the audit.
//!
//! A challenge delta batch ([`World::apply_deltas`]) invalidates a
//! handful of (state, CBG, ISP) cells; everything else in the audited
//! world is untouched. Rerunning [`Audit::run_with`] from scratch after
//! every batch would redo all of that clean work, so [`IncrementalAudit`]
//! keeps the audit's dataset resident — its cells behind shared pointers
//! — and recomputes **only the invalidated cells**, swapping each
//! refreshed cell in for its stale one. Clean cells are never copied:
//! a refreshed dataset shares them with every dataset handed out before.
//!
//! This is deliberately a refactor of the existing engine, not a second
//! one: cells were already the audit's scheduling element (the audit
//! computes them independently inside any shard), so delta invalidation
//! reduces to planning a shard schedule over the dirty element runs —
//! [`EngineConfig::plan_subset`] — and handing it to the audit's one
//! cell runner, the same one a batch run uses. The same LPT dispatch,
//! one-lane campaigns inside each shard and positional cell placement
//! apply.
//!
//! ## Determinism contract
//!
//! [`IncrementalAudit::dataset`] at epoch `e` is **byte-identical** to a
//! from-scratch [`Audit::run_with`] over a world rebuilt at epoch `e`,
//! at any worker count and shard policy on either side, and under any
//! batch decomposition of the delta stream. Three facts carry it:
//!
//! 1. Cells are pure functions of `(seed, cell state)` — the
//!    campaign's query outcomes are entity-keyed and the resample
//!    cursor never crosses cells.
//! 2. [`World::apply_deltas`] rebuilds touched cells content-addressed
//!    (seed baseline + effective corrections), so the cell state a
//!    refresh sees equals what a fresh world at the same epoch holds.
//! 3. A dataset is its cells in cell order whichever path built them,
//!    and its round-major walk reads retained and refreshed cells alike,
//!    so they interleave exactly as a full run would emit them.
//!
//! The contract is pinned by `crates/tests/tests/challenge.rs` across
//! worker counts × shard policies × batch splits.

use caf_exec::EngineConfig;
use caf_synth::challenge::DeltaOutcome;
use caf_synth::{StateWorld, World};
use std::ops::Range;

use crate::audit::{Audit, AuditDataset};

/// The audit as a live, epoch-versioned system of record: full compute
/// once, then cell-granular refreshes as challenge deltas arrive.
#[derive(Debug)]
pub struct IncrementalAudit {
    audit: Audit,
    epoch: u64,
    /// The resident dataset: per world state, its cells in the state's
    /// canonical cell order (`geography.caf_cells()`).
    dataset: AuditDataset,
}

impl IncrementalAudit {
    /// Runs the full audit over `world`, keeping its cells resident.
    /// Equivalent in cost to one [`Audit::run_with`].
    pub fn build(audit: Audit, world: &World, engine: EngineConfig) -> IncrementalAudit {
        let _span = caf_obs::span("audit.incremental.build");
        let units: Vec<&StateWorld> = world.states.iter().collect();
        let plan = engine.plan(&audit.unit_hints(&units));
        Audit::record_plan_gauges(engine, &plan);
        let dataset = AuditDataset {
            states: audit.run_cells(&units, &world.truth, &plan),
        };
        IncrementalAudit {
            audit,
            epoch: world.epoch,
            dataset,
        }
    }

    /// The epoch the resident cells reflect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The audit configuration driving (re)computation.
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Total resident cells across all states.
    pub fn cell_count(&self) -> usize {
        self.dataset.cells().count()
    }

    /// Recomputes the cells a delta batch invalidated, against the
    /// already-advanced `world`. `outcome` must be the result of the
    /// [`World::apply_deltas`] call (or the last of a series of calls —
    /// pass accumulated touched sets if refreshing less often than
    /// applying) that brought `world` to its current epoch.
    ///
    /// Dirty (state, CBG) addresses arrive in *geography enumeration*
    /// coordinates (the challenge wire format) and are translated to
    /// audit cell positions (`geography.caf_cells()` order) here; contiguous
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
            self.dataset.states.len(),
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
            let sw = &world.states[unit];
            // `caf_cells()` is sorted by (ISP, CBG): a binary search
            // finds each dirty cell.
            let cells = sw.geography.caf_cells();
            let mut positions: Vec<usize> = geo_indices
                .iter()
                .map(|&i| {
                    let cbg = &sw.geography.cbgs[i];
                    cells
                        .binary_search_by_key(&(cbg.isp, cbg.id), |cell| (cell.isp, cell.cbg))
                        .expect("a touched CBG certifies a cell")
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

        let plan = engine.plan_subset(&self.audit.unit_hints(&units), &runs);
        caf_obs::count("caf.core.audit.cells_refreshed", dirty_cells);
        caf_obs::observe("caf.core.audit.dirty_shards", plan.shard_count() as u64);
        let refreshed = self.audit.run_cells(&units, &world.truth, &plan);

        // Swap the refreshed cells in: they arrive in ascending position
        // order, covering exactly the dirty runs.
        for (unit, (cells, unit_runs)) in refreshed.into_iter().zip(&runs).enumerate() {
            let positions = unit_runs.iter().flat_map(|r| r.clone());
            debug_assert_eq!(cells.len(), positions.clone().count());
            for (pos, cell) in positions.zip(cells) {
                self.dataset.states[unit][pos] = cell;
            }
        }
        self.epoch = outcome.epoch;
        caf_obs::gauge("caf.core.audit.epoch", self.epoch);
    }

    /// The [`AuditDataset`] at the resident epoch — byte-identical to a
    /// from-scratch [`Audit::run_with`] over a world at the same epoch
    /// (see the module docs). It shares the resident cells: the clone
    /// copies pointers, not rows.
    pub fn dataset(&self) -> AuditDataset {
        self.dataset.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::sampling::SamplingRule;
    use caf_bqt::CampaignConfig;
    use caf_geo::UsState;
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
        assert!(a.records().eq(b.records()));
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.coverage().count(), b.coverage().count());
        for (x, y) in a.coverage().zip(b.coverage()) {
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
