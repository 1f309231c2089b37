//! # caf-exec — the deterministic parallel execution engine
//!
//! A scoped worker pool with a byte-identical-output determinism
//! contract, shared by every layer that fans independent work units out
//! across threads: per-state world generation (`caf-synth`), bootstrap
//! replicate chunks (`caf-stats`), the per-state audit
//! (`caf-core::audit`), the BQT campaign (`caf-bqt`) and the policy
//! sweep (`caf-sweep`). The crate sits *below* the synth and stats
//! layers in the dependency graph — it depends only on `caf-geo` (the
//! leaf vocabulary crate) and `caf-obs` (the zero-dependency telemetry
//! layer), and runs on `std::thread::scope` — which is exactly what
//! lets the cold paths beneath `caf-core` use the same pool the audit
//! does. `caf-core` re-exports [`EngineConfig`] and the plan types at
//! its root for callers above it.
//!
//! One scheduling primitive serves every caller: [`map_units`] runs the
//! shards of a cost-hinted [`UnitPlan`]. The [`plan`] module splits
//! heavy units into shards and orders them longest-first; the [`steal`]
//! module deals them onto per-worker deques and lets idle workers steal
//! queued tail shards. When the hints are accurate nothing is stolen
//! and the run is the plan's static LPT dispatch; evenly sized work
//! (one item per unit) is a plan of [`CostHint::opaque`] units.
//!
//! The [`prop`] module is the seeded case runner the property and fuzz
//! suites share.
//!
//! # The determinism contract
//!
//! Parallelism may change wall-clock time only, never results. Three
//! properties uphold the contract, and the regression tests in
//! `crates/tests/tests/determinism.rs` and
//! `crates/tests/tests/parallel_cold_paths.rs` pin it end-to-end:
//!
//! 1. **Entity-keyed randomness.** Every stochastic decision inside a
//!    unit is keyed by the entity it concerns — sampling draws by
//!    `(seed, CBG, ISP)`, query outcomes by `(seed, address, ISP)`,
//!    bootstrap draws by `(seed, replicate index)` — so a unit's (and
//!    therefore a shard's) output is a pure function of its inputs,
//!    independent of scheduling. The key mixers and the workspace's
//!    one generator, [`rng::StdRng`], live in [`rng`].
//! 2. **Unit isolation.** Units share only immutable inputs. Nothing a
//!    unit computes feeds another unit. Shards additionally cover
//!    *contiguous, disjoint* element ranges of their unit.
//! 3. **Ordered merge.** [`map_units`] returns results positionally,
//!    grouped per unit with shards in ascending element order, so
//!    concatenating partials reproduces the sequential loop's output
//!    exactly.
//!
//! Engine-level stochastic decisions (none exist today; e.g. a future
//! per-unit retry jitter) must derive their stream from [`state_seed`],
//! never from a shared counter or thread id — that would re-introduce
//! schedule dependence and break property 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod prop;
pub mod rng;
pub mod steal;

pub use plan::{CostHint, Shard, ShardPolicy, UnitPlan};
pub use steal::{map_units, map_units_stats, StealStats};

use caf_geo::UsState;
use rng::{mix, mix_str};

/// How the engine schedules independent work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for work units. `1` runs the plain sequential
    /// loop on the caller's thread.
    pub workers: usize,
    /// When (and how finely) cost-hinted units are split into shards by
    /// [`EngineConfig::plan`]. Purely a wall-clock knob: results are
    /// byte-identical under every policy. Constructors resolve it from
    /// the `CAF_SHARD_THRESHOLD` environment variable (an integer
    /// percentage; `0` disables sharding), defaulting to
    /// [`ShardPolicy::default_policy`].
    pub shard: ShardPolicy,
}

impl EngineConfig {
    /// Sequential execution on the calling thread.
    pub fn serial() -> EngineConfig {
        EngineConfig {
            workers: 1,
            shard: ShardPolicy::resolve(),
        }
    }

    /// One worker per available core. The count is *not* capped here:
    /// the run-time clamp lives in [`EngineConfig::for_units`], which
    /// knows the actual number of work units (a fixed cap of 8 starved
    /// wide machines on large unit sets and oversubscribed small ones).
    pub fn auto() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            shard: ShardPolicy::resolve(),
        }
    }

    /// A fixed worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> EngineConfig {
        EngineConfig {
            workers: workers.max(1),
            shard: ShardPolicy::resolve(),
        }
    }

    /// Replaces the shard policy (the `repro --shard-threshold` flag
    /// and the bit-identity tests route through this).
    pub fn with_shard_policy(self, shard: ShardPolicy) -> EngineConfig {
        EngineConfig { shard, ..self }
    }

    /// Clamps the worker count to the number of work units actually
    /// being scheduled (at least 1) — workers beyond the unit count
    /// would only idle. Callers apply this once the unit set is known;
    /// the audit additionally reports both the configured and the
    /// effective count through the telemetry registry. Note the clamp
    /// is by *unit* count: shard-scheduling callers clamp by shard
    /// count instead via [`EngineConfig::for_plan`].
    pub fn for_units(self, units: usize) -> EngineConfig {
        EngineConfig {
            workers: self.workers.min(units.max(1)),
            ..self
        }
    }

    /// Builds a shard plan for cost-hinted units under this engine's
    /// worker budget and shard policy.
    pub fn plan(self, hints: &[CostHint]) -> UnitPlan {
        UnitPlan::build(self.workers, hints, self.shard)
    }

    /// Builds a [`UnitPlan`] covering only the given element runs of
    /// each unit (see [`UnitPlan::build_subset`]) — the incremental
    /// recompute path, where most elements are retained and only dirty
    /// runs re-execute.
    pub fn plan_subset(self, hints: &[CostHint], runs: &[Vec<std::ops::Range<usize>>]) -> UnitPlan {
        UnitPlan::build_subset(self.workers, hints, self.shard, runs)
    }

    /// Clamps the worker count to a plan's shard count — the sharded
    /// analogue of [`EngineConfig::for_units`].
    pub fn for_plan(self, plan: &UnitPlan) -> EngineConfig {
        self.for_units(plan.shard_count())
    }

    /// The worker budget for one of `ways` concurrent engine-driven
    /// computations sharing this configuration — the sizing rule for
    /// *persistent* pools (a serving layer keeps the process-wide
    /// budget fixed while N scenario computations run at once, so each
    /// gets `ceil(workers / ways)` instead of multiplying the machine
    /// by the in-flight count). Rounds up: starving a computation to
    /// zero threads wastes wall-clock that the budget owner is already
    /// paying for. Like every worker knob, this only moves wall-clock
    /// time — results are byte-identical at any share.
    pub fn share(self, ways: usize) -> EngineConfig {
        EngineConfig {
            workers: self.workers.div_ceil(ways.max(1)).max(1),
            ..self
        }
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::auto()
    }
}

/// Derives the seed of one state's work unit from the run seed — the
/// engine's `(config.seed, state)` keying, using the state's FIPS code
/// so the value is stable across enum reorderings.
///
/// Existing pipeline streams (sampling, queries) are *already* keyed by
/// entities that embed the state, so they do not reroute through this;
/// it exists for engine-level decisions (see the crate docs) and as the
/// label under which unit-scoped diagnostics are reported.
pub fn state_seed(seed: u64, state: UsState) -> u64 {
    mix(
        mix_str(seed, "engine-state"),
        u64::from(state.fips().code()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan of `n` one-element units of equal cost: one item per unit.
    fn even_plan(workers: usize, n: usize) -> UnitPlan {
        UnitPlan::build(
            workers,
            &vec![CostHint::opaque(1); n],
            ShardPolicy::disabled(),
        )
    }

    #[test]
    fn map_units_preserves_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<Vec<u64>> = items.iter().map(|&x| vec![x * x]).collect();
        for workers in [1, 2, 3, 8, 128] {
            let got = map_units(&even_plan(workers, items.len()), |s| {
                assert_eq!(s.range, 0..1);
                items[s.unit] * items[s.unit]
            });
            assert_eq!(got, expected, "workers = {workers}");
        }
        assert!(map_units(&even_plan(4, 0), |s| s.unit).is_empty());
    }

    #[test]
    fn map_units_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        map_units(&even_plan(4, 64), |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected parallel execution"
        );
    }

    #[test]
    fn trace_context_propagates_to_pool_workers() {
        // A traced request dispatching into the pool hands its context
        // to every worker; spans they open then attach to the request.
        let id = caf_obs::TraceId::derive(0xCAF_2024, 42);
        let ctx = caf_obs::TraceCtx::new(id);
        let _guard = ctx.enter();
        let seen = map_units(&even_plan(4, 64), |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            caf_obs::trace::current().map(|c| c.id())
        });
        assert!(seen.iter().flatten().all(|got| *got == Some(id)));
    }

    #[test]
    fn map_units_reassembles_shards_positionally() {
        // Three units of different sizes; the middle one dominates.
        // Expected output: for each unit, its elements doubled — shard
        // boundaries must be invisible after reassembly.
        let units: Vec<Vec<u64>> = vec![
            (0..5).collect(),
            (100..180).collect(),
            (1_000..1_010).collect(),
        ];
        let hints: Vec<CostHint> = units
            .iter()
            .map(|u| CostHint::Uniform {
                cost: u.len() as u64,
                elements: u.len(),
            })
            .collect();
        let expected: Vec<Vec<u64>> = units
            .iter()
            .map(|u| u.iter().map(|&x| x * 2).collect())
            .collect();
        for workers in [1usize, 2, 4, 16] {
            for policy in [
                ShardPolicy::disabled(),
                ShardPolicy::default_policy(),
                ShardPolicy::finest(),
            ] {
                let plan = UnitPlan::build(workers, &hints, policy);
                let grouped = map_units(&plan, |shard| {
                    units[shard.unit][shard.range.clone()]
                        .iter()
                        .map(|&x| x * 2)
                        .collect::<Vec<u64>>()
                });
                assert_eq!(grouped.len(), units.len());
                let merged: Vec<Vec<u64>> = grouped
                    .into_iter()
                    .map(|shards| shards.into_iter().flatten().collect())
                    .collect();
                assert_eq!(merged, expected, "workers = {workers}, policy = {policy:?}");
            }
        }
    }

    #[test]
    fn map_units_shards_the_giant_unit() {
        let hints = vec![
            CostHint::Uniform {
                cost: 900,
                elements: 900,
            },
            CostHint::Uniform {
                cost: 30,
                elements: 30,
            },
        ];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert!(plan.is_sharded());
        let grouped = map_units(&plan, |shard| shard.range.len());
        assert!(grouped[0].len() > 1, "giant unit ran as multiple shards");
        assert_eq!(grouped[0].iter().sum::<usize>(), 900);
        assert_eq!(grouped[1].iter().sum::<usize>(), 30);
    }

    #[test]
    fn state_seed_is_stable_and_state_sensitive() {
        let a = state_seed(0xCAF_2024, UsState::Alabama);
        assert_eq!(a, state_seed(0xCAF_2024, UsState::Alabama));
        let mut seeds: Vec<u64> = UsState::study_states()
            .iter()
            .map(|&s| state_seed(0xCAF_2024, s))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), UsState::study_states().len(), "no collisions");
        assert_ne!(a, state_seed(0xCAF_2025, UsState::Alabama));
    }

    #[test]
    fn engine_config_constructors() {
        assert_eq!(EngineConfig::serial().workers, 1);
        assert_eq!(EngineConfig::with_workers(0).workers, 1);
        assert_eq!(EngineConfig::with_workers(6).workers, 6);
        assert!(EngineConfig::auto().workers >= 1);
        assert_eq!(EngineConfig::default(), EngineConfig::auto());
        let custom = EngineConfig::serial().with_shard_policy(ShardPolicy::finest());
        assert_eq!(custom.shard, ShardPolicy::finest());
        assert_eq!(custom.workers, 1);
    }

    #[test]
    fn for_units_clamps_workers_to_the_unit_count() {
        assert_eq!(EngineConfig::with_workers(16).for_units(4).workers, 4);
        assert_eq!(EngineConfig::with_workers(2).for_units(15).workers, 2);
        assert_eq!(EngineConfig::with_workers(8).for_units(0).workers, 1);
        assert_eq!(EngineConfig::serial().for_units(100).workers, 1);
    }

    #[test]
    fn for_plan_clamps_workers_to_the_shard_count() {
        let hints = vec![CostHint::opaque(10), CostHint::opaque(10)];
        let plan = UnitPlan::build(16, &hints, ShardPolicy::disabled());
        assert_eq!(EngineConfig::with_workers(16).for_plan(&plan).workers, 2);
    }

    #[test]
    fn share_splits_a_persistent_pool_budget() {
        assert_eq!(EngineConfig::with_workers(8).share(1).workers, 8);
        assert_eq!(EngineConfig::with_workers(8).share(2).workers, 4);
        assert_eq!(EngineConfig::with_workers(8).share(3).workers, 3);
        assert_eq!(EngineConfig::with_workers(2).share(16).workers, 1);
        assert_eq!(EngineConfig::serial().share(0).workers, 1);
        // The shard policy rides along unchanged.
        let shared = EngineConfig::with_workers(8)
            .with_shard_policy(ShardPolicy::finest())
            .share(2);
        assert_eq!(shared.shard, ShardPolicy::finest());
    }
}
