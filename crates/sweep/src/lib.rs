//! # caf-sweep — the counterfactual policy sweep engine
//!
//! The paper's policy payload is its counterfactuals: what happens to
//! serviceability, compliance, and consumer value when the $89 price
//! cap moves, when the 10/1 Mbps CAF floor is replaced by the FCC's
//! 25/3 definition or BEAD's 100/20 standard, or when subsidy is
//! reallocated toward fostering competition (§7). This crate turns
//! those what-ifs into a *grid workload*, the Chameleon-style
//! scenario-grid orchestrator of ROADMAP item 3:
//!
//! 1. A [`SweepSpec`] names the axes — states × scale × price-cap
//!    multiplier × speed-threshold tier × subsidy-reallocation rule —
//!    and expands them cartesianly into [`Cell`]s, each with a
//!    content-addressed [`ScenarioKey`].
//! 2. The grid compiles into **one** cost-aware
//!    [`UnitPlan`](caf_core::UnitPlan) over `caf-exec`: one unit per
//!    (state, scale) world, hinted by the world's scaled record count,
//!    executed on the work-stealing scheduler so a giant California
//!    world starts first and cannot strand a worker.
//! 3. Each unit ([`run_world`]) builds its world's policy-independent
//!    stages once — the `caf_core::pipeline` scenario (world, audit,
//!    index, serviceability and baseline compliance), then Q3 and the
//!    counterfactual — and evaluates every policy cell of the world
//!    against them, with policy-parameterized thresholds threaded
//!    through `caf_core::{compliance,counterfactual,q3}`.
//! 4. Results reduce into canonical JSON ([`results_artifact`]) and
//!    CSV ([`results_csv`]) emissions that are **byte-identical at any
//!    worker count or steal schedule** — the engine determinism contract, extended
//!    to the grid (and gated in ci.sh).
//!
//! The same cells are served live by `caf-serve`'s `GET /v1/sweep`,
//! where each cell lands in the `ScenarioCache` and spills to the disk
//! tier — the first workload whose key population far exceeds the
//! cache capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod runner;
pub mod spec;

pub use grid::{est_records, Cell, ScenarioKey};
pub use runner::{
    cell_body, results_artifact, results_csv, run_world, world_groups, SweepOptions, SweepRun,
};
pub use spec::{SpecError, SweepSpec};
