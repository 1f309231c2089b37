//! # caf-core — the CAF efficacy analysis pipeline
//!
//! This crate is the paper's contribution: the post-hoc audit methodology
//! that takes (1) the regulator-facing USAC CAF-Map and (2) BQT query
//! outcomes, and answers the three policy questions of §1:
//!
//! * **Q1 — service availability** ([`serviceability`]): do ISPs genuinely
//!   offer service at the addresses they certified? Metric: the
//!   *serviceability rate*, computed per census block group and weighted
//!   by each CBG's total CAF address count when aggregated.
//! * **Q2 — compliance** ([`compliance`]): do the advertised plans meet
//!   the FCC's rate (≤ $89/mo) and service (≥ 10/1 Mbps, guaranteed)
//!   standards? Metric: the *compliance rate*, same weighting.
//! * **Q3 — regulated vs unregulated monopoly** ([`q3`]): within a census
//!   block, does the CAF ISP advertise better plans at its regulated
//!   (CAF) addresses than at its unregulated (monopoly) or competitive
//!   non-CAF addresses?
//!
//! Supporting stages: the §3.1 address [`sampling`] strategy
//! (max(30, 10 %) per CBG, resampling on persistent failure), the
//! end-to-end [`audit`] orchestrator, campaign [`coverage`] telemetry
//! (Figures 7/8), the §9.1 [`sensitivity`] analysis (Figure 9), and the
//! headline [`report`].
//!
//! Two shared execution layers sit underneath: [`index`] builds the
//! columnar [`AuditIndex`] once per dataset so every analysis consumes
//! pre-grouped `(ISP, CBG)` slices instead of re-deriving HashMaps, and
//! the `caf_exec` engine runs the per-state audit units on a scoped
//! worker pool under a strict determinism contract (identical output at
//! any worker count).
//!
//! [`pipeline`] strings the stages together: it is the one place that
//! turns a world description into a [`pipeline::Scenario`] (world →
//! audit → index → analyses), so `repro`, `caf-serve`, the policy sweep
//! and `challenge_replay` all audit under the same setup.
//!
//! The pipeline never reads the synthetic world's latent truth — only
//! query outcomes — so the calibration tests in `tests/` are genuine
//! end-to-end recovery checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod audit;
pub mod compliance;
pub mod counterfactual;
pub mod coverage;
pub mod experienced;
pub mod incremental;
pub mod index;
pub mod oversight;
pub mod pipeline;
pub mod program;
pub mod q3;
pub mod report;
pub mod sampling;
pub mod sensitivity;
pub mod serviceability;

pub use artifact::ScenarioMeta;
pub use audit::{Audit, AuditConfig, AuditDataset, AuditRow};
pub use caf_exec::{CostHint, EngineConfig, Shard, ShardPolicy, UnitPlan};
pub use compliance::ComplianceAnalysis;
pub use counterfactual::{CompetitionCounterfactual, CounterfactualPoint, SubsidyRule};
pub use experienced::ExperiencedAnalysis;
pub use incremental::IncrementalAudit;
pub use index::{AuditIndex, CellMeta, RecordIndex};
pub use oversight::{compare_oversight, OversightConfig};
pub use pipeline::Scenario;
pub use program::ProgramRules;
pub use q3::{BlockType, Q3Analysis};
pub use report::EfficacyReport;
pub use sampling::{SamplingPlan, SamplingRule};
pub use serviceability::ServiceabilityAnalysis;
