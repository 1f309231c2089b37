//! # caf-bqt — a simulated broadband-plan querying tool
//!
//! The paper's data comes from BQT, a crawler that mimics a real user on
//! each ISP's availability web form: type the address, drive the dropdown
//! resolver, classify the resulting page (plans / no-service / ambiguous),
//! and retry through rotating proxy IPs when bot detection or flaky UI
//! kills an attempt (§3.2, §9.2). The live websites are a data gate this
//! reproduction cannot reach, so this crate simulates them: each ISP is a
//! small page-level state machine ([`website`]) whose behaviour is driven
//! by the hidden [`caf_synth::TruthTable`] and by the calibrated error
//! model of [`caf_synth::params`].
//!
//! Layers, bottom up:
//!
//! * [`outcome`] — the query-outcome taxonomy of §9.2 (Serviceable /
//!   No Service / Unknown / Address Not Found / Call to Order) and the
//!   per-address [`QueryRecord`].
//! * [`website`] — per-ISP page flows: CenturyLink's Brightspeed redirect,
//!   Consolidated's Fidium hand-off and its missing no-service page,
//!   AT&T's modify-service and "Call to Order" flows, Frontier's
//!   tier-less subscriber pages.
//! * [`proxy`] — the Bright-Initiative-style rotating IP pool (data-center
//!   and residential endpoints) with per-IP usage telemetry.
//! * [`timing`] — per-attempt latency from Figure 11's lognormal fits.
//! * [`client`] — the retry loop: attempt, classify, rotate, repeat.
//! * [`campaign`] — a latency-aware, work-stealing scheduler
//!   that drains a task list the way the paper ran many Docker containers
//!   in parallel, plus coverage telemetry (Figures 7/8) and traceback
//!   aggregation (Table 2).
//! * [`checkpoint`] — append-only campaign checkpoints on a
//!   [`caf_snap::Log`], so a killed campaign resumes byte-identically.
//!
//! Every stochastic draw derives from a per-(address, ISP) seed, so a
//! campaign's results are identical regardless of worker count, shard
//! policy, or steal schedule — parallelism changes wall-clock only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod client;
pub mod outcome;
pub mod proxy;
pub mod snap;
pub mod throttle;
pub mod timing;
pub mod website;

pub use caf_exec::ShardPolicy;
pub use campaign::{
    adaptive_attempts, Campaign, CampaignConfig, CampaignResult, CampaignStats, QueryTask,
};
pub use checkpoint::CheckpointConfig;
pub use client::QueryClient;
pub use outcome::{QueryOutcome, QueryRecord};
pub use proxy::{ProxyKind, ProxyPool};
pub use throttle::ThrottlePolicy;
pub use website::Page;
