//! # caf-stats — statistics substrate
//!
//! Every result in the paper is an aggregate statistic: CBG-weighted
//! serviceability and compliance rates (§4.1–4.2), medians and percentiles
//! of download-speed distributions (Figures 4–6), empirical CDFs (Figures
//! 1c, 4b, 4c, 5b, 6a, 7, 8, 11), the density/serviceability correlation
//! (Figure 3), and the FCC's "within two standard deviations of the urban
//! average" rate benchmark (§2.2). This crate implements those statistics
//! from scratch, with explicit error handling for empty or degenerate
//! inputs — the conditions the paper's §5 flags as statistical-significance
//! hazards.
//!
//! Modules:
//!
//! * [`descriptive`] — mean, variance, standard deviation, summaries.
//! * [`mod@quantile`] — interpolated quantiles, medians, percentile series.
//! * [`weighted`] — weighted means and weighted quantiles (the paper's
//!   CBG-weighting).
//! * [`ecdf`] — empirical CDFs and the evenly-spaced series the figures use.
//! * [`corr`] — Pearson and Spearman correlation.
//! * [`kstest`] — the two-sample Kolmogorov–Smirnov test.
//! * [`bootstrap`] — seeded nonparametric bootstrap confidence intervals.
//! * [`benchmark`] — the FCC's two-sigma "reasonably comparable" rate test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod bootstrap;
pub mod corr;
pub mod descriptive;
pub mod ecdf;
pub mod error;
pub mod kstest;
pub mod quantile;
pub mod weighted;

pub use benchmark::UrbanRateBenchmark;
pub use bootstrap::{
    bootstrap_ci, bootstrap_ci_on, bootstrap_indices_ci, bootstrap_indices_ci_on, BootstrapCi,
};
pub use corr::{pearson, spearman};
pub use descriptive::{mean, stddev, variance, Summary};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use kstest::{ks_two_sample, KsTest};
pub use quantile::{median, quantile};
pub use weighted::{weighted_mean, weighted_quantile, WeightedSample};
