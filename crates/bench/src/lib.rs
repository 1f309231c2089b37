//! # caf-bench — experiment formatting for the repro harness
//!
//! The `repro` binary regenerates every table and figure in the paper's
//! evaluation; the benches under `benches/` measure the pipeline itself.
//! Both build their scenarios through [`caf_core::pipeline`]. This crate
//! holds the text formatting the harness prints (aligned tables, CDF
//! series, distribution rows) and [`Fixture`], the older name of a
//! [`Scenario`] built with the harness's campaign configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use caf_core::pipeline::{self, campaign_config, Scenario};
use caf_core::{EngineConfig, Q3Analysis};
use caf_geo::UsState;
use caf_stats::Ecdf;
use caf_synth::{ChallengeDelta, ChallengeError, SynthConfig, World};

/// A [`Scenario`] built with [`campaign_config`] on the fixture's
/// engine; it dereferences to the scenario, so its fields read as
/// `fixture.dataset` and so on.
pub struct Fixture(Scenario);

impl std::ops::Deref for Fixture {
    type Target = Scenario;

    fn deref(&self) -> &Scenario {
        &self.0
    }
}

impl Fixture {
    /// Runs the Q1/Q2 pipeline over `states` on `engine`.
    pub fn build_tuned(seed: u64, scale: u32, states: &[UsState], engine: EngineConfig) -> Fixture {
        Fixture::build_tuned_at(seed, scale, states, engine, &[])
            .expect("an empty delta stream cannot fail validation")
    }

    /// Like [`Fixture::build_tuned`], but applies a challenge delta
    /// stream to the world before auditing — the from-scratch rebuild
    /// at a given epoch (see [`Scenario::build`]).
    pub fn build_tuned_at(
        seed: u64,
        scale: u32,
        states: &[UsState],
        engine: EngineConfig,
        deltas: &[ChallengeDelta],
    ) -> Result<Fixture, ChallengeError> {
        Scenario::build(
            SynthConfig { seed, scale },
            states,
            engine,
            campaign_config(seed, engine),
            deltas,
        )
        .map(Fixture)
    }

    /// Runs the Q3 pipeline (dedicated world over the seven Q3 states).
    pub fn build_q3_tuned(seed: u64, scale: u32, engine: EngineConfig) -> (World, Q3Analysis) {
        pipeline::build_q3(
            SynthConfig { seed, scale },
            engine,
            campaign_config(seed, engine),
        )
    }
}

/// Formats an ECDF as `x<TAB>F(x)` rows at the given resolution.
pub fn format_cdf(label: &str, values: &[f64], points: usize) -> String {
    let mut out = format!("# CDF: {label} (n={})\n", values.len());
    match Ecdf::new(values) {
        Ok(ecdf) => {
            for (x, f) in ecdf.series(points) {
                out.push_str(&format!("{x:12.3}\t{f:8.4}\n"));
            }
        }
        Err(_) => out.push_str("(empty series)\n"),
    }
    out
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:6.2} %", 100.0 * x)
}

/// Formats a two-column name/value table with aligned names.
pub fn format_pairs(title: &str, pairs: &[(String, String)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = format!("== {title} ==\n");
    for (k, v) in pairs {
        out.push_str(&format!("  {k:<width$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_formatting() {
        let s = format_cdf("test", &[1.0, 2.0, 3.0], 3);
        assert!(s.contains("# CDF: test (n=3)"));
        assert_eq!(s.lines().count(), 4);
        let s = format_cdf("empty", &[], 3);
        assert!(s.contains("empty series"));
    }

    #[test]
    fn pct_and_pairs_formatting() {
        assert_eq!(pct(0.5545), " 55.45 %");
        let s = format_pairs(
            "T",
            &[("a".into(), "1".into()), ("long-name".into(), "2".into())],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("a          1"));
    }
}
