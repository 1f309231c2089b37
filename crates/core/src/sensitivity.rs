//! The §9.1 sampling-rate sensitivity analysis (Figure 9).
//!
//! To check that the max(30, 10 %) rule does not distort serviceability
//! estimates, the paper selects census block groups with more than 30
//! addresses, queries at least 75 % of each as ground truth, and then
//! measures the error of serviceability estimates computed from smaller
//! random samples at varying rates. Errors stay under 5 percentage points
//! at every rate, evidencing diminishing returns from extra queries.

use caf_bqt::{Campaign, CampaignConfig, QueryTask};
use caf_exec::{map_units, CostHint, EngineConfig};
use caf_geo::AddressId;
use caf_synth::rng::scoped_rng;
use caf_synth::{Isp, World};
use std::ops::Range;

/// One sweep point: the mean absolute serviceability error at a sampling
/// rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Sampling rate in `(0, 1]`.
    pub rate: f64,
    /// Mean absolute error vs the ≥75 %-sample ground truth, in
    /// percentage points.
    pub mean_abs_error_pct: f64,
    /// Worst-case CBG error at this rate, in percentage points.
    pub max_abs_error_pct: f64,
}

/// The sensitivity analysis.
#[derive(Debug)]
pub struct SensitivityAnalysis {
    /// CBGs used (those with more than `min_size` addresses).
    pub cbgs_used: usize,
    /// One point per sampled rate.
    pub sweep: Vec<SweepPoint>,
}

impl SensitivityAnalysis {
    /// Runs the sweep for one ISP over the world's states.
    ///
    /// * `cbg_budget` — how many qualifying CBGs to use (paper: 46).
    /// * `rates` — sampling rates to evaluate (paper: 10–75 %).
    /// * `repeats` — random redraws per rate, errors averaged.
    pub fn run(
        world: &World,
        isp: Isp,
        campaign_config: CampaignConfig,
        cbg_budget: usize,
        rates: &[f64],
        repeats: usize,
    ) -> SensitivityAnalysis {
        Self::run_on(
            world,
            isp,
            campaign_config,
            cbg_budget,
            rates,
            repeats,
            EngineConfig::serial(),
        )
    }

    /// [`run`](SensitivityAnalysis::run) with the per-rate sweep fanned
    /// out across an engine worker pool. The sweep's redraws are keyed
    /// by `(rate index, CBG index, repeat)`, so the result is identical
    /// at any worker count; the ground-truth campaign itself runs once,
    /// before the sweep, on the campaign's own worker budget.
    #[allow(clippy::too_many_arguments)]
    pub fn run_on(
        world: &World,
        isp: Isp,
        campaign_config: CampaignConfig,
        cbg_budget: usize,
        rates: &[f64],
        repeats: usize,
        engine: EngineConfig,
    ) -> SensitivityAnalysis {
        assert!(repeats >= 1, "need at least one repeat");
        let campaign = Campaign::new(campaign_config);
        let seed = campaign_config.seed;

        // Qualifying CBGs: more than 30 addresses, the figure's premise.
        let mut cbg_addresses: Vec<Vec<AddressId>> = Vec::new();
        for sw in &world.states {
            for cell in sw.geography.caf_cells() {
                if cell.isp != isp || cell.count <= 30 {
                    continue;
                }
                cbg_addresses.push(cell.ids().collect());
                if cbg_addresses.len() >= cbg_budget {
                    break;
                }
            }
            if cbg_addresses.len() >= cbg_budget {
                break;
            }
        }

        // Ground truth: query 75 % of each CBG (deterministic draw). The
        // per-CBG samples are concatenated into a single task list and
        // run as ONE campaign — outcomes are keyed by (seed, address,
        // ISP), so this yields exactly the records of the old
        // one-campaign-per-CBG loop while paying the campaign's
        // fan-out/teardown cost once. `ranges[ci]` slices CBG `ci`'s
        // records back out (the campaign preserves task order).
        let mut tasks: Vec<QueryTask> = Vec::new();
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(cbg_addresses.len());
        for (ci, addresses) in cbg_addresses.iter().enumerate() {
            let mut pool = addresses.clone();
            let mut rng = scoped_rng(seed, "sensitivity-truth", ci as u64);
            rng.shuffle(&mut pool);
            let take = ((pool.len() as f64) * 0.75).ceil() as usize;
            let start = tasks.len();
            tasks.extend(
                pool[..take.max(1)]
                    .iter()
                    .map(|&address| QueryTask { address, isp }),
            );
            ranges.push(start..tasks.len());
        }
        let result = campaign.run(&world.truth, &tasks);

        // Per-CBG truth rates plus a sorted per-CBG outcome table (the
        // sweep's lookup structure — binary-searched, no HashMap).
        let mut truth_rate: Vec<f64> = Vec::with_capacity(cbg_addresses.len());
        let mut cbg_outcomes: Vec<Vec<(AddressId, bool)>> = Vec::with_capacity(cbg_addresses.len());
        for range in &ranges {
            let mut served = 0usize;
            let mut definitive = 0usize;
            let mut outcomes: Vec<(AddressId, bool)> = Vec::new();
            for record in &result.records[range.clone()] {
                if let Some(s) = record.outcome.is_served() {
                    definitive += 1;
                    if s {
                        served += 1;
                    }
                    outcomes.push((record.address, s));
                }
            }
            outcomes.sort_unstable_by_key(|&(address, _)| address);
            cbg_outcomes.push(outcomes);
            truth_rate.push(if definitive == 0 {
                0.0
            } else {
                served as f64 / definitive as f64
            });
        }

        // Sweep: estimate serviceability from sub-samples *of the already
        // queried addresses* (re-querying would be free here but was not
        // in the paper; sub-sampling matches its method). Each rate is an
        // independent work unit — its redraws are keyed by
        // `(ri, ci, rep)`, never by a shared stream — so the sweep fans
        // out on the engine pool with byte-identical results.
        let plan = engine.plan(&vec![CostHint::opaque(1); rates.len()]);
        let sweep = map_units(&plan, |shard| {
            let (ri, rate) = (shard.unit, rates[shard.unit]);
            let mut errors: Vec<f64> = Vec::new();
            for (ci, addresses) in cbg_addresses.iter().enumerate() {
                let outcomes = &cbg_outcomes[ci];
                let outcome_of = |a: AddressId| -> Option<bool> {
                    outcomes
                        .binary_search_by_key(&a, |&(address, _)| address)
                        .ok()
                        .map(|i| outcomes[i].1)
                };
                let queried: Vec<AddressId> = addresses
                    .iter()
                    .copied()
                    .filter(|&a| outcome_of(a).is_some())
                    .collect();
                if queried.is_empty() {
                    continue;
                }
                for rep in 0..repeats {
                    let mut pool = queried.clone();
                    let mut rng = scoped_rng(
                        seed,
                        "sensitivity-sweep",
                        (ri as u64) << 32 | (ci as u64) << 8 | rep as u64,
                    );
                    rng.shuffle(&mut pool);
                    let take = ((pool.len() as f64) * rate).ceil() as usize;
                    let sample = &pool[..take.max(1)];
                    let served = sample
                        .iter()
                        .filter(|&&a| outcome_of(a) == Some(true))
                        .count();
                    let estimate = served as f64 / sample.len() as f64;
                    errors.push(100.0 * (estimate - truth_rate[ci]).abs());
                }
            }
            let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
            let max = errors.iter().cloned().fold(0.0, f64::max);
            SweepPoint {
                rate,
                mean_abs_error_pct: mean,
                max_abs_error_pct: max,
            }
        })
        .into_iter()
        .flatten()
        .collect();

        SensitivityAnalysis {
            cbgs_used: cbg_addresses.len(),
            sweep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_geo::UsState;
    use caf_synth::SynthConfig;

    #[test]
    fn errors_shrink_with_rate_and_stay_bounded() {
        let synth = SynthConfig {
            seed: 88,
            scale: 30,
        };
        let world = World::generate_states(synth, &[UsState::Mississippi]);
        let analysis = SensitivityAnalysis::run(
            &world,
            Isp::Att,
            CampaignConfig {
                seed: synth.seed,
                workers: 4,
                ..CampaignConfig::default()
            },
            12,
            &[0.10, 0.30, 0.60],
            5,
        );
        assert!(analysis.cbgs_used > 5, "used {}", analysis.cbgs_used);
        assert_eq!(analysis.sweep.len(), 3);
        // Monotone-ish improvement: the densest sample beats the sparsest.
        let first = analysis.sweep.first().unwrap();
        let last = analysis.sweep.last().unwrap();
        assert!(
            last.mean_abs_error_pct <= first.mean_abs_error_pct + 1.0,
            "first {first:?} last {last:?}"
        );
        // Figure 9's claim: errors under ~5 points at modest rates. Allow
        // slack for the smaller synthetic CBGs.
        for point in &analysis.sweep {
            assert!(
                point.mean_abs_error_pct < 15.0,
                "rate {} error {}",
                point.rate,
                point.mean_abs_error_pct
            );
            assert!(point.max_abs_error_pct >= point.mean_abs_error_pct);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let synth = SynthConfig {
            seed: 88,
            scale: 25,
        };
        let world = World::generate_states(synth, &[UsState::Mississippi]);
        let config = CampaignConfig {
            seed: synth.seed,
            workers: 2,
            ..CampaignConfig::default()
        };
        let rates = [0.10, 0.30, 0.60];
        let serial = SensitivityAnalysis::run(&world, Isp::Att, config, 8, &rates, 3);
        let parallel = SensitivityAnalysis::run_on(
            &world,
            Isp::Att,
            config,
            8,
            &rates,
            3,
            EngineConfig::with_workers(4),
        );
        assert_eq!(serial.cbgs_used, parallel.cbgs_used);
        assert_eq!(serial.sweep, parallel.sweep);
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_rejected() {
        let synth = SynthConfig {
            seed: 1,
            scale: 100,
        };
        let world = World::generate_states(synth, &[UsState::Vermont]);
        SensitivityAnalysis::run(
            &world,
            Isp::Consolidated,
            CampaignConfig::default(),
            5,
            &[0.5],
            0,
        );
    }
}
