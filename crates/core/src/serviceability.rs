//! Q1 — the serviceability analysis (§4.1).
//!
//! The serviceability rate of a census block group is the fraction of its
//! definitively-queried addresses the ISP actively serves. Aggregates at
//! coarser granularity (ISP, state, state-ISP pair, national) weight each
//! CBG's rate by the CBG's *total* CAF address count, so the varying
//! per-CBG sampling rates of §3.1 cannot skew the result.
//!
//! The per-(ISP, CBG) grouping is read straight off a shared
//! [`AuditIndex`] — [`ServiceabilityAnalysis::from_index`] is a cheap
//! projection of the index's cell table, and
//! [`compute`](ServiceabilityAnalysis::compute) stays as the one-shot
//! convenience that builds a throwaway index.

use caf_exec::EngineConfig;
use caf_geo::{BlockGroupId, LatLon, UsState};
use caf_stats::weighted::WeightedSample;
use caf_stats::{pearson, spearman, weighted_mean, BootstrapCi, StatsError, Summary};
use caf_synth::Isp;

use crate::audit::AuditDataset;
use crate::index::AuditIndex;

/// A CBG's serviceability observation.
#[derive(Debug, Clone, Copy)]
pub struct CbgRate {
    /// The ISP.
    pub isp: Isp,
    /// The state.
    pub state: UsState,
    /// The CBG.
    pub cbg: BlockGroupId,
    /// Fraction of definitive queries that were served.
    pub rate: f64,
    /// The CBG's total CAF addresses (aggregation weight).
    pub weight: f64,
    /// CBG density (people per square mile).
    pub density: f64,
    /// CBG within-state density percentile.
    pub density_pct: f64,
    /// CBG centroid.
    pub centroid: LatLon,
    /// Definitive queries behind the rate.
    pub n: usize,
}

/// The CBG-weighted rate `Σ rate·weight / Σ weight` of `(rate, weight)`
/// pairs (§4.1), or `None` without a pair or a positive total weight.
/// Q1 and Q2 aggregate with it alike.
pub(crate) fn weighted_rate(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let samples: Vec<WeightedSample> = pairs
        .map(|(rate, weight)| WeightedSample::new(rate, weight))
        .collect();
    weighted_mean(&samples).ok()
}

/// A percentile bootstrap CI on the CBG-weighted rate of `pairs`, each
/// replicate resampling pairs (CBGs) by index. The one copy of the
/// statistic every weighted-rate CI uses.
pub(crate) fn weighted_rate_ci(
    engine: EngineConfig,
    pairs: &[(f64, f64)],
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
    caf_stats::bootstrap_indices_ci_on(
        engine,
        pairs.len(),
        |idx| {
            let (num, den) = idx.iter().fold((0.0, 0.0), |(n, d), &i| {
                (n + pairs[i].0 * pairs[i].1, d + pairs[i].1)
            });
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        },
        replicates,
        level,
        seed,
    )
}

/// The serviceability analysis over an audit dataset.
#[derive(Debug)]
pub struct ServiceabilityAnalysis {
    /// Per-(ISP, CBG) rates.
    pub cbg_rates: Vec<CbgRate>,
}

impl ServiceabilityAnalysis {
    /// Computes per-CBG rates from the audit rows by building a
    /// throwaway [`AuditIndex`]. Callers holding a shared index (the
    /// bench fixture, the repro harness) should use
    /// [`from_index`](ServiceabilityAnalysis::from_index) instead.
    pub fn compute(dataset: &AuditDataset) -> ServiceabilityAnalysis {
        ServiceabilityAnalysis::from_index(&AuditIndex::build(dataset))
    }

    /// Projects the analysis off a pre-built index. The index's cell
    /// table already carries every per-(ISP, CBG) aggregate Q1 needs, so
    /// this is a single pass with no re-grouping; cell order is the old
    /// `(isp, cbg)` sort order, byte-identical to the HashMap path.
    pub fn from_index(index: &AuditIndex) -> ServiceabilityAnalysis {
        let cbg_rates: Vec<CbgRate> = index
            .cells()
            .iter()
            .map(|cell| CbgRate {
                isp: cell.meta.isp,
                state: cell.meta.state,
                cbg: cell.meta.cbg,
                rate: cell.serviceability_rate(),
                weight: cell.meta.weight,
                density: cell.meta.density,
                density_pct: cell.meta.density_pct,
                centroid: cell.meta.centroid,
                n: cell.len(),
            })
            .collect();
        ServiceabilityAnalysis { cbg_rates }
    }

    /// The overall weighted serviceability rate (the paper's 55.45 %).
    pub fn overall_rate(&self) -> f64 {
        self.rate_where(|_| true)
            .expect("analysis requires at least one CBG")
    }

    /// A bootstrap confidence interval on the overall rate, resampling
    /// *census block groups* (the unit of clustering — resampling
    /// addresses would understate the uncertainty the CBG design
    /// induces), with the replicates chunked across an engine worker
    /// pool. Bit-identical at any worker count (the bootstrap keys each
    /// replicate's stream by its index).
    pub fn overall_rate_ci_on(
        &self,
        engine: EngineConfig,
        replicates: usize,
        level: f64,
        seed: u64,
    ) -> Result<BootstrapCi, StatsError> {
        let pairs: Vec<(f64, f64)> = self.cbg_rates.iter().map(|r| (r.rate, r.weight)).collect();
        weighted_rate_ci(engine, &pairs, replicates, level, seed)
    }

    /// [`overall_rate_ci_on`](ServiceabilityAnalysis::overall_rate_ci_on)
    /// over one ISP's CBGs. Fewer than three give
    /// [`StatsError::InsufficientData`].
    pub fn rate_ci_for_isp_on(
        &self,
        engine: EngineConfig,
        isp: Isp,
        replicates: usize,
        level: f64,
        seed: u64,
    ) -> Result<BootstrapCi, StatsError> {
        let pairs: Vec<(f64, f64)> = self
            .cbg_rates
            .iter()
            .filter(|r| r.isp == isp)
            .map(|r| (r.rate, r.weight))
            .collect();
        if pairs.len() < 3 {
            return Err(StatsError::InsufficientData {
                got: pairs.len(),
                need: 3,
            });
        }
        weighted_rate_ci(engine, &pairs, replicates, level, seed)
    }

    /// The weighted rate for one ISP (§4.1: 31.53 % AT&T, 90.42 %
    /// CenturyLink, 70.71 % Frontier, 83.95 % Consolidated).
    pub fn rate_for_isp(&self, isp: Isp) -> Option<f64> {
        self.rate_where(|r| r.isp == isp)
    }

    /// The weighted rate for one state.
    pub fn rate_for_state(&self, state: UsState) -> Option<f64> {
        self.rate_where(|r| r.state == state)
    }

    /// The weighted rate for a (state, ISP) pair.
    pub fn rate_for_pair(&self, state: UsState, isp: Isp) -> Option<f64> {
        self.rate_where(|r| r.state == state && r.isp == isp)
    }

    /// The distribution of CBG-level rates for one ISP (Figure 2a's
    /// box-plot series).
    pub fn distribution_for_isp(&self, isp: Isp) -> Option<Summary> {
        self.distribution_where(|r| r.isp == isp)
    }

    /// The distribution of CBG-level rates for one state (Figure 2b).
    pub fn distribution_for_state(&self, state: UsState) -> Option<Summary> {
        self.distribution_where(|r| r.state == state)
    }

    /// The distribution for a (state, ISP) pair (Figure 2c's AT&T rows).
    pub fn distribution_for_pair(&self, state: UsState, isp: Isp) -> Option<Summary> {
        self.distribution_where(|r| r.state == state && r.isp == isp)
    }

    fn rate_where(&self, keep: impl Fn(&CbgRate) -> bool) -> Option<f64> {
        weighted_rate(
            self.cbg_rates
                .iter()
                .filter(|r| keep(r))
                .map(|r| (r.rate, r.weight)),
        )
    }

    fn distribution_where(&self, keep: impl Fn(&CbgRate) -> bool) -> Option<Summary> {
        let rates: Vec<f64> = self
            .cbg_rates
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.rate)
            .collect();
        Summary::of(&rates).ok()
    }

    /// Pearson and Spearman correlation between CBG population density
    /// (log-scaled, matching Figure 3's log axis — raw density is
    /// lognormal-skewed and would dilute Pearson) and serviceability for
    /// an (ISP, state). Returns `None` with fewer than three CBGs or
    /// degenerate variance.
    pub fn density_correlation(&self, isp: Isp, state: UsState) -> Option<(f64, f64)> {
        let pairs: Vec<(f64, f64)> = self
            .cbg_rates
            .iter()
            .filter(|r| r.isp == isp && r.state == state)
            .map(|r| (r.density.max(1e-6).ln(), r.rate))
            .collect();
        if pairs.len() < 3 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        match (pearson(&xs, &ys), spearman(&xs, &ys)) {
            (Ok(r), Ok(rho)) => Some((r, rho)),
            _ => None,
        }
    }

    /// Density-decile means for Figure 3's trend series: ten
    /// `(mean density, mean rate)` points for an (ISP, state).
    pub fn density_decile_series(&self, isp: Isp, state: UsState) -> Vec<(f64, f64)> {
        let mut rows: Vec<&CbgRate> = self
            .cbg_rates
            .iter()
            .filter(|r| r.isp == isp && r.state == state)
            .collect();
        rows.sort_by(|a, b| a.density.total_cmp(&b.density));
        if rows.is_empty() {
            return Vec::new();
        }
        let per = (rows.len() / 10).max(1);
        rows.chunks(per)
            .take(10)
            .map(|chunk| {
                let d = chunk.iter().map(|r| r.density).sum::<f64>() / chunk.len() as f64;
                let s = chunk.iter().map(|r| r.rate).sum::<f64>() / chunk.len() as f64;
                (d, s)
            })
            .collect()
    }

    /// A geospatial grid of mean serviceability for an (ISP, state) —
    /// Figure 10's map, as `rows × cols` cells of `Option<mean rate>`.
    pub fn geospatial_grid(
        &self,
        isp: Isp,
        state: UsState,
        grid_rows: usize,
        grid_cols: usize,
    ) -> Vec<Vec<Option<f64>>> {
        let bbox = state.bbox();
        let mut sums = vec![vec![0.0; grid_cols]; grid_rows];
        let mut counts = vec![vec![0usize; grid_cols]; grid_rows];
        for r in self
            .cbg_rates
            .iter()
            .filter(|r| r.isp == isp && r.state == state)
        {
            if let Some((row, col)) = bbox.locate(grid_rows, grid_cols, r.centroid) {
                sums[row][col] += r.rate;
                counts[row][col] += 1;
            }
        }
        sums.into_iter()
            .zip(counts)
            .map(|(srow, crow)| {
                srow.into_iter()
                    .zip(crow)
                    .map(|(s, c)| if c > 0 { Some(s / c as f64) } else { None })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditRow, CellMeta};
    use caf_geo::{BlockGroupId, CountyId, StateFips, TractId};
    use caf_synth::plans::PlanCatalog;

    /// Hand-built audit rows: two CBGs with known rates and weights.
    fn hand_dataset() -> AuditDataset {
        let state = StateFips::new(50).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        let cbg_a = BlockGroupId::new(tract, 1).unwrap();
        let cbg_b = BlockGroupId::new(tract, 2).unwrap();
        let cat = PlanCatalog::for_isp(Isp::Consolidated);
        let plan = cat.plan_from_tier(cat.tier_near(50.0));
        let mk = |i: u64, cbg: BlockGroupId, total: f64, served: bool, dens: f64| {
            let meta = CellMeta {
                isp: Isp::Consolidated,
                state: UsState::Vermont,
                cbg,
                weight: total,
                density: dens,
                density_pct: dens / 1_000.0,
                centroid: LatLon::new(44.0, -72.5).unwrap(),
            };
            let row = AuditRow {
                address: caf_geo::AddressId(i),
                served,
                max_down_mbps: if served { Some(50.0) } else { None },
                plans: served.then(|| plan.clone()).into_iter().collect(),
                existing_subscriber: false,
            };
            (meta, row)
        };
        AuditDataset::from_rows(vec![
            // CBG A (weight 100): 2 of 2 served → rate 1.0.
            mk(1, cbg_a, 100.0, true, 900.0),
            mk(2, cbg_a, 100.0, true, 900.0),
            // CBG B (weight 300): 0 of 2 served → rate 0.0.
            mk(3, cbg_b, 300.0, false, 20.0),
            mk(4, cbg_b, 300.0, false, 20.0),
        ])
    }

    #[test]
    fn weighted_aggregation_matches_hand_computation() {
        let analysis = ServiceabilityAnalysis::compute(&hand_dataset());
        assert_eq!(analysis.cbg_rates.len(), 2);
        // Weighted: (1.0·100 + 0.0·300) / 400 = 0.25 — NOT the unweighted
        // 0.5. This is exactly the §4.1 weighting rule.
        let overall = analysis.overall_rate();
        assert!((overall - 0.25).abs() < 1e-12, "got {overall}");
        assert_eq!(analysis.rate_for_isp(Isp::Consolidated).unwrap(), overall);
        assert_eq!(analysis.rate_for_isp(Isp::Att), None);
        assert!((analysis.rate_for_state(UsState::Vermont).unwrap() - 0.25).abs() < 1e-12);
        assert!(
            (analysis
                .rate_for_pair(UsState::Vermont, Isp::Consolidated)
                .unwrap()
                - 0.25)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn distributions_are_over_cbgs_not_addresses() {
        let analysis = ServiceabilityAnalysis::compute(&hand_dataset());
        let summary = analysis.distribution_for_isp(Isp::Consolidated).unwrap();
        assert_eq!(summary.n, 2); // two CBGs
        assert_eq!(summary.min, 0.0);
        assert_eq!(summary.max, 1.0);
        assert_eq!(summary.median, 0.5);
    }

    #[test]
    fn density_correlation_positive_in_hand_data() {
        // Served CBG is dense, unserved is sparse: perfect correlation.
        let analysis = ServiceabilityAnalysis::compute(&hand_dataset());
        // Only two CBGs → below the 3-CBG floor.
        assert_eq!(
            analysis.density_correlation(Isp::Consolidated, UsState::Vermont),
            None
        );
        let series = analysis.density_decile_series(Isp::Consolidated, UsState::Vermont);
        assert_eq!(series.len(), 2);
        assert!(series[0].0 < series[1].0);
        assert!(series[0].1 < series[1].1);
    }

    #[test]
    fn geospatial_grid_buckets_cbgs() {
        let analysis = ServiceabilityAnalysis::compute(&hand_dataset());
        let grid = analysis.geospatial_grid(Isp::Consolidated, UsState::Vermont, 4, 4);
        let filled: usize = grid.iter().flatten().filter(|c| c.is_some()).count();
        assert_eq!(filled, 1, "both CBGs share one centroid cell");
        let value = grid.iter().flatten().flatten().next().copied().unwrap();
        assert!((value - 0.5).abs() < 1e-12); // mean of 1.0 and 0.0
    }
}
