//! Campaign coverage telemetry (Figures 7 and 8).
//!
//! Figure 7 plots, per ISP, the CDF over CBGs of the *percentage of
//! addresses queried*; Figure 8 the percentage *collected* (definitive
//! outcomes) after filtering repeated errors. Both read directly off the
//! per-CBG [`crate::audit::CbgCoverage`] counters the audit maintains.

use caf_stats::Ecdf;
use caf_synth::Isp;

use crate::audit::AuditDataset;

/// Coverage series for one ISP.
#[derive(Debug, Clone)]
pub struct CoverageSeries {
    /// The ISP.
    pub isp: Isp,
    /// Per-CBG queried percentages.
    pub queried_pct: Vec<f64>,
    /// Per-CBG collected percentages.
    pub collected_pct: Vec<f64>,
}

impl CoverageSeries {
    /// Extracts the series for `isp` from an audit dataset, or `None` if
    /// the ISP has no audited CBGs.
    pub fn extract(dataset: &AuditDataset, isp: Isp) -> Option<CoverageSeries> {
        let queried: Vec<f64> = dataset
            .coverage()
            .filter(|c| c.isp == isp)
            .map(|c| c.queried_pct())
            .collect();
        if queried.is_empty() {
            return None;
        }
        let collected: Vec<f64> = dataset
            .coverage()
            .filter(|c| c.isp == isp)
            .map(|c| c.collected_pct())
            .collect();
        Some(CoverageSeries {
            isp,
            queried_pct: queried,
            collected_pct: collected,
        })
    }

    /// ECDF of queried percentages (Figure 7's curve for this ISP).
    pub fn queried_ecdf(&self) -> Ecdf {
        Ecdf::new(&self.queried_pct).expect("extract guarantees non-empty")
    }

    /// ECDF of collected percentages (Figure 8's curve).
    pub fn collected_ecdf(&self) -> Ecdf {
        Ecdf::new(&self.collected_pct).expect("extract guarantees non-empty")
    }

    /// Fraction of CBGs where at least `pct` percent of addresses were
    /// collected — the §5 "10 % per CBG" goal check.
    pub fn fraction_meeting(&self, pct: f64) -> f64 {
        let met = self.collected_pct.iter().filter(|&&p| p >= pct).count();
        met as f64 / self.collected_pct.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{CbgCoverage, CellMeta};
    use caf_geo::{BlockGroupId, CountyId, LatLon, StateFips, TractId, UsState};

    fn cbg(n: u8) -> BlockGroupId {
        let state = StateFips::new(17).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        BlockGroupId::new(tract, n).unwrap()
    }

    /// Three cells with coverage counters and no rows.
    fn dataset() -> AuditDataset {
        let coverage = [
            CbgCoverage {
                isp: Isp::Att,
                cbg: cbg(1),
                total: 100,
                queried: 30,
                collected: 25,
            },
            CbgCoverage {
                isp: Isp::Att,
                cbg: cbg(2),
                total: 20,
                queried: 20,
                collected: 4,
            },
            CbgCoverage {
                isp: Isp::Frontier,
                cbg: cbg(3),
                total: 50,
                queried: 30,
                collected: 30,
            },
        ];
        AuditDataset::hand_built(
            coverage
                .into_iter()
                .map(|c| {
                    let meta = CellMeta {
                        isp: c.isp,
                        state: UsState::Illinois,
                        cbg: c.cbg,
                        weight: c.total as f64,
                        density: 0.0,
                        density_pct: 0.0,
                        centroid: LatLon::new(40.0, -89.0).unwrap(),
                    };
                    (meta, c, Vec::new())
                })
                .collect(),
        )
    }

    #[test]
    fn series_extracts_per_isp() {
        let ds = dataset();
        let att = CoverageSeries::extract(&ds, Isp::Att).unwrap();
        assert_eq!(att.queried_pct, vec![30.0, 100.0]);
        assert_eq!(att.collected_pct, vec![25.0, 20.0]);
        assert!(CoverageSeries::extract(&ds, Isp::CenturyLink).is_none());
    }

    #[test]
    fn ecdfs_and_goal_fraction() {
        let ds = dataset();
        let att = CoverageSeries::extract(&ds, Isp::Att).unwrap();
        let ecdf = att.queried_ecdf();
        assert_eq!(ecdf.eval(30.0), 0.5);
        assert_eq!(ecdf.eval(100.0), 1.0);
        // Both CBGs collected ≥ 10 %; only one collected ≥ 25 %.
        assert_eq!(att.fraction_meeting(10.0), 1.0);
        assert_eq!(att.fraction_meeting(25.0), 0.5);
        let frontier = CoverageSeries::extract(&ds, Isp::Frontier).unwrap();
        assert_eq!(frontier.collected_ecdf().eval(60.0), 1.0);
    }
}
