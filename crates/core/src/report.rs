//! The headline efficacy report (§7).
//!
//! Collects the numbers the paper's conclusion leads with: the weighted
//! serviceability and compliance rates, their complements ("44.55 % of
//! addresses … remain unserved", "66.97 % … falls short"), and the Q3
//! outcome splits — in one structure the repro harness prints and
//! EXPERIMENTS.md records.

use caf_synth::Isp;

use crate::compliance::ComplianceAnalysis;
use crate::q3::Q3Analysis;
use crate::serviceability::ServiceabilityAnalysis;

/// Per-ISP headline rates.
#[derive(Debug, Clone, PartialEq)]
pub struct IspRates {
    /// ISP display name.
    pub isp: String,
    /// Weighted serviceability rate in `[0, 1]`.
    pub serviceability: f64,
    /// Weighted compliance rate in `[0, 1]`.
    pub compliance: f64,
}

/// The assembled efficacy report.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficacyReport {
    /// Overall weighted serviceability rate (paper: 0.5545).
    pub serviceability: f64,
    /// Overall weighted compliance rate (paper: 0.3303 / 0.2772).
    pub compliance: f64,
    /// Complement of serviceability ("44.55 % remain unserved").
    pub unserved: f64,
    /// Complement of compliance ("66.97 % non-compliant").
    pub non_compliant: f64,
    /// Per-ISP rates, in the paper's ISP order.
    pub per_isp: Vec<IspRates>,
    /// Type-A outcome split `(CAF better, tie, monopoly better)`, if Q3
    /// ran.
    pub type_a_split: Option<[f64; 3]>,
    /// Type-B outcome split `(CAF better, tie, competition better)`.
    pub type_b_split: Option<[f64; 3]>,
    /// Median CAF-over-monopoly uplift percent where CAF wins.
    pub median_uplift_pct: Option<f64>,
}

impl EfficacyReport {
    /// Assembles the report from the three analyses (Q3 optional).
    pub fn assemble(
        serviceability: &ServiceabilityAnalysis,
        compliance: &ComplianceAnalysis,
        q3: Option<&Q3Analysis>,
    ) -> EfficacyReport {
        let overall_serv = serviceability.overall_rate();
        let overall_comp = compliance.overall_rate();
        let per_isp = Isp::audited()
            .into_iter()
            .filter_map(|isp| {
                Some(IspRates {
                    isp: isp.name().to_string(),
                    serviceability: serviceability.rate_for_isp(isp)?,
                    compliance: compliance.rate_for_isp(isp)?,
                })
            })
            .collect();
        let median_uplift = q3.and_then(|q| {
            let mut uplifts = q.type_a_uplift_percents();
            if uplifts.is_empty() {
                return None;
            }
            uplifts.sort_by(|a, b| a.total_cmp(b));
            Some(uplifts[uplifts.len() / 2])
        });
        EfficacyReport {
            serviceability: overall_serv,
            compliance: overall_comp,
            unserved: 1.0 - overall_serv,
            non_compliant: 1.0 - overall_comp,
            per_isp,
            type_a_split: q3.and_then(|q| q.type_a_outcomes()),
            type_b_split: q3.and_then(|q| q.type_b_outcomes()),
            median_uplift_pct: median_uplift,
        }
    }

    /// Renders the report as aligned text for the repro harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Serviceability rate (weighted): {:6.2} %   (unserved {:5.2} %)\n",
            100.0 * self.serviceability,
            100.0 * self.unserved
        ));
        out.push_str(&format!(
            "Compliance rate     (weighted): {:6.2} %   (non-compliant {:5.2} %)\n",
            100.0 * self.compliance,
            100.0 * self.non_compliant
        ));
        for isp in &self.per_isp {
            out.push_str(&format!(
                "  {:<13} serviceability {:6.2} %   compliance {:6.2} %\n",
                isp.isp,
                100.0 * isp.serviceability,
                100.0 * isp.compliance
            ));
        }
        if let Some([better, tie, worse]) = self.type_a_split {
            out.push_str(&format!(
                "Type A blocks: CAF better {:.1} % / tie {:.1} % / monopoly better {:.1} %\n",
                100.0 * better,
                100.0 * tie,
                100.0 * worse
            ));
        }
        if let Some([better, tie, worse]) = self.type_b_split {
            out.push_str(&format!(
                "Type B blocks: CAF better {:.1} % / tie {:.1} % / competition better {:.1} %\n",
                100.0 * better,
                100.0 * tie,
                100.0 * worse
            ));
        }
        if let Some(uplift) = self.median_uplift_pct {
            out.push_str(&format!(
                "Median CAF uplift where CAF wins: +{uplift:.0} %\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditDataset, AuditRow, CellMeta};
    use caf_geo::{AddressId, BlockGroupId, CountyId, LatLon, StateFips, TractId, UsState};
    use caf_synth::plans::PlanCatalog;

    fn dataset() -> AuditDataset {
        let state = StateFips::new(39).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        let cbg = BlockGroupId::new(tract, 1).unwrap();
        let cat = PlanCatalog::for_isp(Isp::Att);
        let good = cat.plan_from_tier(cat.tier_labeled("Fiber 1000").unwrap());
        let meta = CellMeta {
            isp: Isp::Att,
            state: UsState::Ohio,
            cbg,
            weight: 40.0,
            density: 10.0,
            density_pct: 0.5,
            centroid: LatLon::new(40.0, -82.0).unwrap(),
        };
        let mk = |i: u64, served: bool, compliant: bool| AuditRow {
            address: AddressId(i),
            served,
            max_down_mbps: served.then_some(if compliant { 1000.0 } else { 1.0 }),
            plans: served
                .then(|| {
                    if compliant {
                        good.clone()
                    } else {
                        cat.plan_from_tier(cat.tier_labeled("DSL 1").unwrap())
                    }
                })
                .into_iter()
                .collect(),
            existing_subscriber: false,
        };
        AuditDataset::from_rows(
            [
                mk(1, true, true),
                mk(2, true, false),
                mk(3, false, false),
                mk(4, false, false),
            ]
            .into_iter()
            .map(|row| (meta, row))
            .collect(),
        )
    }

    #[test]
    fn report_assembles_and_renders() {
        let ds = dataset();
        let serv = ServiceabilityAnalysis::compute(&ds);
        let comp = ComplianceAnalysis::compute(&ds);
        let report = EfficacyReport::assemble(&serv, &comp, None);
        assert!((report.serviceability - 0.5).abs() < 1e-12);
        assert!((report.compliance - 0.25).abs() < 1e-12);
        assert!((report.unserved - 0.5).abs() < 1e-12);
        assert!((report.non_compliant - 0.75).abs() < 1e-12);
        assert_eq!(report.per_isp.len(), 1);
        assert_eq!(report.per_isp[0].isp, "AT&T");
        assert_eq!(report.type_a_split, None);
        let text = report.render();
        assert!(text.contains("Serviceability rate"));
        assert!(text.contains("50.00 %"));
        assert!(text.contains("AT&T"));
    }
}
