//! Extension: parameterized program rules — applying the audit to BEAD.
//!
//! §7 of the paper argues its post-hoc evaluation framework "could be
//! readily applied to the BEAD program". This module makes that claim
//! concrete: program rules (speed floor, rate benchmark) become data, so
//! the same audit dataset can be scored under CAF-II's 10/1 Mbps
//! standard, BEAD's 100/20 Mbps standard, or the FCC's 25/3 broadband
//! definition — showing how the compliance picture changes as the bar
//! moves.

use caf_stats::weighted::WeightedSample;
use caf_stats::weighted_mean;
use caf_synth::Isp;

use crate::audit::{AuditCell, AuditDataset, AuditRow};
use crate::index::AuditIndex;
use std::sync::Arc;

/// The rate-and-service conditions of a subsidy program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramRules {
    /// Program display name.
    pub name: &'static str,
    /// Minimum guaranteed download speed, Mbps.
    pub min_down_mbps: f64,
    /// Minimum upload speed, Mbps.
    pub min_up_mbps: f64,
    /// Maximum monthly rate for the qualifying tier, dollars.
    pub rate_cap_usd: f64,
}

impl ProgramRules {
    /// The CAF Phase II model rules the paper audits: 10/1 Mbps at the
    /// FCC's ≈$89 urban-comparability benchmark.
    pub fn caf_phase_ii() -> ProgramRules {
        ProgramRules {
            name: "CAF II (10/1)",
            min_down_mbps: 10.0,
            min_up_mbps: 1.0,
            rate_cap_usd: 89.0,
        }
    }

    /// The FCC's 25/3 Mbps fixed-broadband definition (the benchmark the
    /// paper's related work measures coverage against).
    pub fn fcc_25_3() -> ProgramRules {
        ProgramRules {
            name: "FCC 25/3",
            min_down_mbps: 25.0,
            min_up_mbps: 3.0,
            rate_cap_usd: 89.0,
        }
    }

    /// BEAD's 100/20 Mbps standard (§7's $42 B follow-on program).
    pub fn bead() -> ProgramRules {
        ProgramRules {
            name: "BEAD (100/20)",
            min_down_mbps: 100.0,
            min_up_mbps: 20.0,
            rate_cap_usd: 89.0,
        }
    }

    /// Looks up a speed-threshold tier by its grid label: `"10_1"` (CAF
    /// Phase II), `"25_3"` (the FCC broadband definition), or `"100_20"`
    /// (BEAD). The sweep engine's speed-tier axis parses through here so
    /// spec files and `/v1/sweep` query strings share one vocabulary.
    pub fn tier(label: &str) -> Option<ProgramRules> {
        match label {
            "10_1" => Some(ProgramRules::caf_phase_ii()),
            "25_3" => Some(ProgramRules::fcc_25_3()),
            "100_20" => Some(ProgramRules::bead()),
            _ => None,
        }
    }

    /// The grid labels accepted by [`ProgramRules::tier`], in ascending
    /// stringency order.
    pub fn tier_labels() -> [&'static str; 3] {
        ["10_1", "25_3", "100_20"]
    }

    /// These rules with the rate cap scaled by `multiplier` — the
    /// price-cap counterfactual axis (what if the FCC benchmark were 20 %
    /// tighter, or 50 % looser?).
    ///
    /// # Panics
    ///
    /// Panics when `multiplier` is not a positive finite number.
    pub fn with_rate_cap_multiplier(self, multiplier: f64) -> ProgramRules {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "rate-cap multiplier must be positive and finite"
        );
        ProgramRules {
            rate_cap_usd: self.rate_cap_usd * multiplier,
            ..self
        }
    }

    /// Whether an audited address complies with these rules: served, with
    /// some advertised plan at a guaranteed speed ≥ the floor and a price
    /// ≤ the cap.
    pub fn row_complies(&self, row: &AuditRow) -> bool {
        row.served
            && row.plans.iter().any(|plan| {
                plan.meets_service_standard(self.min_down_mbps, self.min_up_mbps)
                    && plan.monthly_usd <= self.rate_cap_usd
            })
    }

    /// CBG-weighted compliance rate of an audit dataset under these
    /// rules, via a throwaway [`AuditIndex`]. Callers scoring several
    /// rule sets over the same dataset (the BEAD extension does) should
    /// build the index once and use
    /// [`compliance_rate_indexed`](ProgramRules::compliance_rate_indexed).
    pub fn compliance_rate(&self, dataset: &AuditDataset) -> Option<f64> {
        self.compliance_rate_indexed(&AuditIndex::build(dataset), None)
    }

    /// CBG-weighted compliance rate for one ISP under these rules.
    pub fn compliance_rate_for(&self, dataset: &AuditDataset, isp: Isp) -> Option<f64> {
        self.compliance_rate_indexed(&AuditIndex::build(dataset), Some(isp))
    }

    /// CBG-weighted compliance rate off a pre-built index, optionally
    /// restricted to one ISP. Returns `None` when no cell matches the
    /// filter (mirroring the empty-sample behaviour of the old grouping).
    pub fn compliance_rate_indexed(&self, index: &AuditIndex, isp: Option<Isp>) -> Option<f64> {
        let cells: &[Arc<AuditCell>] = match isp {
            Some(isp) => index.cells_for(isp),
            None => index.cells(),
        };
        let samples: Vec<WeightedSample> = cells
            .iter()
            .map(|cell| {
                let ok = cell.rows().iter().filter(|r| self.row_complies(r)).count();
                WeightedSample::new(ok as f64 / cell.len() as f64, cell.meta.weight)
            })
            .collect();
        weighted_mean(&samples).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::CellMeta;
    use caf_geo::{AddressId, BlockGroupId, CountyId, LatLon, StateFips, TractId, UsState};
    use caf_synth::plans::PlanCatalog;

    fn row(i: u64, tier_label: Option<&str>) -> (CellMeta, AuditRow) {
        let isp = Isp::CenturyLink;
        let plan = tier_label.map(|label| {
            let cat = PlanCatalog::for_isp(isp);
            cat.plan_from_tier(cat.tier_labeled(label).expect("tier exists"))
        });
        let state = StateFips::new(39).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        let meta = CellMeta {
            isp,
            state: UsState::Ohio,
            cbg: BlockGroupId::new(tract, 1).unwrap(),
            weight: 50.0,
            density: 100.0,
            density_pct: 0.5,
            centroid: LatLon::new(40.0, -82.0).unwrap(),
        };
        let row = AuditRow {
            address: AddressId(i),
            served: plan.is_some(),
            max_down_mbps: plan.as_ref().and_then(|p| p.download_mbps),
            plans: plan.into_iter().collect(),
            existing_subscriber: false,
        };
        (meta, row)
    }

    fn dataset(rows: Vec<(CellMeta, AuditRow)>) -> AuditDataset {
        AuditDataset::from_rows(rows)
    }

    #[test]
    fn rules_tighten_monotonically() {
        // 10 Mbps DSL passes CAF but fails 25/3 and BEAD; 200 Mbps fiber
        // passes all three; 40 Mbps passes CAF and 25/3 but not BEAD.
        let ds = dataset(vec![
            row(1, Some("Simply Internet 10")),
            row(2, Some("Fiber 200")),
            row(3, Some("Simply Internet 40")),
            row(4, None),
        ]);
        let caf = ProgramRules::caf_phase_ii().compliance_rate(&ds).unwrap();
        let fcc = ProgramRules::fcc_25_3().compliance_rate(&ds).unwrap();
        let bead = ProgramRules::bead().compliance_rate(&ds).unwrap();
        assert!((caf - 0.75).abs() < 1e-12, "caf {caf}");
        // The 40/5 tier passes 25/3 but fails BEAD's 100/20.
        assert!((fcc - 0.5).abs() < 1e-12, "fcc {fcc}");
        assert!((bead - 0.25).abs() < 1e-12, "bead {bead}");
        assert!(caf >= fcc && fcc >= bead);
    }

    #[test]
    fn rate_cap_is_enforced() {
        let mut rules = ProgramRules::caf_phase_ii();
        rules.rate_cap_usd = 40.0; // below every CL tier price ≥ $50
        let ds = dataset(vec![row(1, Some("Fiber 940"))]);
        assert_eq!(rules.compliance_rate(&ds), Some(0.0));
    }

    #[test]
    fn per_isp_filter() {
        let ds = dataset(vec![row(1, Some("Fiber 200"))]);
        let rules = ProgramRules::bead();
        assert_eq!(rules.compliance_rate_for(&ds, Isp::CenturyLink), Some(1.0));
        assert_eq!(rules.compliance_rate_for(&ds, Isp::Att), None);
    }

    #[test]
    fn program_names_for_display() {
        assert_eq!(ProgramRules::bead().name, "BEAD (100/20)");
        assert_eq!(ProgramRules::caf_phase_ii().name, "CAF II (10/1)");
    }

    #[test]
    fn tier_labels_round_trip() {
        for label in ProgramRules::tier_labels() {
            assert!(ProgramRules::tier(label).is_some(), "label {label}");
        }
        assert_eq!(
            ProgramRules::tier("10_1").unwrap(),
            ProgramRules::caf_phase_ii()
        );
        assert_eq!(
            ProgramRules::tier("25_3").unwrap(),
            ProgramRules::fcc_25_3()
        );
        assert_eq!(ProgramRules::tier("100_20").unwrap(), ProgramRules::bead());
        assert!(ProgramRules::tier("10/1").is_none());
        assert!(ProgramRules::tier("").is_none());
    }

    #[test]
    fn rate_cap_multiplier_scales_the_cap_only() {
        let base = ProgramRules::caf_phase_ii();
        let loose = base.with_rate_cap_multiplier(1.5);
        assert!((loose.rate_cap_usd - 133.5).abs() < 1e-12);
        assert_eq!(loose.min_down_mbps, base.min_down_mbps);
        assert_eq!(loose.min_up_mbps, base.min_up_mbps);
        // A tighter cap can only lower compliance.
        let ds = dataset(vec![row(1, Some("Simply Internet 10"))]);
        let tight = base.with_rate_cap_multiplier(0.25); // cap $22.25 < $50
        assert_eq!(base.compliance_rate(&ds), Some(1.0));
        assert_eq!(tight.compliance_rate(&ds), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "rate-cap multiplier")]
    fn rate_cap_multiplier_rejects_nonpositive() {
        let _ = ProgramRules::caf_phase_ii().with_rate_cap_multiplier(0.0);
    }
}
