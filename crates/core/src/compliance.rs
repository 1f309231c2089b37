//! Q2 — the compliance analysis (§4.2).
//!
//! An address is *compliant* when the ISP actively serves it **and** the
//! best advertised plan satisfies the FCC's CAF conditions: a guaranteed
//! download speed of at least 10 Mbps (upload 1 Mbps where shown) at a
//! rate no higher than the FCC benchmark (≈$89/month for 10/1 service).
//! Plans with no speed commitment — AT&T's "Internet Air", Frontier's
//! "Frontier Internet" and its tier-less subscriber pages — are
//! non-compliant regardless of the numbers they display. The compliance
//! rate is aggregated with the same CBG weighting as serviceability.

use caf_exec::EngineConfig;
use caf_geo::{BlockGroupId, UsState};
use caf_stats::{BootstrapCi, StatsError, Summary};
use caf_synth::params::CalibrationParams;
use caf_synth::Isp;
use std::collections::HashMap;

use crate::audit::{AuditDataset, AuditRow};
use crate::index::AuditIndex;
use crate::serviceability::{weighted_rate, weighted_rate_ci};

/// The advertised-speed band an address falls in, for Table 1's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpeedBand {
    /// Unserved (advertised 0).
    Unserved,
    /// A named plan with no speed commitment (Internet Air / Frontier
    /// Internet).
    UnguaranteedPlan,
    /// Served, active subscriber, no tier displayed ("Unknown Plan").
    UnknownPlan,
    /// Guaranteed below 10 Mbps.
    Below10,
    /// Exactly the 10 Mbps floor.
    Exactly10,
    /// 11–99 Mbps.
    From11To99,
    /// 100–999 Mbps.
    From100To999,
    /// 1 Gbps and above.
    GigabitPlus,
}

impl SpeedBand {
    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            SpeedBand::Unserved => "0 (unserved)",
            SpeedBand::UnguaranteedPlan => "no-guarantee plan",
            SpeedBand::UnknownPlan => "Unknown Plan",
            SpeedBand::Below10 => "< 10",
            SpeedBand::Exactly10 => "10",
            SpeedBand::From11To99 => "11-99",
            SpeedBand::From100To999 => "100-999",
            SpeedBand::GigabitPlus => "1000+",
        }
    }

    /// All bands in display order.
    pub fn all() -> [SpeedBand; 8] {
        [
            SpeedBand::Unserved,
            SpeedBand::UnguaranteedPlan,
            SpeedBand::UnknownPlan,
            SpeedBand::Below10,
            SpeedBand::Exactly10,
            SpeedBand::From11To99,
            SpeedBand::From100To999,
            SpeedBand::GigabitPlus,
        ]
    }

    /// Classifies an audit row.
    pub fn of(row: &AuditRow) -> SpeedBand {
        if !row.served {
            return SpeedBand::Unserved;
        }
        let plan = row.max_plan().expect("served rows carry a plan");
        if !plan.speed_guaranteed {
            return if plan.download_mbps.is_none() {
                SpeedBand::UnknownPlan
            } else {
                SpeedBand::UnguaranteedPlan
            };
        }
        match plan.download_mbps {
            None => SpeedBand::UnknownPlan,
            Some(d) if d < 10.0 => SpeedBand::Below10,
            Some(d) if d < 11.0 => SpeedBand::Exactly10,
            Some(d) if d < 100.0 => SpeedBand::From11To99,
            Some(d) if d < 1_000.0 => SpeedBand::From100To999,
            Some(_) => SpeedBand::GigabitPlus,
        }
    }
}

/// Whether an address complies with the FCC's CAF conditions: served,
/// with **some** advertised plan offering a guaranteed ≥ 10/1 Mbps at a
/// rate within the FCC benchmark. A household whose best offer is a
/// $180 5-Gbps fiber tier still complies through its cheaper mid tiers;
/// a household offered only "Internet Air" does not.
pub fn row_is_compliant(row: &AuditRow) -> bool {
    if !row.served {
        return false;
    }
    let (floor_down, floor_up) = CalibrationParams::fcc_speed_floor();
    let cap = CalibrationParams::fcc_rate_cap_usd();
    row.plans
        .iter()
        .any(|plan| plan.meets_service_standard(floor_down, floor_up) && plan.monthly_usd <= cap)
}

/// A CBG's compliance observation.
#[derive(Debug, Clone, Copy)]
pub struct CbgCompliance {
    /// The ISP.
    pub isp: Isp,
    /// The state.
    pub state: UsState,
    /// The CBG.
    pub cbg: BlockGroupId,
    /// Fraction of definitive queries that are served *and* compliant.
    pub rate: f64,
    /// The CBG's total CAF addresses.
    pub weight: f64,
    /// Definitive queries behind the rate.
    pub n: usize,
}

/// The compliance analysis over an audit dataset.
#[derive(Debug)]
pub struct ComplianceAnalysis {
    /// Per-(ISP, CBG) compliance rates.
    pub cbg_rates: Vec<CbgCompliance>,
    band_counts: HashMap<(Isp, SpeedBand), usize>,
    isp_totals: HashMap<Isp, usize>,
}

impl ComplianceAnalysis {
    /// Computes compliance rates and Table-1 band distributions by
    /// building a throwaway [`AuditIndex`]. Callers holding a shared
    /// index should use [`from_index`](ComplianceAnalysis::from_index).
    pub fn compute(dataset: &AuditDataset) -> ComplianceAnalysis {
        ComplianceAnalysis::from_index(dataset, &AuditIndex::build(dataset))
    }

    /// Computes the analysis off a pre-built index over `dataset`.
    /// Per-cell compliance counts walk the index's cells in order; the
    /// Table-1 band tallies are order-independent counters over the
    /// dataset's cells.
    pub fn from_index(dataset: &AuditDataset, index: &AuditIndex) -> ComplianceAnalysis {
        let mut band_counts: HashMap<(Isp, SpeedBand), usize> = HashMap::new();
        let mut isp_totals: HashMap<Isp, usize> = HashMap::new();
        for cell in dataset.cells() {
            let isp = cell.meta.isp;
            for row in cell.rows() {
                *band_counts.entry((isp, SpeedBand::of(row))).or_insert(0) += 1;
            }
            *isp_totals.entry(isp).or_insert(0) += cell.len();
        }
        let cbg_rates: Vec<CbgCompliance> = index
            .cells()
            .iter()
            .map(|cell| {
                let compliant = cell.rows().iter().filter(|r| row_is_compliant(r)).count();
                CbgCompliance {
                    isp: cell.meta.isp,
                    state: cell.meta.state,
                    cbg: cell.meta.cbg,
                    rate: compliant as f64 / cell.len() as f64,
                    weight: cell.meta.weight,
                    n: cell.len(),
                }
            })
            .collect();
        ComplianceAnalysis {
            cbg_rates,
            band_counts,
            isp_totals,
        }
    }

    /// The overall weighted compliance rate (§4.2: 33.03 %, abstract:
    /// 27.72 % — the paper reports both; see EXPERIMENTS.md).
    pub fn overall_rate(&self) -> f64 {
        self.rate_where(|_| true)
            .expect("analysis requires at least one CBG")
    }

    /// A bootstrap confidence interval on the overall compliance rate,
    /// resampling census block groups — the same clustering unit and
    /// statistic as
    /// [`ServiceabilityAnalysis::overall_rate_ci_on`](crate::ServiceabilityAnalysis::overall_rate_ci_on).
    /// Bit-identical at any worker count.
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

    /// The weighted compliance rate for one ISP (§4.2: 16.58 % AT&T,
    /// 69.30 % CenturyLink, 15 % Frontier, 85.56 % Consolidated).
    pub fn rate_for_isp(&self, isp: Isp) -> Option<f64> {
        self.rate_where(|r| r.isp == isp)
    }

    /// The weighted compliance rate for one state.
    pub fn rate_for_state(&self, state: UsState) -> Option<f64> {
        self.rate_where(|r| r.state == state)
    }

    fn rate_where(&self, keep: impl Fn(&CbgCompliance) -> bool) -> Option<f64> {
        weighted_rate(
            self.cbg_rates
                .iter()
                .filter(|r| keep(r))
                .map(|r| (r.rate, r.weight)),
        )
    }

    /// The distribution of CBG-level compliance rates for one ISP.
    pub fn distribution_for_isp(&self, isp: Isp) -> Option<Summary> {
        let rates: Vec<f64> = self
            .cbg_rates
            .iter()
            .filter(|r| r.isp == isp)
            .map(|r| r.rate)
            .collect();
        Summary::of(&rates).ok()
    }

    /// Table 1's advertised column for one ISP: the percentage of queried
    /// addresses in each speed band (unserved included, so columns sum to
    /// 100 %).
    pub fn advertised_band_percentages(&self, isp: Isp) -> Vec<(SpeedBand, f64)> {
        let total = self.isp_totals.get(&isp).copied().unwrap_or(0);
        if total == 0 {
            return Vec::new();
        }
        SpeedBand::all()
            .into_iter()
            .map(|band| {
                let count = self.band_counts.get(&(isp, band)).copied().unwrap_or(0);
                (band, 100.0 * count as f64 / total as f64)
            })
            .collect()
    }

    /// Price compliance (§4.2's rate analysis): among served rows that
    /// offer any guaranteed ≥ 10 Mbps plan, the fraction whose *cheapest*
    /// such plan sits at or below the FCC benchmark (the FCC's test is
    /// per-tier, so a premium gigabit price is irrelevant when a cheaper
    /// qualifying tier exists), plus the observed price range of
    /// guaranteed ~10 Mbps tiers.
    pub fn price_compliance(&self, dataset: &AuditDataset) -> (f64, Option<(f64, f64)>) {
        let (floor_down, floor_up) = CalibrationParams::fcc_speed_floor();
        let cap = CalibrationParams::fcc_rate_cap_usd();
        self.price_compliance_with(dataset, floor_down, floor_up, cap)
    }

    /// [`price_compliance`](ComplianceAnalysis::price_compliance) under
    /// explicit program rules — the policy-counterfactual path: the
    /// sweep's speed-tier axis moves the qualifying floor and its
    /// price-cap axis moves the benchmark, and eligibility/price-range
    /// reporting must follow both.
    pub fn price_compliance_under(
        &self,
        dataset: &AuditDataset,
        rules: &crate::program::ProgramRules,
    ) -> (f64, Option<(f64, f64)>) {
        self.price_compliance_with(
            dataset,
            rules.min_down_mbps,
            rules.min_up_mbps,
            rules.rate_cap_usd,
        )
    }

    fn price_compliance_with(
        &self,
        dataset: &AuditDataset,
        floor_down: f64,
        floor_up: f64,
        cap: f64,
    ) -> (f64, Option<(f64, f64)>) {
        // The observed-price window tracks the floor tier: ±10 % of the
        // qualifying download floor (9–11 Mbps under the CAF 10/1 rules).
        let (window_lo, window_hi) = (0.9 * floor_down, 1.1 * floor_down);
        let mut eligible = 0usize;
        let mut under_cap = 0usize;
        let mut ten_mbps_prices: Vec<f64> = Vec::new();
        for row in dataset.cells().flat_map(|cell| cell.rows()) {
            let cheapest_qualifying = row
                .plans
                .iter()
                .filter(|p| p.meets_service_standard(floor_down, floor_up))
                .map(|p| p.monthly_usd)
                .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))));
            if let Some(price) = cheapest_qualifying {
                eligible += 1;
                if price <= cap {
                    under_cap += 1;
                }
            }
            for plan in row.plans.iter() {
                if let Some(d) = plan.download_mbps {
                    if plan.speed_guaranteed && (window_lo..=window_hi).contains(&d) {
                        ten_mbps_prices.push(plan.monthly_usd);
                    }
                }
            }
        }
        let fraction = if eligible == 0 {
            0.0
        } else {
            under_cap as f64 / eligible as f64
        };
        let range = if ten_mbps_prices.is_empty() {
            None
        } else {
            let lo = ten_mbps_prices
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            let hi = ten_mbps_prices
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            Some((lo, hi))
        };
        (fraction, range)
    }

    /// Carriage values (advertised Mbps per dollar per month) of served
    /// rows for one ISP.
    pub fn carriage_values(&self, dataset: &AuditDataset, isp: Isp) -> Vec<f64> {
        dataset
            .rows_for(isp)
            .filter_map(|r| r.max_plan().and_then(|p| p.carriage_value()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::CellMeta;
    use caf_geo::{AddressId, BlockGroupId, CountyId, LatLon, StateFips, TractId};
    use caf_synth::plans::PlanCatalog;

    fn cbg() -> BlockGroupId {
        let state = StateFips::new(39).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        BlockGroupId::new(tract, 1).unwrap()
    }

    fn row_with_plan(i: u64, isp: Isp, tier_label: Option<&str>) -> (CellMeta, AuditRow) {
        let plan = tier_label.map(|label| {
            let cat = PlanCatalog::for_isp(isp);
            cat.plan_from_tier(cat.tier_labeled(label).unwrap())
        });
        let meta = CellMeta {
            isp,
            state: UsState::Ohio,
            cbg: cbg(),
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
    fn compliance_requires_service_guarantee_and_speed() {
        // Four Frontier addresses: unserved, Frontier Internet
        // (unguaranteed), Unknown Plan, and a compliant fiber tier.
        let rows = vec![
            row_with_plan(1, Isp::Frontier, None),
            row_with_plan(2, Isp::Frontier, Some("Frontier Internet")),
            row_with_plan(3, Isp::Frontier, Some("Unknown Plan")),
            row_with_plan(4, Isp::Frontier, Some("Fiber 500")),
        ];
        assert!(!row_is_compliant(&rows[0].1));
        assert!(!row_is_compliant(&rows[1].1));
        assert!(!row_is_compliant(&rows[2].1));
        assert!(row_is_compliant(&rows[3].1));
        let analysis = ComplianceAnalysis::compute(&dataset(rows));
        let rate = analysis.overall_rate();
        assert!((rate - 0.25).abs() < 1e-12, "got {rate}");
        assert_eq!(analysis.rate_for_isp(Isp::Frontier), Some(rate));
        assert_eq!(analysis.rate_for_state(UsState::Ohio), Some(rate));
    }

    #[test]
    fn speed_bands_classify_like_table_1() {
        let (_, unserved) = row_with_plan(1, Isp::Att, None);
        assert_eq!(SpeedBand::of(&unserved), SpeedBand::Unserved);
        let (_, air) = row_with_plan(2, Isp::Att, Some("AT&T Internet Air"));
        assert_eq!(SpeedBand::of(&air), SpeedBand::UnguaranteedPlan);
        let (_, unknown) = row_with_plan(3, Isp::Frontier, Some("Unknown Plan"));
        assert_eq!(SpeedBand::of(&unknown), SpeedBand::UnknownPlan);
        let (_, dsl) = row_with_plan(4, Isp::Att, Some("DSL 768k"));
        assert_eq!(SpeedBand::of(&dsl), SpeedBand::Below10);
        let (_, ten) = row_with_plan(5, Isp::Att, Some("Internet 10"));
        assert_eq!(SpeedBand::of(&ten), SpeedBand::Exactly10);
        let (_, mid) = row_with_plan(6, Isp::Att, Some("Internet 50"));
        assert_eq!(SpeedBand::of(&mid), SpeedBand::From11To99);
        let (_, fiber) = row_with_plan(7, Isp::Att, Some("Fiber 300"));
        assert_eq!(SpeedBand::of(&fiber), SpeedBand::From100To999);
        let (_, gig) = row_with_plan(8, Isp::Att, Some("Fiber 1000"));
        assert_eq!(SpeedBand::of(&gig), SpeedBand::GigabitPlus);
    }

    #[test]
    fn band_percentages_sum_to_100() {
        let rows = vec![
            row_with_plan(1, Isp::Att, None),
            row_with_plan(2, Isp::Att, Some("Internet 10")),
            row_with_plan(3, Isp::Att, Some("Fiber 1000")),
            row_with_plan(4, Isp::Att, Some("AT&T Internet Air")),
        ];
        let analysis = ComplianceAnalysis::compute(&dataset(rows));
        let bands = analysis.advertised_band_percentages(Isp::Att);
        let total: f64 = bands.iter().map(|(_, pct)| pct).sum();
        assert!((total - 100.0).abs() < 1e-9);
        let unserved = bands
            .iter()
            .find(|(b, _)| *b == SpeedBand::Unserved)
            .unwrap()
            .1;
        assert!((unserved - 25.0).abs() < 1e-9);
        assert!(analysis
            .advertised_band_percentages(Isp::Xfinity)
            .is_empty());
    }

    #[test]
    fn price_compliance_and_carriage() {
        let rows = vec![
            row_with_plan(1, Isp::CenturyLink, Some("Simply Internet 10")), // $50
            row_with_plan(2, Isp::CenturyLink, Some("Fiber 940")),          // $75
            row_with_plan(3, Isp::CenturyLink, None),
        ];
        let ds = dataset(rows);
        let analysis = ComplianceAnalysis::compute(&ds);
        let (fraction, range) = analysis.price_compliance(&ds);
        assert_eq!(fraction, 1.0); // all under the $89 cap
        let (lo, hi) = range.unwrap();
        assert_eq!((lo, hi), (50.0, 50.0)); // only the 10 Mbps tier counts
        let cvs = analysis.carriage_values(&ds, Isp::CenturyLink);
        assert_eq!(cvs.len(), 2);
        assert!(cvs.iter().any(|&v| (v - 940.0 / 75.0).abs() < 1e-9));
    }

    #[test]
    fn price_compliance_under_policy_rules() {
        let rows = vec![
            row_with_plan(1, Isp::CenturyLink, Some("Simply Internet 10")), // $50, 10/1
            row_with_plan(2, Isp::CenturyLink, Some("Fiber 940")),          // $75
        ];
        let ds = dataset(rows);
        let analysis = ComplianceAnalysis::compute(&ds);
        // The explicit CAF Phase II rules reproduce the calibrated default.
        let rules = crate::program::ProgramRules::caf_phase_ii();
        assert_eq!(
            analysis.price_compliance_under(&ds, &rules),
            analysis.price_compliance(&ds)
        );
        // Raising the floor to BEAD's 100/20 drops the 10 Mbps tier from
        // eligibility and moves the observed-price window to ~100 Mbps
        // tiers (none here).
        let bead = crate::program::ProgramRules::bead();
        let (fraction, range) = analysis.price_compliance_under(&ds, &bead);
        assert_eq!(fraction, 1.0); // fiber qualifies and sits under the cap
        assert!(range.is_none());
        // Tightening the cap below every price zeroes the fraction.
        let tight = rules.with_rate_cap_multiplier(0.1);
        let (fraction, _) = analysis.price_compliance_under(&ds, &tight);
        assert_eq!(fraction, 0.0);
    }

    #[test]
    fn weighting_matches_serviceability_scheme() {
        // One compliant CBG (weight 10), one non-compliant (weight 90).
        let mut r1 = row_with_plan(1, Isp::Att, Some("Fiber 1000"));
        r1.0.weight = 10.0;
        let state = StateFips::new(39).unwrap();
        let county = CountyId::new(state, 2).unwrap();
        let tract = TractId::new(county, 1).unwrap();
        let other_cbg = BlockGroupId::new(tract, 1).unwrap();
        let mut r2 = row_with_plan(2, Isp::Att, None);
        r2.0.cbg = other_cbg;
        r2.0.weight = 90.0;
        let analysis = ComplianceAnalysis::compute(&dataset(vec![r1, r2]));
        let rate = analysis.overall_rate();
        assert!((rate - 0.10).abs() < 1e-12, "got {rate}");
        assert!(analysis.distribution_for_isp(Isp::Att).unwrap().n == 2);
    }
}
