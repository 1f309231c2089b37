//! The reported numbers (§4, §7), one value each.
//!
//! Each number the paper reports is computed once, here or in
//! [`Q3Analysis::summary`], as a value that `repro`'s text printers and
//! [`crate::artifact`]'s JSON renderers both read: [`Table2`] (traceback
//! errors), [`Table3`] (query volumes), [`Q3Summary`] (the Q3 splits
//! and Figure 4c's uplift quantiles) and the headline
//! [`EfficacyReport`] — the weighted serviceability and compliance
//! rates, their complements ("44.55 % of addresses … remain unserved",
//! "66.97 % … falls short") and the Q3 summary.

use std::collections::HashMap;

use caf_geo::{AddressId, BlockId, UsState};
use caf_synth::params::ErrorCategory;
use caf_synth::{Isp, World};

use crate::audit::AuditDataset;
use crate::compliance::ComplianceAnalysis;
use crate::q3::{Q3Analysis, Q3Summary};
use crate::serviceability::ServiceabilityAnalysis;

/// Table 2: traceback error events per audited ISP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2 {
    /// One row per audited ISP, in [`Isp::audited`] order.
    pub rows: [Table2Row; 4],
}

/// One ISP's row of [`Table2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// The ISP.
    pub isp: Isp,
    /// Events per category, in [`ErrorCategory::all`] order.
    pub counts: [u64; 5],
    /// All of the ISP's events: the sum of `counts`.
    pub total: u64,
}

impl Table2 {
    /// Counts every error event in one pass over the dataset's records.
    pub fn count(dataset: &AuditDataset) -> Table2 {
        let categories = ErrorCategory::all();
        let mut rows = Isp::audited().map(|isp| Table2Row {
            isp,
            counts: [0; 5],
            total: 0,
        });
        for record in dataset.records().filter(|r| !r.errors.is_empty()) {
            let Some(row) = rows.iter_mut().find(|row| row.isp == record.isp) else {
                continue;
            };
            for error in &record.errors {
                if let Some(column) = categories.iter().position(|c| c == error) {
                    row.counts[column] += 1;
                }
                row.total += 1;
            }
        }
        Table2 { rows }
    }
}

/// A (state, ISP) pair's query volume in [`Table3`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Volume {
    /// Queried addresses (definitive audit rows).
    pub addresses: usize,
    /// Distinct census blocks of those addresses.
    pub blocks: usize,
    /// Distinct CBGs of those addresses.
    pub cbgs: usize,
}

/// Table 3: CAF addresses queried per ISP per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3 {
    /// Every (state, ISP) pair with a queried address: states in audit
    /// order, each state's ISPs in [`Isp::audited`] order.
    pub rows: Vec<(UsState, Isp, Volume)>,
    /// Per ISP with a row, in [`Isp::audited`] order: its rows' sum.
    pub totals: Vec<(Isp, Volume)>,
}

impl Table3 {
    /// Counts the volumes off the dataset's cells (one cell is one CBG)
    /// and each state's address-to-block map from the geography.
    pub fn count(dataset: &AuditDataset, world: &World) -> Table3 {
        let audited = Isp::audited();
        let (mut rows, mut totals) = (Vec::new(), [Volume::default(); 4]);
        for cells in &dataset.states {
            let Some(state) = cells.first().map(|cell| cell.meta.state) else {
                continue;
            };
            let block_of: HashMap<AddressId, BlockId> = world
                .states
                .iter()
                .filter(|sw| sw.state == state)
                .flat_map(|sw| sw.geography.address_blocks())
                .collect();
            let mut volumes = [Volume::default(); 4];
            for cell in cells.iter().filter(|cell| !cell.is_empty()) {
                let Some(slot) = audited.iter().position(|&isp| isp == cell.meta.isp) else {
                    continue;
                };
                let mut blocks: Vec<BlockId> = cell
                    .rows()
                    .iter()
                    .filter_map(|row| block_of.get(&row.address).copied())
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                for volume in [&mut volumes[slot], &mut totals[slot]] {
                    volume.addresses += cell.len();
                    volume.blocks += blocks.len();
                    volume.cbgs += 1;
                }
            }
            let queried = audited
                .into_iter()
                .zip(volumes)
                .filter(|(_, v)| v.addresses > 0);
            rows.extend(queried.map(|(isp, volume)| (state, isp, volume)));
        }
        let totals = audited
            .into_iter()
            .zip(totals)
            .filter(|(_, v)| v.addresses > 0);
        Table3 {
            rows,
            totals: totals.collect(),
        }
    }
}

/// Per-ISP headline rates.
#[derive(Debug, Clone, PartialEq)]
pub struct IspRates {
    /// The ISP.
    pub isp: Isp,
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
    /// The Q3 numbers, if Q3 ran.
    pub q3: Option<Q3Summary>,
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
                    isp,
                    serviceability: serviceability.rate_for_isp(isp)?,
                    compliance: compliance.rate_for_isp(isp)?,
                })
            })
            .collect();
        EfficacyReport {
            serviceability: overall_serv,
            compliance: overall_comp,
            unserved: 1.0 - overall_serv,
            non_compliant: 1.0 - overall_comp,
            per_isp,
            q3: q3.map(Q3Analysis::summary),
        }
    }

    /// One ISP's rates, if the audit covered it.
    pub fn isp(&self, isp: Isp) -> Option<&IspRates> {
        self.per_isp.iter().find(|rates| rates.isp == isp)
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
                isp.isp.name(),
                100.0 * isp.serviceability,
                100.0 * isp.compliance
            ));
        }
        let Some(q3) = &self.q3 else {
            return out;
        };
        if let Some([better, tie, worse]) = q3.type_a {
            out.push_str(&format!(
                "Type A blocks: CAF better {:.1} % / tie {:.1} % / monopoly better {:.1} %\n",
                100.0 * better,
                100.0 * tie,
                100.0 * worse
            ));
        }
        if let Some([better, tie, worse]) = q3.type_b {
            out.push_str(&format!(
                "Type B blocks: CAF better {:.1} % / tie {:.1} % / competition better {:.1} %\n",
                100.0 * better,
                100.0 * tie,
                100.0 * worse
            ));
        }
        if let Some(uplift) = q3.uplift {
            out.push_str(&format!(
                "Median CAF uplift where CAF wins: +{:.0} %\n",
                uplift.median
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditDataset, AuditRow, CellMeta};
    use caf_geo::{BlockGroupId, CountyId, LatLon, StateFips, TractId};
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
        assert_eq!(report.per_isp[0].isp, Isp::Att);
        assert_eq!(report.q3, None);
        let text = report.render();
        assert!(text.contains("Serviceability rate"));
        assert!(text.contains("50.00 %"));
        assert!(text.contains("AT&T"));
    }

    /// Vermont and Alabama at 1:200, audited: every audited ISP has
    /// rows in at least one of them.
    fn small_audit() -> (World, AuditDataset) {
        let synth = caf_synth::SynthConfig {
            seed: 11,
            scale: 200,
        };
        let world = World::generate_states(synth, &[UsState::Vermont, UsState::Alabama]);
        let dataset = crate::Audit::new(crate::AuditConfig {
            synth,
            campaign: caf_bqt::CampaignConfig {
                seed: 11,
                ..caf_bqt::CampaignConfig::default()
            },
            rule: crate::SamplingRule::paper(),
            resample_rounds: 1,
        })
        .run(&world);
        (world, dataset)
    }

    #[test]
    fn table3_counts_each_pair_and_sums_each_isp() {
        let (world, dataset) = small_audit();
        let table = Table3::count(&dataset, &world);
        let block_of: HashMap<AddressId, BlockId> = world
            .states
            .iter()
            .flat_map(|sw| sw.geography.address_blocks())
            .collect();
        let mut pairs = 0;
        for state in [UsState::Vermont, UsState::Alabama] {
            for isp in Isp::audited() {
                let rows: Vec<_> = dataset
                    .rows()
                    .filter(|(meta, _)| meta.state == state && meta.isp == isp)
                    .collect();
                let row = table.rows.iter().find(|r| (r.0, r.1) == (state, isp));
                if rows.is_empty() {
                    assert_eq!(row, None, "{state:?} {isp:?} has no queried address");
                    continue;
                }
                pairs += 1;
                let mut cbgs: Vec<_> = rows.iter().map(|(meta, _)| meta.cbg).collect();
                cbgs.sort_unstable();
                cbgs.dedup();
                let mut blocks: Vec<BlockId> =
                    rows.iter().map(|(_, r)| block_of[&r.address]).collect();
                blocks.sort_unstable();
                blocks.dedup();
                let volume = Volume {
                    addresses: rows.len(),
                    blocks: blocks.len(),
                    cbgs: cbgs.len(),
                };
                assert_eq!(row.map(|r| r.2), Some(volume), "{state:?} {isp:?}");
            }
        }
        assert_eq!(table.rows.len(), pairs);
        assert_eq!(
            table.totals.iter().map(|(isp, _)| *isp).collect::<Vec<_>>(),
            Isp::audited().to_vec()
        );
        for (isp, total) in &table.totals {
            let column = table.rows.iter().filter(|r| r.1 == *isp).map(|r| r.2);
            let column = column.fold(Volume::default(), |sum, v| Volume {
                addresses: sum.addresses + v.addresses,
                blocks: sum.blocks + v.blocks,
                cbgs: sum.cbgs + v.cbgs,
            });
            assert_eq!(*total, column, "{isp:?}");
            assert_eq!(total.addresses, dataset.rows_for(*isp).count());
        }
    }

    #[test]
    fn table2_counts_every_event_once() {
        let (_, dataset) = small_audit();
        let table = Table2::count(&dataset);
        assert_eq!(table.rows.map(|row| row.isp), Isp::audited());
        for row in table.rows {
            let errors: Vec<ErrorCategory> = dataset
                .records()
                .filter(|r| r.isp == row.isp)
                .flat_map(|r| r.errors.iter().copied())
                .collect();
            assert_eq!(row.total, errors.len() as u64);
            for (count, category) in row.counts.into_iter().zip(ErrorCategory::all()) {
                let events = errors.iter().filter(|&&e| e == category).count();
                assert_eq!(count, events as u64, "{:?} {category:?}", row.isp);
            }
        }
        assert!(table.rows.iter().any(|row| row.total > 0));
    }
}
