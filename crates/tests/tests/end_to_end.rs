//! Cross-crate integration: the full pipeline from synthetic world to
//! headline report and its CSV export, exercising caf-geo, caf-synth,
//! caf-bqt and caf-core together.

use caf_bqt::CampaignConfig;
use caf_core::{
    Audit, AuditConfig, ComplianceAnalysis, EfficacyReport, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};
use std::collections::BTreeMap;

fn run_audit(seed: u64, scale: u32, states: &[UsState]) -> (World, caf_core::AuditDataset) {
    let synth = SynthConfig { seed, scale };
    let world = World::generate_states(synth, states);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed,
            workers: 3,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run(&world);
    (world, dataset)
}

#[test]
fn pipeline_runs_end_to_end_and_reports() {
    let (_, dataset) = run_audit(1, 40, &[UsState::Alabama, UsState::Vermont]);
    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);
    let report = EfficacyReport::assemble(&serviceability, &compliance, None);
    assert!(report.serviceability > 0.0 && report.serviceability < 1.0);
    assert!(report.compliance <= report.serviceability + 1e-9);
    assert!(report.per_isp.len() >= 3, "AL has AT&T/CL/Frontier + Cons");
    let text = report.render();
    assert!(text.contains("Serviceability rate"));
}

/// Splits an unquoted CSV document into its header and its rows.
fn split_csv(csv: &str) -> (Vec<&str>, Vec<Vec<&str>>) {
    assert!(!csv.contains('"'), "the audit CSV quotes no field");
    let mut lines = csv.lines();
    let header = lines.next().expect("header line").split(',').collect();
    (
        header,
        lines.map(|line| line.split(',').collect()).collect(),
    )
}

#[test]
fn audit_dataframe_supports_relational_reanalysis() {
    // The CSV export must reproduce what the typed analysis computes:
    // group the audit rows by ISP and compare the served fraction
    // against a hand count.
    let (_, dataset) = run_audit(2, 40, &[UsState::Alabama]);
    let csv = dataset.to_csv();
    let (header, rows) = split_csv(&csv);
    let column = |name: &str| header.iter().position(|&n| n == name).expect(name);
    let (isp_col, served_col) = (column("isp"), column("served"));
    let mut by_isp: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for row in &rows {
        let (n, served) = by_isp.entry(row[isp_col]).or_default();
        *n += 1;
        *served += usize::from(row[served_col] == "true");
    }
    assert!(by_isp.len() >= 3);
    for (isp_name, (n, served)) in by_isp {
        let isp = Isp::from_name(isp_name).expect("known isp");
        let expected_n = dataset.rows_for(isp).count();
        let expected_served = dataset.rows_for(isp).filter(|r| r.served).count();
        assert_eq!(n, expected_n);
        let rate = served as f64 / n as f64;
        assert!((rate - expected_served as f64 / expected_n as f64).abs() < 1e-12);
    }
}

#[test]
fn audit_dataframe_round_trips_through_csv() {
    let (_, dataset) = run_audit(3, 60, &[UsState::Vermont]);
    let csv = dataset.to_csv();
    let (header, rows) = split_csv(&csv);
    assert_eq!(rows.len(), dataset.row_count());
    assert_eq!(
        header,
        [
            "addr_id",
            "isp",
            "state",
            "cbg",
            "cbg_total",
            "density",
            "density_pct",
            "served",
            "max_down",
            "price",
            "guaranteed"
        ]
    );
    // Spot-check a served row's speed survives the trip.
    let (row, audit_row) = rows
        .iter()
        .zip(dataset.rows())
        .find(|(_, (_, r))| r.served)
        .expect("a served row");
    assert_eq!(row[7], "true");
    let max_down = (!row[8].is_empty()).then(|| row[8].parse::<f64>().expect("max_down parses"));
    assert_eq!(max_down, audit_row.1.max_down_mbps);
}

#[test]
fn pipeline_is_deterministic_and_seed_sensitive() {
    let (_, a) = run_audit(4, 60, &[UsState::Utah]);
    let (_, b) = run_audit(4, 60, &[UsState::Utah]);
    let (_, c) = run_audit(5, 60, &[UsState::Utah]);
    let rate = |ds: &caf_core::AuditDataset| ServiceabilityAnalysis::compute(ds).overall_rate();
    assert_eq!(rate(&a), rate(&b), "same seed, same result");
    assert_eq!(a.row_count(), b.row_count());
    assert_ne!(rate(&a), rate(&c), "different seed, different draw");
}

#[test]
fn certified_speeds_always_pass_while_advertised_do_not() {
    // The paper's central discrepancy: the regulator-facing dataset is
    // 100 % compliant on paper, the consumer-facing one is not.
    let (world, dataset) = run_audit(6, 40, &[UsState::Alabama]);
    for sw in &world.states {
        for record in &sw.usac.records {
            assert!(record.certified_down_mbps >= 10.0);
            assert!(record.certified_up_mbps >= 1.0);
        }
    }
    let compliance = ComplianceAnalysis::compute(&dataset);
    assert!(
        compliance.overall_rate() < 0.9,
        "advertised reality must fall short of certified claims"
    );
}

#[test]
fn geography_identifiers_flow_through_the_whole_pipeline() {
    // A GEOID minted in caf-geo must arrive intact in the analysis rows.
    let (world, dataset) = run_audit(7, 60, &[UsState::NewHampshire]);
    let nh = world.state(UsState::NewHampshire).expect("generated");
    for (row, _) in dataset.rows() {
        assert_eq!(row.cbg.state().code(), 33, "NH FIPS is 33");
        // The CBG must exist in the generated geography.
        assert!(
            nh.geography.cbgs.iter().any(|c| c.id == row.cbg),
            "row references unknown CBG {}",
            row.cbg
        );
        // And the GEOID string round-trips through the display format.
        let parsed: caf_geo::BlockGroupId = row.cbg.to_string().parse().expect("GEOID parses");
        assert_eq!(parsed, row.cbg);
    }
}
