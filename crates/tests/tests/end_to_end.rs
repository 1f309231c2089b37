//! Cross-crate integration: the full pipeline from synthetic world to
//! headline report, exercising caf-geo, caf-synth, caf-bqt, caf-core and
//! caf-dataframe together.

use caf_bqt::CampaignConfig;
use caf_core::{
    Audit, AuditConfig, ComplianceAnalysis, EfficacyReport, SamplingRule, ServiceabilityAnalysis,
};
use caf_dataframe::{Agg, AggSpec, DataFrame};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};

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

#[test]
fn audit_dataframe_supports_relational_reanalysis() {
    // The dataframe path must reproduce what the typed analysis computes:
    // group the audit rows by ISP and compare FractionTrue(served)
    // against a hand count.
    let (_, dataset) = run_audit(2, 40, &[UsState::Alabama]);
    let df = dataset.to_dataframe();
    let by_isp = df
        .group_by(
            &["isp"],
            &[
                AggSpec::new(Agg::Count, "n"),
                AggSpec::new(Agg::FractionTrue("served".into()), "rate"),
            ],
        )
        .expect("valid group-by");
    assert!(by_isp.n_rows() >= 3);
    for row in by_isp.rows() {
        let isp_name = row.str("isp").expect("isp column");
        let isp = Isp::from_name(&isp_name).expect("known isp");
        let expected_n = dataset.rows_for(isp).count();
        let expected_served = dataset.rows_for(isp).filter(|r| r.served).count();
        assert_eq!(row.i64("n").expect("count"), expected_n as i64);
        let rate = row.f64("rate").expect("rate");
        assert!((rate - expected_served as f64 / expected_n as f64).abs() < 1e-12);
    }
}

#[test]
fn audit_dataframe_round_trips_through_csv() {
    let (_, dataset) = run_audit(3, 60, &[UsState::Vermont]);
    let df = dataset.to_dataframe();
    let csv = df.to_csv();
    let back = DataFrame::from_csv(&csv).expect("csv parses");
    assert_eq!(back.n_rows(), df.n_rows());
    assert_eq!(back.names(), df.names());
    // Spot-check a served row's speed survives the trip.
    for i in 0..df.n_rows() {
        if df.row(i).bool("served") == Some(true) {
            assert_eq!(back.row(i).f64("max_down"), df.row(i).f64("max_down"));
            break;
        }
    }
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
