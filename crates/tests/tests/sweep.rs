//! Cross-crate tests for the policy sweep engine.
//!
//! * The determinism matrix: every worker count must emit
//!   byte-identical canonical JSON and CSV.
//!   This is the same contract ci.sh proves end-to-end through the
//!   `caf-sweep` binary; here it is pinned at the library layer.
//! * The differential test: building each (state, scale) world once and
//!   evaluating its policy cells against the shared stages must agree
//!   byte for byte with running the whole pipeline per cell.

use caf_bqt::CampaignConfig;
use caf_core::artifact::to_canonical_bytes;
use caf_core::{
    Audit, AuditConfig, AuditIndex, CompetitionCounterfactual, ComplianceAnalysis, EngineConfig,
    Q3Analysis, SamplingRule, ServiceabilityAnalysis,
};
use caf_sweep::{
    cell_body, results_artifact, results_csv, Cell, SweepOptions, SweepRun, SweepSpec,
};
use caf_synth::{SynthConfig, World};

/// Two states at two scales so the plan has real cost skew (Vermont at
/// 1000 is four times New Hampshire at 2000) without debug-mode runs
/// getting expensive; two tiers and both subsidy rules exercise the
/// policy axes.
fn spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "seed": 11,
            "states": ["VT", "NH"],
            "scales": [1000, 2000],
            "speed_tiers": ["10_1", "25_3"],
            "price_cap_multipliers": [0.75, 1.0],
            "subsidy_rules": ["status_quo", "full_buildout"]
        }"#,
    )
    .expect("matrix spec is valid")
}

#[test]
fn emissions_are_byte_identical_across_the_full_schedule_matrix() {
    let spec = spec();
    let reference = SweepRun::run(&spec, SweepOptions { workers: 1 });
    let reference_json = to_canonical_bytes(&results_artifact(&reference));
    let reference_csv = results_csv(&reference);
    assert_eq!(reference.results.len(), spec.cell_count());

    for workers in [2usize, 4] {
        let run = SweepRun::run(&spec, SweepOptions { workers });
        let label = format!("workers={workers}");
        assert_eq!(
            to_canonical_bytes(&results_artifact(&run)),
            reference_json,
            "{label}"
        );
        assert_eq!(results_csv(&run), reference_csv, "{label}");
    }
}

/// The per-cell pipeline as it ran before worlds were shared: every
/// cell builds its own world, audit, index and Q3.
fn per_cell_pipeline(seed: u64, cell: &Cell) -> caf_sweep::runner::CellResult {
    let engine = EngineConfig::serial();
    let synth = SynthConfig {
        seed,
        scale: cell.scale,
    };
    let campaign = CampaignConfig {
        seed,
        workers: 1,
        ..CampaignConfig::default()
    };
    let world = World::generate_states_on(synth, &[cell.state], engine);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign,
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run_with(&world, engine);
    let index = AuditIndex::build_at(&dataset, world.epoch);
    let rules = cell.program_rules();

    let (serviceability, compliance_baseline) = if index.cells().is_empty() {
        (None, None)
    } else {
        let q1 = ServiceabilityAnalysis::from_index(&index);
        let q2 = ComplianceAnalysis::from_index(&dataset, &index);
        (Some(q1.overall_rate()), Some(q2.overall_rate()))
    };
    let compliance_policy = rules.compliance_rate_indexed(&index, None);
    let (price_compliance, _range) =
        ComplianceAnalysis::from_index(&dataset, &index).price_compliance_under(&dataset, &rules);

    let q3 = Q3Analysis::run(&world, campaign);
    let tier_attainment = q3.tier_attainment(rules.min_down_mbps);
    let cf_point = CompetitionCounterfactual::from_q3(&q3).map(|cf| cf.under_rule(cell.rule));

    caf_sweep::runner::CellResult {
        cell: *cell,
        key: cell.key(seed),
        records: dataset.row_count() as u64,
        serviceability,
        compliance_baseline,
        compliance_policy,
        price_compliance,
        tier_attainment,
        cf_mean_mbps: cf_point.map(|p| p.mean_caf_speed),
        cf_median_mbps: cf_point.map(|p| p.median_caf_speed),
    }
}

#[test]
fn shared_world_stages_match_the_per_cell_pipeline() {
    // Two values on every axis. California at 150 carries every
    // statistic, the counterfactual included; the largest scale divisor
    // gives a degenerate world; Texas holds no CAF records at all, so
    // its index is empty and its cells take the null-statistics branch.
    let spec = SweepSpec::from_json(
        r#"{
            "seed": 29,
            "states": ["CA", "TX"],
            "scales": [150, 100000],
            "speed_tiers": ["10_1", "100_20"],
            "price_cap_multipliers": [0.75, 1.25],
            "subsidy_rules": ["status_quo", "reallocate_half"]
        }"#,
    )
    .expect("differential spec is valid");
    let expected: Vec<_> = spec
        .cells()
        .iter()
        .map(|cell| per_cell_pipeline(spec.seed, cell))
        .collect();
    assert!(
        expected.iter().any(|r| r.serviceability.is_none()),
        "the grid must exercise the empty-index branch"
    );
    assert!(
        expected.iter().any(|r| r.cf_mean_mbps.is_some()),
        "the grid must exercise the counterfactual"
    );
    let expected: Vec<String> = expected
        .iter()
        .map(|r| to_canonical_bytes(&cell_body(r)))
        .collect();

    for workers in [1usize, 2] {
        let run = SweepRun::run(&spec, SweepOptions { workers });
        assert_eq!(run.results.len(), expected.len());
        for (result, want) in run.results.iter().zip(&expected) {
            assert_eq!(
                &to_canonical_bytes(&cell_body(result)),
                want,
                "workers={workers} cell={:?}",
                result.cell
            );
        }
    }
}

#[test]
fn committed_ci_spec_stays_valid() {
    // ci.sh runs the release binary over this committed file; a test
    // keeps the file honest without paying for a 48-cell debug run.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/sweep_spec.json"
    );
    let text = std::fs::read_to_string(path).expect("committed sweep spec exists");
    let spec = SweepSpec::from_json(&text).expect("committed sweep spec parses");
    assert_eq!(spec.cell_count(), 48);
    // Keys must be unique across the grid — the content-addressed
    // cache contract.
    let mut keys: Vec<_> = spec.cells().iter().map(|c| c.key(spec.seed)).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 48);
}
