//! Quickstart: generate a small synthetic world, audit one state, and
//! print the headline serviceability and compliance rates.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This walks the same path as the paper: take the regulator-facing USAC
//! dataset (synthetic here), sample addresses per census block group,
//! query each address against the ISP's website via the simulated BQT,
//! and aggregate CBG-weighted rates.

use caf_bqt::CampaignConfig;
use caf_core::{
    Audit, AuditConfig, ComplianceAnalysis, EfficacyReport, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};

fn main() {
    // 1. A deterministic synthetic world for Vermont (Consolidated
    //    Communications territory) at 1:40 of the paper's scale.
    let synth = SynthConfig {
        seed: 42,
        scale: 40,
    };
    let world = World::generate_states(synth, &[UsState::Vermont]);
    let vermont = world.state(UsState::Vermont).expect("generated above");
    println!(
        "World: {} certified CAF addresses across {} CBGs in Vermont",
        vermont.geography.total_caf_addresses(),
        vermont.geography.cbgs.len()
    );

    // 2. The audit: sample max(30, 10 %) per CBG, query through the
    //    simulated BQT with two resampling rounds, as in §3 of the paper.
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed: synth.seed,
            workers: 4,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run(&world);
    println!(
        "Audit: {} queries issued, {} definitive outcomes",
        dataset.record_count(),
        dataset.row_count()
    );

    // 3. The analyses: CBG-weighted serviceability (Q1) and compliance
    //    (Q2), assembled into the headline report.
    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);
    let report = EfficacyReport::assemble(&serviceability, &compliance, None);
    println!("\n{}", report.render());

    // 4. The same rows as CSV, the format `repro dump` writes.
    let csv = dataset.to_csv();
    println!("First rows of the audit dataset:");
    for line in csv.lines().take(6) {
        println!("{line}");
    }
}
