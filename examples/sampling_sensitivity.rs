//! Sampling sensitivity: how much querying is enough? Reproduces the
//! §9.1 / Figure 9 analysis and the §3.1 sampling-rule ablation, then
//! prints the cost-of-certainty trade-off in fleet-hours.
//!
//! ```text
//! cargo run --release --example sampling_sensitivity
//! ```

use caf_bqt::CampaignConfig;
use caf_core::sensitivity::SensitivityAnalysis;
use caf_core::{Audit, AuditConfig, SamplingRule, ServiceabilityAnalysis};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};

fn main() {
    let synth = SynthConfig {
        seed: 23,
        scale: 30,
    };
    let campaign = CampaignConfig {
        seed: synth.seed,
        workers: 4,
        ..CampaignConfig::default()
    };
    println!(
        "Building AT&T territory (MS, GA, AL) at 1:{} scale ...\n",
        synth.scale
    );
    let world = World::generate_states(
        synth,
        &[UsState::Mississippi, UsState::Georgia, UsState::Alabama],
    );

    // Figure 9: error of sub-sampled serviceability estimates vs a 75 %
    // ground-truth sample, over 46 CBGs with more than 30 addresses.
    let sweep = SensitivityAnalysis::run(
        &world,
        Isp::Att,
        campaign,
        46,
        &[0.10, 0.20, 0.30, 0.50, 0.75],
        10,
    );
    println!(
        "Figure 9 — estimate error vs sampling rate ({} qualifying CBGs):",
        sweep.cbgs_used
    );
    println!(
        "  {:>6} {:>16} {:>16}",
        "rate", "mean |err| pts", "max |err| pts"
    );
    for point in &sweep.sweep {
        println!(
            "  {:>5.0}% {:>16.2} {:>16.2}",
            100.0 * point.rate,
            point.mean_abs_error_pct,
            point.max_abs_error_pct
        );
    }
    println!("  → diminishing returns past ~30 %: extra queries buy little accuracy.\n");

    // The §3.1 rule ablation: what does each strategy cost, and what does
    // it estimate?
    println!("Sampling-rule ablation (same world, same seed):");
    println!(
        "  {:<24} {:>9} {:>14} {:>16}",
        "rule", "queries", "fleet-hours*", "serviceability"
    );
    for (label, rule) in [
        ("max(30, 10%) — paper", SamplingRule::paper()),
        ("5% only", SamplingRule::fraction_only(0.05)),
        ("10% only", SamplingRule::fraction_only(0.10)),
        ("exhaustive", SamplingRule::fraction_only(1.0)),
    ] {
        let audit = Audit::new(AuditConfig {
            synth,
            campaign,
            rule,
            resample_rounds: 2,
        });
        let dataset = audit.run(&world);
        let analysis = ServiceabilityAnalysis::compute(&dataset);
        let fleet_hours: f64 =
            dataset.records().map(|r| r.duration_secs).sum::<f64>() / 40.0 / 3_600.0;
        println!(
            "  {:<24} {:>9} {:>14.1} {:>15.2}%",
            label,
            dataset.record_count(),
            fleet_hours,
            100.0 * analysis.overall_rate()
        );
    }
    println!("  (*simulated wall-clock on a 40-container fleet)");
    println!("\nThe paper's rule gets exhaustive-quality estimates at ~a tenth the cost —");
    println!("the argument §3.1 makes for why a year-long full enumeration is unnecessary.");
}
