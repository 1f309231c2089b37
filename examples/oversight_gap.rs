//! Oversight gap: runs the three policy extensions together — the
//! USAC-process simulation (§2.4), the advertised-vs-experienced
//! optimism gap (§5), and the BEAD re-scoring (§7) — to answer one
//! question: *how wrong is each layer of the official picture?*
//!
//! ```text
//! cargo run --release --example oversight_gap
//! ```

use caf_bqt::CampaignConfig;
use caf_core::{
    compare_oversight, Audit, AuditConfig, ComplianceAnalysis, ExperiencedAnalysis,
    OversightConfig, ProgramRules, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::speedtest::generate_speedtests;
use caf_synth::{Isp, SynthConfig, World};

fn main() {
    let synth = SynthConfig {
        seed: 31,
        scale: 30,
    };
    let campaign = CampaignConfig {
        seed: synth.seed,
        workers: 4,
        ..CampaignConfig::default()
    };
    println!(
        "Building AT&T's worst states (MS, GA) at 1:{} scale ...\n",
        synth.scale
    );
    let world = World::generate_states(synth, &[UsState::Mississippi, UsState::Georgia]);

    // Layer 1: what the ISP certifies (always compliant, by construction).
    let certified = world.total_caf_addresses();
    println!("Layer 1 — certification: {certified} addresses, 100 % claimed compliant.");

    // Layer 2: what USAC's verification process would find.
    let oversight = compare_oversight(
        &world,
        Isp::Att,
        OversightConfig {
            seed: synth.seed,
            ..OversightConfig::default()
        },
        campaign,
    );
    println!(
        "Layer 2 — USAC review ({} sampled): reports a {:.1} % gap.",
        oversight.sampled,
        100.0 * oversight.usac_reported_gap
    );

    // Layer 3: what an independent BQT-style audit finds.
    let audit = Audit::new(AuditConfig {
        synth,
        campaign,
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run(&world);
    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);
    println!(
        "Layer 3 — independent audit: serviceability {:.1} %, compliance {:.1} %.",
        100.0 * serviceability.overall_rate(),
        100.0 * compliance.overall_rate()
    );

    // Layer 4: what subscribers actually measure.
    let mut tests = Vec::new();
    for sw in &world.states {
        tests.extend(generate_speedtests(
            synth.seed,
            &sw.usac,
            &world.truth,
            0.25,
        ));
    }
    let experienced = ExperiencedAnalysis::compute(&tests);
    println!(
        "Layer 4 — measured throughput ({} tested addresses): another {:.1} % of\n\
         advertised-compliant addresses fail the 10 Mbps floor in practice.",
        experienced.addresses.len(),
        100.0 * experienced.optimism_gap()
    );

    // And the forward-looking view: the same plant against BEAD's bar.
    let bead = ProgramRules::bead()
        .compliance_rate(&dataset)
        .unwrap_or(0.0);
    println!(
        "\nForward view — under BEAD's 100/20 standard, only {:.1} % of this\n\
         CAF-funded plant would count as served.",
        100.0 * bead
    );

    println!(
        "\nEach verification layer strips away another part of the official story —\n\
         the paper's case for independent, measurement-backed oversight."
    );
}
