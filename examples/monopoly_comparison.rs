//! Monopoly comparison: the Q3 analysis (§4.3) end to end — do CAF's
//! regulated monopolies beat unregulated monopolies, and does competition
//! beat both?
//!
//! ```text
//! cargo run --release --example monopoly_comparison
//! ```

use caf_bqt::CampaignConfig;
use caf_core::q3::{BlockType, Q3Analysis};
use caf_geo::UsState;
use caf_stats::median;
use caf_synth::{SynthConfig, World};

fn main() {
    let synth = SynthConfig {
        seed: 11,
        scale: 20,
    };
    println!(
        "Building the Q3 world for {} states at 1:{} scale ...",
        UsState::q3_states().len(),
        synth.scale
    );
    let world = World::generate_states(synth, &UsState::q3_states());
    let analysis = Q3Analysis::run(
        &world,
        CampaignConfig {
            seed: synth.seed,
            workers: 4,
            ..CampaignConfig::default()
        },
    );

    let summary = analysis.summary();
    println!(
        "Queried {} CAF and {} non-CAF addresses; {} blocks survived filtering ({} dropped)\n",
        summary.caf_queried, summary.non_caf_queried, summary.blocks, summary.blocks_dropped
    );

    for block_type in [BlockType::A, BlockType::B, BlockType::C] {
        let n = analysis.blocks_of(block_type).count();
        println!("{}: {} blocks", block_type.label(), n);
    }

    if let Some([better, tie, worse]) = summary.type_a {
        println!("\nRegulated vs unregulated monopoly (Type A blocks):");
        println!(
            "  CAF better {:5.1} %   identical {:5.1} %   monopoly better {:5.1} %",
            100.0 * better,
            100.0 * tie,
            100.0 * worse
        );
        println!("  (paper: 27 % / 54 % / 17 % — regulation helps, inconsistently)");
    }

    if let Some(uplift) = summary.uplift {
        println!(
            "  where CAF wins: median uplift +{:.0} %, p80 +{:.0} % over {} blocks",
            uplift.median, uplift.p80, uplift.n
        );
    }

    if let Some([better, tie, worse]) = summary.type_b {
        println!("\nCAF vs competitively-served neighbors (Type B blocks):");
        println!(
            "  CAF better {:5.1} %   identical {:5.1} %   competition better {:5.1} %",
            100.0 * better,
            100.0 * tie,
            100.0 * worse
        );
    }

    let (type_a, type_b) = analysis.caf_speeds_by_type();
    if !type_a.is_empty() && !type_b.is_empty() {
        println!("\nDoes nearby competition lift CAF service (Figure 6a)?");
        println!(
            "  median CAF speed: {:.1} Mbps in Type A vs {:.1} Mbps in Type B",
            median(&type_a).expect("non-empty"),
            median(&type_b).expect("non-empty")
        );
    }

    if let Some((a, b)) = analysis.case_study(UsState::Georgia) {
        println!("\nAdjacent-block case study (Figure 6b analogue):");
        println!(
            "  {} in {}: Type A block averages {:.1} Mbps; Type B block {:.1} Mbps ({:.1}x)",
            a.caf_isp.name(),
            a.state.name(),
            a.caf_speed,
            b.caf_speed,
            b.caf_speed / a.caf_speed.max(1e-9)
        );
        println!("  ISPs invest where they face competitors — and only there.");
    }
}
