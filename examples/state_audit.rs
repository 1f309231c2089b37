//! State audit: the full Q1/Q2 workflow for one state with multiple ISPs,
//! including the per-ISP disaggregation, the density/serviceability
//! correlation, an ASCII serviceability map, and coverage telemetry —
//! i.e. everything a state broadband office would want before certifying
//! an ISP's CAF compliance claims.
//!
//! ```text
//! cargo run --example state_audit [-- <STATE_ABBREV>]   # default AL
//! ```

use caf_bqt::CampaignConfig;
use caf_core::coverage::CoverageSeries;
use caf_core::{Audit, AuditConfig, ComplianceAnalysis, SamplingRule, ServiceabilityAnalysis};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};

fn main() {
    let state = std::env::args()
        .nth(1)
        .map(|arg| UsState::from_abbrev(&arg).expect("unknown state abbreviation"))
        .unwrap_or(UsState::Alabama);
    if !UsState::study_states().contains(&state) {
        eprintln!("{state} is not one of the paper's 15 study states");
        std::process::exit(2);
    }

    let synth = SynthConfig { seed: 7, scale: 30 };
    println!("Auditing {} at 1:{} scale ...\n", state.name(), synth.scale);
    let world = World::generate_states(synth, &[state]);
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
    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);

    println!("== Q1/Q2 rates by ISP ==");
    for isp in Isp::audited() {
        let Some(serv) = serviceability.rate_for_pair(state, isp) else {
            continue;
        };
        let comp = compliance.rate_for_isp(isp).unwrap_or(0.0);
        let n = dataset.rows_for(isp).count();
        println!(
            "  {:<13} {:>6} addresses   serviceability {:5.1} %   compliance {:5.1} %",
            isp.name(),
            n,
            100.0 * serv,
            100.0 * comp
        );
    }

    println!("\n== Density coupling (Figure 3's analysis) ==");
    for isp in Isp::audited() {
        if let Some((r, rho)) = serviceability.density_correlation(isp, state) {
            println!(
                "  {:<13} pearson(log density) {r:+.3}   spearman {rho:+.3}",
                isp.name()
            );
        }
    }

    println!("\n== Serviceability map (Figure 10 style; . <25% - <50% + <75% # >=75%) ==");
    for isp in [Isp::Att, Isp::CenturyLink, Isp::Frontier, Isp::Consolidated] {
        let grid = serviceability.geospatial_grid(isp, state, 10, 20);
        if grid.iter().flatten().all(|c| c.is_none()) {
            continue;
        }
        println!("  {}:", isp.name());
        for row in grid.iter().rev() {
            let line: String = row
                .iter()
                .map(|cell| match cell {
                    None => ' ',
                    Some(r) if *r < 0.25 => '.',
                    Some(r) if *r < 0.50 => '-',
                    Some(r) if *r < 0.75 => '+',
                    Some(_) => '#',
                })
                .collect();
            println!("    |{line}|");
        }
    }

    println!("\n== Coverage (Figures 7/8) ==");
    for isp in Isp::audited() {
        if let Some(series) = CoverageSeries::extract(&dataset, isp) {
            println!(
                "  {:<13} {:>4} CBGs   meeting the 10 % collection goal: {:5.1} %",
                isp.name(),
                series.collected_pct.len(),
                100.0 * series.fraction_meeting(10.0)
            );
        }
    }

    let total_time: f64 = dataset.records().map(|r| r.duration_secs).sum();
    println!(
        "\nSimulated querying time: {:.1} hours ({} queries); a 40-container fleet: {:.1} h",
        total_time / 3_600.0,
        dataset.record_count(),
        total_time / 40.0 / 3_600.0
    );
}
