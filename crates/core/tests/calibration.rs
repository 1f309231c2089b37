//! End-to-end calibration: the pipeline, run over the full synthetic
//! world at reduced scale, must recover the paper's published results in
//! shape — per-ISP ordering, approximate magnitudes, and the qualitative
//! findings (density coupling, New-Jersey/Florida outliers, Type-A
//! outcome splits).
//!
//! The analysis sees only query outcomes; the latent truth stays inside
//! `caf-bqt`. Tolerances are loose enough for 1:30-scale sampling noise
//! but tight enough that a broken weighting scheme, a wrong compliance
//! predicate, or a mis-typed block fails the suite.

use caf_bqt::CampaignConfig;
use caf_core::{
    Audit, AuditConfig, BlockType, ComplianceAnalysis, EfficacyReport, Q3Analysis, SamplingRule,
    ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};
use std::sync::OnceLock;

const SCALE: u32 = 30;
const SEED: u64 = 0xCAF_2024;

struct Fixture {
    world: World,
    dataset: caf_core::AuditDataset,
    serviceability: ServiceabilityAnalysis,
    compliance: ComplianceAnalysis,
    q3: Q3Analysis,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let synth = SynthConfig {
            seed: SEED,
            scale: SCALE,
        };
        let world = World::generate(synth);
        let campaign = CampaignConfig {
            seed: SEED,
            workers: 8,
            ..CampaignConfig::default()
        };
        let audit = Audit::new(AuditConfig {
            synth,
            campaign,
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let dataset = audit.run(&world);
        let serviceability = ServiceabilityAnalysis::compute(&dataset);
        let compliance = ComplianceAnalysis::compute(&dataset);
        // Q3 needs enough Type-B blocks (the paper had 560 of 9 420) for
        // stable outcome splits, so it runs on a dedicated, larger-scale
        // world restricted to the seven Q3 states.
        let q3_world = World::generate_states(
            SynthConfig {
                seed: SEED,
                scale: 8,
            },
            &UsState::q3_states(),
        );
        let q3 = Q3Analysis::run(&q3_world, campaign);
        Fixture {
            world,
            dataset,
            serviceability,
            compliance,
            q3,
        }
    })
}

#[test]
fn q1_per_isp_serviceability_matches_section_4_1() {
    let f = fixture();
    let s = &f.serviceability;
    let att = s.rate_for_isp(Isp::Att).unwrap();
    let cl = s.rate_for_isp(Isp::CenturyLink).unwrap();
    let frontier = s.rate_for_isp(Isp::Frontier).unwrap();
    let cons = s.rate_for_isp(Isp::Consolidated).unwrap();
    // Paper §4.1: 31.53 / 90.42 / 70.71 / 83.95 %. The three large ISPs
    // are point-calibrated; Consolidated is the smallest ISP in the
    // study (a handful of CBGs per state at 1:30 scale), so its rate is
    // dominated by which few cells the world RNG hands it — a point
    // target there pins the RNG stream, not the pipeline. It gets a
    // wide band plus the ordering properties that survive sampling
    // noise. (Frontier's 70.71 % is coincidentally 1/sqrt(2); it is the
    // paper's number, not a constant.)
    #[allow(clippy::approx_constant)]
    const FRONTIER_TARGET: f64 = 0.7071;
    assert!((att - 0.3153).abs() < 0.08, "AT&T {att}");
    assert!((cl - 0.9042).abs() < 0.08, "CenturyLink {cl}");
    assert!(
        (frontier - FRONTIER_TARGET).abs() < 0.08,
        "Frontier {frontier}"
    );
    assert!((0.5..0.95).contains(&cons), "Consolidated {cons}");
    // The ordering claims that hold at any scale: CenturyLink leads the
    // cohort and AT&T trails it (the paper's §4.1 headline contrast).
    let all = [att, cl, frontier, cons];
    assert!(
        all.iter().all(|&r| cl >= r),
        "CenturyLink {cl} should lead {all:?}"
    );
    assert!(
        all.iter().all(|&r| att <= r),
        "AT&T {att} should trail {all:?}"
    );
}

#[test]
fn q1_overall_serviceability_near_55_percent() {
    let f = fixture();
    let overall = f.serviceability.overall_rate();
    // Paper: 55.45 % under CBG weighting. Our queried-address mix gives
    // ~55–62 % depending on the heavy-tailed CBG draw.
    assert!((0.47..0.68).contains(&overall), "overall {overall}");
}

#[test]
fn q1_att_lowest_in_every_shared_state() {
    let f = fixture();
    let s = &f.serviceability;
    for state in UsState::study_states() {
        let Some(att) = s.rate_for_pair(state, Isp::Att) else {
            continue;
        };
        for other in [Isp::CenturyLink, Isp::Consolidated] {
            if let Some(rate) = s.rate_for_pair(state, other) {
                assert!(att < rate + 0.12, "{state}: AT&T {att} vs {other} {rate}");
            }
        }
    }
}

#[test]
fn q1_outlier_pairs_visible() {
    let f = fixture();
    let s = &f.serviceability;
    // CenturyLink's New Jersey rate diverges far below its other states.
    let nj = s
        .rate_for_pair(UsState::NewJersey, Isp::CenturyLink)
        .unwrap();
    let nc = s
        .rate_for_pair(UsState::NorthCarolina, Isp::CenturyLink)
        .unwrap();
    assert!(nj < nc - 0.25, "NJ {nj} should sit far below NC {nc}");
    // Frontier's Florida rate likewise.
    let fl = s.rate_for_pair(UsState::Florida, Isp::Frontier).unwrap();
    let oh = s.rate_for_pair(UsState::Ohio, Isp::Frontier).unwrap();
    assert!(fl < oh - 0.20, "FL {fl} should sit far below OH {oh}");
}

#[test]
fn q1_density_correlation_except_mississippi() {
    let f = fixture();
    let s = &f.serviceability;
    // Strong positive correlation in California and Georgia (Figure 3).
    for state in [UsState::California, UsState::Georgia] {
        let (r, rho) = s.density_correlation(Isp::Att, state).unwrap();
        assert!(r > 0.15, "{state}: pearson {r}");
        assert!(rho > 0.15, "{state}: spearman {rho}");
    }
    // Mississippi shows no *significant* correlation: with only ~30 MS
    // CBGs at this scale the point estimate carries ±0.18 of noise, so
    // the faithful check is the contrast against the coupled states.
    let (ms, _) = s
        .density_correlation(Isp::Att, UsState::Mississippi)
        .unwrap();
    let (ca, _) = s
        .density_correlation(Isp::Att, UsState::California)
        .unwrap();
    assert!(ms.abs() < 0.35, "MS pearson {ms} should be weak");
    assert!(ca > ms + 0.10, "CA {ca} should exceed MS {ms}");
}

#[test]
fn q2_per_isp_compliance_matches_section_4_2() {
    let f = fixture();
    let c = &f.compliance;
    let att = c.rate_for_isp(Isp::Att).unwrap();
    let cl = c.rate_for_isp(Isp::CenturyLink).unwrap();
    let frontier = c.rate_for_isp(Isp::Frontier).unwrap();
    let cons = c.rate_for_isp(Isp::Consolidated).unwrap();
    // Paper §4.2: 16.58 / 69.30 / 15 / 85.56 %. Our Table-1-derived
    // model puts AT&T near 21 % (see EXPERIMENTS.md). As in Q1,
    // Consolidated's tiny footprint makes its point value an RNG
    // artifact at this scale; the stable paper property is that
    // Consolidated complies at essentially every address it can serve
    // (85.56 of 83.95 % — compliance tracks serviceability), so that
    // ratio is asserted instead of the absolute rate.
    assert!((0.10..0.30).contains(&att), "AT&T {att}");
    assert!((cl - 0.693).abs() < 0.09, "CenturyLink {cl}");
    assert!(frontier < 0.16, "Frontier {frontier}");
    assert!((0.5..0.95).contains(&cons), "Consolidated {cons}");
    let cons_serviceability = f.serviceability.rate_for_isp(Isp::Consolidated).unwrap();
    assert!(
        cons >= 0.95 * cons_serviceability,
        "Consolidated compliance {cons} should track serviceability {cons_serviceability}"
    );
    // Ordering that survives sampling noise: the two compliant ISPs
    // (CenturyLink, Consolidated) sit far above AT&T, which sits above
    // Frontier's near-total non-compliance.
    assert!(cl > att && cons > att && att > frontier);
}

#[test]
fn q2_overall_compliance_near_30_percent() {
    let f = fixture();
    let overall = f.compliance.overall_rate();
    // Paper: 33.03 % (§4.2) / 27.72 % (abstract).
    assert!((0.22..0.40).contains(&overall), "overall {overall}");
}

#[test]
fn q2_compliance_never_exceeds_serviceability() {
    let f = fixture();
    for isp in Isp::audited() {
        let s = f.serviceability.rate_for_isp(isp).unwrap();
        let c = f.compliance.rate_for_isp(isp).unwrap();
        assert!(c <= s + 1e-9, "{isp}: compliance {c} > serviceability {s}");
    }
}

#[test]
fn q2_prices_always_under_the_fcc_cap() {
    let f = fixture();
    let (fraction, range) = f.compliance.price_compliance(&f.dataset);
    assert!(fraction > 0.999, "price compliance {fraction}");
    let (lo, hi) = range.expect("10 Mbps tiers exist");
    // §4.2: $30–$55 for the 10 Mbps tier.
    assert!(lo >= 30.0 && hi <= 55.0, "range {lo}–{hi}");
}

#[test]
fn q2_att_advertises_the_full_tier_spread() {
    // Table 1: AT&T certifies 10 Mbps everywhere but advertises 768 kbps
    // to 5 Gbps.
    let f = fixture();
    let bands = f.compliance.advertised_band_percentages(Isp::Att);
    let pct = |label: &str| {
        bands
            .iter()
            .find(|(b, _)| b.label() == label)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    };
    assert!(pct("0 (unserved)") > 50.0);
    assert!(pct("< 10") > 1.0);
    assert!(pct("1000+") > 2.0);
    assert!(pct("no-guarantee plan") > 1.0); // Internet Air
    let total: f64 = bands.iter().map(|(_, p)| p).sum();
    assert!((total - 100.0).abs() < 1e-6);
}

#[test]
fn q2_frontier_unknown_plans_visible() {
    let f = fixture();
    let bands = f.compliance.advertised_band_percentages(Isp::Frontier);
    let unknown = bands
        .iter()
        .find(|(b, _)| b.label() == "Unknown Plan")
        .map(|(_, p)| *p)
        .unwrap_or(0.0);
    // Paper: ≈12 % of Frontier addresses show no tier.
    assert!((4.0..20.0).contains(&unknown), "unknown {unknown}");
}

#[test]
fn q3_type_a_split_matches_figure_4a() {
    let f = fixture();
    let [better, tie, worse] = f.q3.type_a_outcomes().expect("Type A blocks exist");
    // Paper: 27 % / 54 % / 17 %.
    assert!((better - 0.27).abs() < 0.09, "better {better}");
    assert!((tie - 0.54).abs() < 0.11, "tie {tie}");
    assert!((worse - 0.17).abs() < 0.09, "worse {worse}");
}

#[test]
fn q3_type_b_split_matches_figure_5a() {
    let f = fixture();
    let [better, tie, worse] = f.q3.type_b_outcomes().expect("Type B blocks exist");
    // Paper: 32.1 % / 37.2 % / 30.7 % — all three outcomes materially
    // present, tie modal or near-modal.
    assert!(better > 0.15, "better {better}");
    assert!(tie > 0.15, "tie {tie}");
    assert!(worse > 0.15, "worse {worse}");
}

#[test]
fn q3_uplift_quantiles_match_figure_4c() {
    let f = fixture();
    let mut uplifts = f.q3.type_a_uplift_percents();
    assert!(uplifts.len() > 30, "need wins, got {}", uplifts.len());
    uplifts.sort_by(|a, b| a.total_cmp(b));
    let median = uplifts[uplifts.len() / 2];
    let p80 = uplifts[(uplifts.len() as f64 * 0.8) as usize];
    // Paper: median 75 %, p80 400 %. The tie tolerance clips tiny wins,
    // shifting quantiles up slightly.
    assert!((35.0..220.0).contains(&median), "median {median}");
    assert!(p80 > 150.0, "p80 {p80}");
    assert!(p80 > 2.0 * median, "p80 {p80} vs median {median}");
}

#[test]
fn q3_competition_lifts_caf_speeds() {
    let f = fixture();
    let (type_a, type_b) = f.q3.caf_speeds_by_type();
    assert!(type_a.len() > 50);
    assert!(!type_b.is_empty());
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    // Figure 6a: Type-B CAF speeds dominate Type-A.
    assert!(
        mean(&type_b) > mean(&type_a),
        "B {} vs A {}",
        mean(&type_b),
        mean(&type_a)
    );
}

#[test]
fn q3_type_mix_matches_section_4_3() {
    let f = fixture();
    let a = f.q3.blocks_of(BlockType::A).count();
    let b = f.q3.blocks_of(BlockType::B).count();
    let c = f.q3.blocks_of(BlockType::C).count();
    // Paper mix 8.76k / 0.56k / 0.10k → A ≫ B ≥ C; plus dropped blocks.
    assert!(a > 8 * b, "A {a} vs B {b}");
    assert!(b >= c, "B {b} vs C {c}");
    assert!(f.q3.blocks_dropped > 0);
}

#[test]
fn report_assembles_the_headline() {
    let f = fixture();
    let report = EfficacyReport::assemble(&f.serviceability, &f.compliance, Some(&f.q3));
    assert_eq!(report.per_isp.len(), 4);
    assert!((report.serviceability + report.unserved - 1.0).abs() < 1e-12);
    assert!(report.q3.unwrap().uplift.unwrap().median > 0.0);
    let text = report.render();
    assert!(text.contains("Type A blocks"));
}

#[test]
fn world_scale_matches_table_3_volumes() {
    let f = fixture();
    // Queried rows should be within a factor ~2 of 537k / SCALE.
    let expected = 537_660 / SCALE as usize;
    let rows = f.dataset.row_count();
    assert!(
        rows > expected / 3 && rows < expected * 3,
        "rows {rows} vs expected ≈{expected}"
    );
    // All four ISPs and all fifteen states present.
    for isp in Isp::audited() {
        assert!(f.dataset.rows_for(isp).count() > 0, "{isp} missing");
    }
    assert_eq!(f.world.states.len(), 15);
}
