//! Index-equivalence suite: the `AuditIndex`-based Q1/Q2 aggregates must
//! be **bit-identical** to the pre-refactor HashMap grouping, across
//! several seeds and scales.
//!
//! The oracle below is a faithful copy of the grouping the analyses used
//! before the shared index existed (HashMap per (ISP, CBG), first-row
//! metadata, final `(isp, cbg)` sort) — kept here, outside the library,
//! so the production path can never quietly drift away from it. All
//! floating-point comparisons go through `f64::to_bits`: the refactor's
//! contract is *exact* equality, not tolerance. The oracles read the
//! dataset's round-major `rows()` walk, the order the flat row vector
//! once stored.

use caf_bqt::CampaignConfig;
use caf_core::compliance::row_is_compliant;
use caf_core::{
    Audit, AuditConfig, AuditDataset, AuditIndex, AuditRow, CellMeta, ComplianceAnalysis,
    EngineConfig, ProgramRules, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::{BlockGroupId, UsState};
use caf_stats::weighted::WeightedSample;
use caf_stats::weighted_mean;
use caf_synth::{Isp, SynthConfig, World};
use std::collections::HashMap;

/// The (seed, scale, states) grid the equivalence claims are checked on.
const CASES: &[(u64, u32, &[UsState])] = &[
    (11, 40, &[UsState::Vermont, UsState::Utah]),
    (99, 60, &[UsState::Vermont]),
    (0xCAF_2024, 25, &[UsState::Alabama, UsState::NewHampshire]),
];

fn fixture(seed: u64, scale: u32, states: &[UsState]) -> (World, Audit) {
    let synth = SynthConfig { seed, scale };
    let world = World::generate_states(synth, states);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed,
            workers: 4,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    (world, audit)
}

fn dataset_for(seed: u64, scale: u32, states: &[UsState]) -> AuditDataset {
    let (world, audit) = fixture(seed, scale, states);
    audit.run(&world)
}

/// The pre-refactor Q1 grouping, verbatim: one HashMap bucket per
/// (ISP, CBG), rate/weight/metadata from the bucket, sorted at the end.
fn oracle_q1(dataset: &AuditDataset) -> Vec<(Isp, BlockGroupId, f64, f64, usize)> {
    let all: Vec<(&CellMeta, &AuditRow)> = dataset.rows().collect();
    let mut grouped: HashMap<(Isp, BlockGroupId), Vec<usize>> = HashMap::new();
    for (i, (meta, _)) in all.iter().enumerate() {
        grouped.entry((meta.isp, meta.cbg)).or_default().push(i);
    }
    let mut rates: Vec<(Isp, BlockGroupId, f64, f64, usize)> = grouped
        .into_iter()
        .map(|((isp, cbg), rows)| {
            let served = rows.iter().filter(|&&i| all[i].1.served).count();
            let (first, _) = all[rows[0]];
            (
                isp,
                cbg,
                served as f64 / rows.len() as f64,
                first.weight,
                rows.len(),
            )
        })
        .collect();
    rates.sort_by_key(|&(isp, cbg, ..)| (isp, cbg));
    rates
}

/// The pre-refactor Q2 grouping (same shape, compliance predicate).
fn oracle_q2(dataset: &AuditDataset) -> Vec<(Isp, BlockGroupId, f64, f64, usize)> {
    let all: Vec<(&CellMeta, &AuditRow)> = dataset.rows().collect();
    let mut grouped: HashMap<(Isp, BlockGroupId), Vec<usize>> = HashMap::new();
    for (i, (meta, _)) in all.iter().enumerate() {
        grouped.entry((meta.isp, meta.cbg)).or_default().push(i);
    }
    let mut rates: Vec<(Isp, BlockGroupId, f64, f64, usize)> = grouped
        .into_iter()
        .map(|((isp, cbg), rows)| {
            let ok = rows.iter().filter(|&&i| row_is_compliant(all[i].1)).count();
            let (first, _) = all[rows[0]];
            (
                isp,
                cbg,
                ok as f64 / rows.len() as f64,
                first.weight,
                rows.len(),
            )
        })
        .collect();
    rates.sort_by_key(|&(isp, cbg, ..)| (isp, cbg));
    rates
}

/// CBG-weighted mean over `(rate, weight)` pairs in slice order — the
/// same fold every analysis applies.
fn oracle_weighted(
    rates: &[(Isp, BlockGroupId, f64, f64, usize)],
    isp: Option<Isp>,
) -> Option<f64> {
    let samples: Vec<WeightedSample> = rates
        .iter()
        .filter(|&&(i, ..)| isp.is_none_or(|want| i == want))
        .map(|&(_, _, rate, weight, _)| WeightedSample::new(rate, weight))
        .collect();
    weighted_mean(&samples).ok()
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn opt_bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

#[test]
fn q1_index_aggregates_match_hashmap_oracle_bitwise() {
    for &(seed, scale, states) in CASES {
        let dataset = dataset_for(seed, scale, states);
        let index = AuditIndex::build(&dataset);
        let analysis = ServiceabilityAnalysis::from_index(&index);
        let oracle = oracle_q1(&dataset);

        assert_eq!(analysis.cbg_rates.len(), oracle.len(), "seed {seed}");
        for (got, want) in analysis.cbg_rates.iter().zip(&oracle) {
            assert_eq!((got.isp, got.cbg), (want.0, want.1), "seed {seed}");
            assert_eq!(bits(got.rate), bits(want.2), "seed {seed} cbg {}", got.cbg);
            assert_eq!(bits(got.weight), bits(want.3), "seed {seed}");
            assert_eq!(got.n, want.4, "seed {seed}");
        }
        assert_eq!(
            bits(analysis.overall_rate()),
            bits(oracle_weighted(&oracle, None).expect("non-empty")),
            "seed {seed}: overall rate must be bit-identical"
        );
        for isp in Isp::audited() {
            assert_eq!(
                opt_bits(analysis.rate_for_isp(isp)),
                opt_bits(oracle_weighted(&oracle, Some(isp))),
                "seed {seed} isp {isp:?}"
            );
        }
    }
}

#[test]
fn q2_index_aggregates_match_hashmap_oracle_bitwise() {
    for &(seed, scale, states) in CASES {
        let dataset = dataset_for(seed, scale, states);
        let index = AuditIndex::build(&dataset);
        let analysis = ComplianceAnalysis::from_index(&dataset, &index);
        let oracle = oracle_q2(&dataset);

        assert_eq!(analysis.cbg_rates.len(), oracle.len(), "seed {seed}");
        for (got, want) in analysis.cbg_rates.iter().zip(&oracle) {
            assert_eq!((got.isp, got.cbg), (want.0, want.1), "seed {seed}");
            assert_eq!(bits(got.rate), bits(want.2), "seed {seed} cbg {}", got.cbg);
            assert_eq!(bits(got.weight), bits(want.3), "seed {seed}");
            assert_eq!(got.n, want.4, "seed {seed}");
        }
        assert_eq!(
            bits(analysis.overall_rate()),
            bits(oracle_weighted(&oracle, None).expect("non-empty")),
            "seed {seed}"
        );
        for isp in Isp::audited() {
            assert_eq!(
                opt_bits(analysis.rate_for_isp(isp)),
                opt_bits(oracle_weighted(&oracle, Some(isp))),
                "seed {seed} isp {isp:?}"
            );
        }
    }
}

#[test]
fn compute_wrappers_equal_from_index() {
    // The one-shot `compute` paths are thin wrappers over a throwaway
    // index; their output must equal the shared-index projections field
    // for field.
    let dataset = dataset_for(11, 40, &[UsState::Vermont, UsState::Utah]);
    let index = AuditIndex::build(&dataset);

    let a = ServiceabilityAnalysis::compute(&dataset);
    let b = ServiceabilityAnalysis::from_index(&index);
    assert_eq!(a.cbg_rates.len(), b.cbg_rates.len());
    for (x, y) in a.cbg_rates.iter().zip(&b.cbg_rates) {
        assert_eq!((x.isp, x.cbg, x.n), (y.isp, y.cbg, y.n));
        assert_eq!(bits(x.rate), bits(y.rate));
    }

    let a = ComplianceAnalysis::compute(&dataset);
    let b = ComplianceAnalysis::from_index(&dataset, &index);
    assert_eq!(bits(a.overall_rate()), bits(b.overall_rate()));
    for isp in Isp::audited() {
        assert_eq!(
            a.advertised_band_percentages(isp)
                .iter()
                .map(|&(band, p)| (band, bits(p)))
                .collect::<Vec<_>>(),
            b.advertised_band_percentages(isp)
                .iter()
                .map(|&(band, p)| (band, bits(p)))
                .collect::<Vec<_>>(),
            "isp {isp:?}"
        );
    }
}

#[test]
fn program_rules_indexed_path_matches_wrappers() {
    let dataset = dataset_for(99, 60, &[UsState::Vermont]);
    let index = AuditIndex::build(&dataset);
    for rules in [
        ProgramRules::caf_phase_ii(),
        ProgramRules::fcc_25_3(),
        ProgramRules::bead(),
    ] {
        assert_eq!(
            opt_bits(rules.compliance_rate(&dataset)),
            opt_bits(rules.compliance_rate_indexed(&index, None)),
            "{}",
            rules.name
        );
        for isp in Isp::audited() {
            assert_eq!(
                opt_bits(rules.compliance_rate_for(&dataset, isp)),
                opt_bits(rules.compliance_rate_indexed(&index, Some(isp))),
                "{} / {isp:?}",
                rules.name
            );
        }
    }
}

/// The index orders cells, so the order the dataset holds its states in
/// cannot matter: auditing the states in reverse FIPS order gives an
/// index whose cells, weights, served counts and Q1/Q2 aggregates equal
/// the FIPS-order run's bit for bit.
#[test]
fn index_is_independent_of_dataset_state_order() {
    for &(seed, scale, states) in CASES {
        let (world, audit) = fixture(seed, scale, states);
        let reversed: Vec<UsState> = states.iter().rev().copied().collect();
        let engine = EngineConfig::serial();
        let fips = audit.run_for(&world, states, engine);
        let backwards = audit.run_for(&world, &reversed, engine);
        let (a, b) = (AuditIndex::build(&fips), AuditIndex::build(&backwards));

        assert_eq!(a.len(), b.len(), "seed {seed}");
        assert_eq!(a.cells().len(), b.cells().len(), "seed {seed}");
        for (x, y) in a.cells().iter().zip(b.cells()) {
            let (m, n) = (&x.meta, &y.meta);
            assert_eq!(
                (m.isp, m.state, m.cbg),
                (n.isp, n.state, n.cbg),
                "seed {seed}"
            );
            assert_eq!(bits(m.weight), bits(n.weight), "seed {seed}");
            assert_eq!(bits(m.density), bits(n.density), "seed {seed}");
            assert_eq!((x.len(), x.served_rows()), (y.len(), y.served_rows()));
            let addresses = |c: &caf_core::AuditCell| -> Vec<u64> {
                c.rows().iter().map(|r| r.address.0).collect()
            };
            assert_eq!(addresses(x), addresses(y), "seed {seed}");
        }

        let (q1a, q1b) = (
            ServiceabilityAnalysis::from_index(&a),
            ServiceabilityAnalysis::from_index(&b),
        );
        for (x, y) in q1a.cbg_rates.iter().zip(&q1b.cbg_rates) {
            assert_eq!((x.isp, x.cbg, x.n), (y.isp, y.cbg, y.n));
            assert_eq!(bits(x.rate), bits(y.rate), "seed {seed}");
        }
        assert_eq!(bits(q1a.overall_rate()), bits(q1b.overall_rate()));
        let (q2a, q2b) = (
            ComplianceAnalysis::from_index(&fips, &a),
            ComplianceAnalysis::from_index(&backwards, &b),
        );
        assert_eq!(bits(q2a.overall_rate()), bits(q2b.overall_rate()));
        for isp in Isp::audited() {
            assert_eq!(
                opt_bits(q1a.rate_for_isp(isp)),
                opt_bits(q1b.rate_for_isp(isp))
            );
            assert_eq!(
                opt_bits(q2a.rate_for_isp(isp)),
                opt_bits(q2b.rate_for_isp(isp))
            );
            assert_eq!(
                q2a.advertised_band_percentages(isp)
                    .iter()
                    .map(|&(band, p)| (band, bits(p)))
                    .collect::<Vec<_>>(),
                q2b.advertised_band_percentages(isp)
                    .iter()
                    .map(|&(band, p)| (band, bits(p)))
                    .collect::<Vec<_>>(),
                "seed {seed} isp {isp:?}"
            );
        }
    }
}
