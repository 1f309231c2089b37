//! Property-based integration tests: pipeline invariants that must hold
//! for *any* seed and scale, not just the calibrated defaults.
//!
//! Each invariant lives in a plain helper function called two ways: the
//! properties run it on seeded inputs from `caf_exec::prop`, and the
//! `smoke_*` tests pin a handful of hand-picked fixed points.

use caf_bqt::{Campaign, CampaignConfig, QueryTask};
use caf_core::{Audit, AuditConfig, ComplianceAnalysis, SamplingRule, ServiceabilityAnalysis};
use caf_exec::prop;
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};

/// For any seed, rates are probabilities, compliance never exceeds
/// serviceability, and coverage accounting reconciles.
fn check_audit_invariants(seed: u64) {
    let synth = SynthConfig { seed, scale: 80 };
    let world = World::generate_states(synth, &[UsState::Vermont]);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed,
            workers: 2,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 1,
    });
    let dataset = audit.run(&world);
    if dataset.row_count() == 0 {
        return;
    }

    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);
    let s = serviceability.overall_rate();
    let c = compliance.overall_rate();
    assert!((0.0..=1.0).contains(&s));
    assert!((0.0..=1.0).contains(&c));
    assert!(c <= s + 1e-9);

    let collected: usize = dataset.coverage().map(|x| x.collected).sum();
    assert_eq!(collected, dataset.row_count());
    for cov in dataset.coverage() {
        assert!(cov.collected <= cov.queried);
        assert!(cov.queried <= cov.total);
    }
}

/// Campaign results are a pure function of (seed, tasks): worker count
/// and proxy pool size never change outcomes.
fn check_campaign_parallelism_independence(
    seed: u64,
    workers_a: usize,
    workers_b: usize,
    pool: usize,
) {
    let synth = SynthConfig { seed, scale: 150 };
    let world = World::generate_states(synth, &[UsState::Utah]);
    let tasks: Vec<QueryTask> = world
        .states
        .iter()
        .flat_map(|sw| sw.usac.records.iter())
        .take(60)
        .map(|r| QueryTask {
            address: r.address.id,
            isp: r.isp,
        })
        .collect();
    if tasks.is_empty() {
        return;
    }
    let run = |workers: usize, pool: usize| {
        Campaign::new(CampaignConfig {
            seed,
            workers,
            max_attempts: 3,
            proxy_pool_size: pool,
            ..CampaignConfig::default()
        })
        .run(&world.truth, &tasks)
        .records
    };
    let a = run(workers_a, pool);
    let b = run(workers_b, 16);
    assert_eq!(a, b);
}

/// Sampling never exceeds the CBG population and always hits the
/// rule's floor when possible.
fn check_sampling_rule_bounds(min: usize, frac: f64) {
    let rule = SamplingRule {
        min_per_cbg: min,
        fraction: frac,
    };
    for n in [1usize, 5, 29, 30, 31, 299, 300, 301, 5_000] {
        let k = rule.sample_size(n);
        assert!(k <= n);
        assert!(k >= ((frac * n as f64).ceil() as usize).min(n));
        if n >= min {
            assert!(k >= min.min(n));
        }
    }
}

/// Cases per property: each case runs a full (small) pipeline.
const CASES: u32 = 8;

#[test]
fn audit_invariants_hold_for_any_seed() {
    prop::check(CASES, 0u64..10_000, check_audit_invariants);
}

#[test]
fn campaign_outcomes_independent_of_parallelism() {
    prop::check(
        CASES,
        (0u64..10_000, 1usize..6, 1usize..6, 1usize..32),
        |(seed, workers_a, workers_b, pool)| {
            check_campaign_parallelism_independence(seed, workers_a, workers_b, pool);
        },
    );
}

#[test]
fn sampling_rule_bounds() {
    prop::check(CASES, (0usize..60, 0.01f64..1.0), |(min, frac)| {
        check_sampling_rule_bounds(min, frac);
    });
}

#[test]
fn smoke_audit_invariants_at_fixed_seeds() {
    for seed in [0u64, 2024, 9999] {
        check_audit_invariants(seed);
    }
}

#[test]
fn smoke_campaign_parallelism_independence() {
    check_campaign_parallelism_independence(7, 1, 5, 3);
}

#[test]
fn smoke_sampling_rule_bounds() {
    check_sampling_rule_bounds(0, 0.01);
    check_sampling_rule_bounds(30, 0.10);
    check_sampling_rule_bounds(59, 0.99);
}
