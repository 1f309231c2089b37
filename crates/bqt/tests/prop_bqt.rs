//! Property-based tests for the BQT simulator.
//!
//! Each invariant lives in a plain helper function called two ways: the
//! properties run it on seeded inputs from `caf_exec::prop`, and the
//! `smoke_*` tests pin a handful of hand-picked fixed points.

use caf_bqt::ProxyPool;
use caf_bqt::{Campaign, CampaignConfig, QueryClient, QueryOutcome, QueryTask};
use caf_exec::prop;
use caf_geo::AddressId;
use caf_synth::{AddressTruth, Isp, PlanCatalog, TruthTable};

/// A truth entry for a given ISP: served entries carry one plan picked
/// from the ISP's catalog; unserved entries carry the failure flags only.
fn truth_from(
    isp: Isp,
    served: bool,
    hard: bool,
    ambiguous: bool,
    tier_idx: usize,
) -> AddressTruth {
    if served {
        let cat = PlanCatalog::for_isp(isp);
        let tiers = cat.tiers();
        let tier = &tiers[tier_idx % tiers.len()];
        AddressTruth {
            served: true,
            plans: vec![cat.plan_from_tier(tier)].into(),
            existing_subscriber: false,
            hard_failure: hard,
            ambiguous,
        }
    } else {
        AddressTruth {
            hard_failure: hard,
            ambiguous,
            ..AddressTruth::unserved()
        }
    }
}

/// A definitive outcome never contradicts the latent truth: the
/// simulated website can fail or stay ambiguous, but it never shows
/// plans at an unserved address or a no-service page at a served one.
fn check_definitive_outcomes_agree_with_truth(seed: u64, isp: Isp, entry: &AddressTruth) {
    let mut table = TruthTable::new();
    table.insert(AddressId(1), isp, entry.clone());
    let mut client = QueryClient::new(seed, 3, ProxyPool::new(seed, 4));
    let record = client.query(&table, AddressId(1), isp);
    if let Some(served) = record.outcome.is_served() {
        assert_eq!(served, entry.served);
    }
    if entry.hard_failure {
        assert!(matches!(record.outcome, QueryOutcome::Unknown(_)));
    }
    assert!(record.attempts >= 1 && record.attempts <= 3);
    assert_eq!(
        record.errors.len() as u32,
        if record.outcome.is_definitive() || matches!(record.outcome, QueryOutcome::CallToOrder) {
            record.attempts - 1
        } else {
            record.attempts
        }
    );
    assert!(record.duration_secs > 0.0);
}

/// Campaign output is a pure function of (seed, task list): shuffling
/// worker counts or proxy pools never changes a single record, and
/// records come back in task order.
fn check_campaign_is_schedule_invariant(
    seed: u64,
    n_addresses: usize,
    workers_a: usize,
    workers_b: usize,
) {
    let mut table = TruthTable::new();
    let cat = PlanCatalog::for_isp(Isp::Frontier);
    let mut tasks = Vec::new();
    for i in 0..n_addresses as u64 {
        let tier = cat.tiers()[(i as usize) % cat.tiers().len()];
        table.insert(
            AddressId(i),
            Isp::Frontier,
            AddressTruth {
                served: i % 3 != 0,
                plans: if i % 3 != 0 {
                    vec![cat.plan_from_tier(&tier)].into()
                } else {
                    Default::default()
                },
                existing_subscriber: false,
                hard_failure: i % 7 == 0,
                ambiguous: false,
            },
        );
        tasks.push(QueryTask {
            address: AddressId(i),
            isp: Isp::Frontier,
        });
    }
    let run = |workers: usize| {
        Campaign::new(CampaignConfig {
            seed,
            workers,
            max_attempts: 3,
            proxy_pool_size: 8,
            ..CampaignConfig::default()
        })
        .run(&table, &tasks)
    };
    let a = run(workers_a);
    let b = run(workers_b);
    assert_eq!(&a.records, &b.records);
    for (task, record) in tasks.iter().zip(&a.records) {
        assert_eq!(task.address, record.address);
    }
    // Error counts reconcile with per-record error lists.
    let total_events: u64 = a.error_counts().values().sum();
    let from_records: usize = a.records.iter().map(|r| r.errors.len()).sum();
    assert_eq!(total_events as usize, from_records);
}

/// Proxy pools conserve telemetry: total uses equals total attempts.
fn check_proxy_usage_equals_attempts(seed: u64, n: usize) {
    let mut table = TruthTable::new();
    let cat = PlanCatalog::for_isp(Isp::Att);
    let tier = cat.tier_near(50.0);
    let mut tasks = Vec::new();
    for i in 0..n as u64 {
        table.insert(
            AddressId(i),
            Isp::Att,
            AddressTruth {
                served: true,
                plans: vec![cat.plan_from_tier(tier)].into(),
                existing_subscriber: false,
                hard_failure: false,
                ambiguous: false,
            },
        );
        tasks.push(QueryTask {
            address: AddressId(i),
            isp: Isp::Att,
        });
    }
    let result = Campaign::new(CampaignConfig {
        seed,
        workers: 2,
        max_attempts: 4,
        proxy_pool_size: 4,
        ..CampaignConfig::default()
    })
    .run(&table, &tasks);
    let attempts: u64 = result.records.iter().map(|r| u64::from(r.attempts)).sum();
    assert_eq!(result.proxy.total_uses(), attempts);
}

/// Cases per property.
const CASES: u32 = 64;

#[test]
fn definitive_outcomes_agree_with_truth() {
    let isps = || prop::select(Isp::bqt_supported());
    let flags = (prop::any_bool(), prop::any_bool(), prop::any_bool());
    prop::check(
        CASES,
        (0u64..100_000, isps(), isps(), flags, 0usize..6),
        |(seed, isp, entry_isp, (served, hard, ambiguous), tier_idx)| {
            let entry = truth_from(entry_isp, served, hard, ambiguous, tier_idx);
            check_definitive_outcomes_agree_with_truth(seed, isp, &entry);
        },
    );
}

#[test]
fn campaign_is_schedule_invariant() {
    prop::check(
        CASES,
        (0u64..100_000, 1usize..40, 1usize..5, 1usize..5),
        |(seed, n_addresses, workers_a, workers_b)| {
            check_campaign_is_schedule_invariant(seed, n_addresses, workers_a, workers_b);
        },
    );
}

#[test]
fn proxy_usage_equals_attempts() {
    prop::check(CASES, (0u64..100_000, 1usize..30), |(seed, n)| {
        check_proxy_usage_equals_attempts(seed, n);
    });
}

#[test]
fn smoke_definitive_outcomes_agree_at_fixed_points() {
    for (seed_offset, &isp) in Isp::bqt_supported().iter().enumerate() {
        for served in [false, true] {
            for hard in [false, true] {
                for ambiguous in [false, true] {
                    for tier_idx in [0usize, 3] {
                        let entry = truth_from(isp, served, hard, ambiguous, tier_idx);
                        check_definitive_outcomes_agree_with_truth(
                            0xCAF_2024 + seed_offset as u64,
                            isp,
                            &entry,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn smoke_campaign_schedule_invariance_holds_at_fixed_points() {
    check_campaign_is_schedule_invariant(0xCAF_2024, 21, 1, 4);
    check_campaign_is_schedule_invariant(7, 40, 2, 3);
    check_campaign_is_schedule_invariant(42, 1, 1, 4);
}

#[test]
fn smoke_proxy_usage_conserved_at_fixed_points() {
    check_proxy_usage_equals_attempts(0xCAF_2024, 29);
    check_proxy_usage_equals_attempts(11, 1);
}
