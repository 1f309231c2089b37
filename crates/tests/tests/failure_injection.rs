//! Failure injection: hand-built truth tables drive the BQT client and
//! campaign through their worst cases — sites that never resolve, sites
//! that only answer ambiguously, empty plan lists, and missing truth —
//! verifying the pipeline degrades the way §5 of the paper describes
//! (exclusion and resampling, never silent misclassification).

use caf_bqt::{Campaign, CampaignConfig, QueryOutcome, QueryTask};
use caf_geo::AddressId;
use caf_synth::params::ErrorCategory;
use caf_synth::{AddressTruth, Isp, PlanCatalog, TruthTable};

fn campaign(seed: u64) -> Campaign {
    Campaign::new(CampaignConfig {
        seed,
        workers: 2,
        max_attempts: 3,
        proxy_pool_size: 4,
        ..CampaignConfig::default()
    })
}

#[test]
fn all_hard_failures_yield_all_unknown() {
    let mut truth = TruthTable::new();
    let tasks: Vec<QueryTask> = (0..50)
        .map(|i| {
            truth.insert(
                AddressId(i),
                Isp::Frontier,
                AddressTruth {
                    hard_failure: true,
                    ..AddressTruth::unserved()
                },
            );
            QueryTask {
                address: AddressId(i),
                isp: Isp::Frontier,
            }
        })
        .collect();
    let result = campaign(1).run(&truth, &tasks);
    for record in &result.records {
        assert!(
            matches!(record.outcome, QueryOutcome::Unknown(_)),
            "hard failures must never classify as served/unserved"
        );
        assert_eq!(record.attempts, 3, "full retry budget consumed");
        assert_eq!(record.errors.len(), 3);
    }
    // Every error event lands in the dropdown category (Frontier's row).
    let counts = result.error_counts();
    assert_eq!(
        counts
            .get(&(Isp::Frontier, ErrorCategory::SelectDropdown))
            .copied()
            .unwrap_or(0),
        150
    );

    // The campaign's stats tally the same story: 50 queries, all three
    // attempts consumed (so two retries each), every error rotating the
    // proxy, every outcome Unknown.
    let stats = result.stats;
    assert_eq!(stats.queries, 50);
    assert_eq!(stats.attempts, 150);
    assert_eq!(stats.retries, 100);
    assert_eq!(stats.error_events, 150);
    assert_eq!(stats.proxy_rotations, 150);
    assert_eq!(stats.unknown, 50);
    assert_eq!(stats.serviceable, 0);
    assert_eq!(stats.no_service, 0);
    assert_eq!(stats.address_not_found, 0);
    assert_eq!(stats.call_to_order, 0);
    assert!(stats.total_query_secs > 0.0);
    assert!(stats.throttle_wait_secs >= 0.0);
}

#[test]
fn campaign_stats_reach_the_metrics_registry() {
    // With telemetry enabled, a campaign run publishes its stats as
    // `caf.bqt.campaign.*` counters. The registry is process-global and
    // other tests in this binary run campaigns concurrently, so assert
    // on ≥ deltas rather than exact values.
    let mut truth = TruthTable::new();
    let tasks: Vec<QueryTask> = (0..30)
        .map(|i| {
            truth.insert(
                AddressId(i),
                Isp::Frontier,
                AddressTruth {
                    hard_failure: true,
                    ..AddressTruth::unserved()
                },
            );
            QueryTask {
                address: AddressId(i),
                isp: Isp::Frontier,
            }
        })
        .collect();

    let read = |name: &str| -> u64 {
        caf_obs::registry()
            .metrics_snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    caf_obs::set_enabled(true);
    let queries_before = read("caf.bqt.campaign.queries");
    let retries_before = read("caf.bqt.campaign.retries");
    let unknown_before = read("caf.bqt.campaign.outcome.unknown");
    let result = campaign(7).run(&truth, &tasks);
    caf_obs::set_enabled(false);

    assert_eq!(result.stats.queries, 30);
    assert!(read("caf.bqt.campaign.queries") >= queries_before + 30);
    assert!(read("caf.bqt.campaign.retries") >= retries_before + 60);
    assert!(read("caf.bqt.campaign.outcome.unknown") >= unknown_before + 30);
}

#[test]
fn ambiguous_sites_never_enter_the_analysis() {
    let mut truth = TruthTable::new();
    let cat = PlanCatalog::for_isp(Isp::Att);
    let tier = cat.tier_near(50.0);
    let mut tasks = Vec::new();
    for i in 0..200 {
        truth.insert(
            AddressId(i),
            Isp::Att,
            AddressTruth {
                served: true,
                plans: vec![cat.plan_from_tier(tier)].into(),
                existing_subscriber: false,
                hard_failure: false,
                ambiguous: true, // every address hits "Call to Order"
            },
        );
        tasks.push(QueryTask {
            address: AddressId(i),
            isp: Isp::Att,
        });
    }
    let result = campaign(2).run(&truth, &tasks);
    let mut call_to_order = 0;
    for record in &result.records {
        match &record.outcome {
            QueryOutcome::CallToOrder => {
                call_to_order += 1;
                assert_eq!(record.outcome.is_served(), None);
            }
            QueryOutcome::Unknown(_) => {} // transient-error exhaustion
            other => panic!("ambiguous truth produced {other:?}"),
        }
    }
    assert!(
        call_to_order > 150,
        "most ambiguous queries should reach the Call to Order page, got {call_to_order}"
    );
}

#[test]
fn unknown_addresses_do_not_crash_the_campaign() {
    // Tasks referencing addresses with no truth entry (outside any ISP
    // footprint) resolve as Unknown rather than panicking.
    let truth = TruthTable::new();
    let tasks: Vec<QueryTask> = (0..20)
        .map(|i| QueryTask {
            address: AddressId(900_000 + i),
            isp: Isp::Xfinity,
        })
        .collect();
    let result = campaign(3).run(&truth, &tasks);
    assert_eq!(result.records.len(), 20);
    assert!(result
        .records
        .iter()
        .all(|r| matches!(r.outcome, QueryOutcome::Unknown(_))));
}

#[test]
fn consolidated_unserved_reports_address_not_found() {
    // Consolidated's site never says "no service"; the pipeline must
    // still count these addresses as unserved (§9.2).
    let mut truth = TruthTable::new();
    let mut tasks = Vec::new();
    for i in 0..120 {
        truth.insert(AddressId(i), Isp::Consolidated, AddressTruth::unserved());
        tasks.push(QueryTask {
            address: AddressId(i),
            isp: Isp::Consolidated,
        });
    }
    let result = campaign(4).run(&truth, &tasks);
    let mut not_found = 0;
    for record in &result.records {
        match &record.outcome {
            QueryOutcome::AddressNotFound => {
                not_found += 1;
                assert_eq!(record.outcome.is_served(), Some(false));
            }
            QueryOutcome::NoService => {
                panic!("Consolidated never shows an explicit no-service page")
            }
            QueryOutcome::Unknown(_) => {}
            other => panic!("unserved truth produced {other:?}"),
        }
    }
    assert!(not_found > 40, "got {not_found}");
}

#[test]
fn tierless_plans_survive_the_full_path() {
    // Frontier's "Unknown Plan" (no displayed speed) must arrive as a
    // served outcome with no max download — the §4.2 non-compliant case.
    let mut truth = TruthTable::new();
    let cat = PlanCatalog::for_isp(Isp::Frontier);
    let unknown = cat.plan_from_tier(cat.tier_labeled("Unknown Plan").expect("exists"));
    truth.insert(
        AddressId(5),
        Isp::Frontier,
        AddressTruth {
            served: true,
            plans: vec![unknown].into(),
            existing_subscriber: true,
            hard_failure: false,
            ambiguous: false,
        },
    );
    let result = campaign(5).run(
        &truth,
        &[QueryTask {
            address: AddressId(5),
            isp: Isp::Frontier,
        }],
    );
    let record = &result.records[0];
    if let QueryOutcome::Serviceable {
        plans,
        existing_subscriber,
    } = &record.outcome
    {
        assert!(*existing_subscriber);
        assert_eq!(plans[0].download_mbps, None);
        assert_eq!(record.outcome.max_download_mbps(), None);
    } else if !matches!(record.outcome, QueryOutcome::Unknown(_)) {
        panic!("unexpected outcome {:?}", record.outcome);
    }
}

#[test]
fn zero_tasks_is_a_clean_noop() {
    let truth = TruthTable::new();
    let result = campaign(6).run(&truth, &[]);
    assert!(result.records.is_empty());
    assert_eq!(result.total_query_secs(), 0.0);
    assert!(result.error_counts().is_empty());
}
