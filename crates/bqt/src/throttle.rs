//! Politeness policy: query pacing so campaigns don't overwhelm ISP
//! infrastructure.
//!
//! §3.3 of the paper frames the ethics of large-scale querying: the
//! methodology must run "in a manner that does not overwhelm the ISP's
//! infrastructure", which is also why exhaustive enumeration "would take
//! more than a year" (§1). A [`ThrottlePolicy`] makes that constraint
//! explicit: a per-ISP concurrency cap (parallel containers aimed at one
//! site) and a minimum inter-query gap per container. The policy shapes
//! the *wall-clock* model only — outcomes are pure functions of the task
//! list — so the campaign's determinism guarantees are untouched.

use crate::campaign::{CampaignResult, PerIsp};
use crate::outcome::QueryRecord;

/// A campaign pacing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottlePolicy {
    /// Maximum containers simultaneously pointed at one ISP's site.
    pub per_isp_concurrency: usize,
    /// Minimum seconds between successive queries from one container.
    pub min_gap_secs: f64,
}

impl ThrottlePolicy {
    /// The polite defaults the paper's fleet sizing implies: eight
    /// containers per ISP, two-second spacing.
    pub fn polite() -> ThrottlePolicy {
        ThrottlePolicy {
            per_isp_concurrency: 8,
            min_gap_secs: 2.0,
        }
    }

    /// An unthrottled policy (upper-bound throughput).
    pub fn unthrottled(workers: usize) -> ThrottlePolicy {
        ThrottlePolicy {
            per_isp_concurrency: workers.max(1),
            min_gap_secs: 0.0,
        }
    }

    /// Estimated wall-clock seconds for a finished campaign under this
    /// policy with `workers` total containers.
    ///
    /// Per ISP, the binding constraint is either the total query time
    /// divided by the effective concurrency, or the pacing floor
    /// (queries × gap ÷ concurrency). ISPs are crawled in parallel, so
    /// the campaign finishes when its slowest ISP does.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn wall_clock_secs(&self, result: &CampaignResult, workers: usize) -> f64 {
        assert!(workers > 0, "need at least one worker");
        let mut per_isp = PerIsp::from_fn(|_| (0.0, 0u64));
        for record in &result.records {
            let entry = &mut per_isp[record.isp];
            entry.0 += record.duration_secs;
            entry.1 += 1;
        }
        per_isp
            .values()
            .filter(|&&(_, queries)| queries > 0)
            .map(|&(total_secs, queries)| {
                let concurrency = self.per_isp_concurrency.min(workers).max(1) as f64;
                let work_bound = total_secs / concurrency;
                let pace_bound = queries as f64 * self.min_gap_secs / concurrency;
                work_bound.max(pace_bound)
            })
            .fold(0.0, f64::max)
    }

    /// Simulated seconds a campaign *waited* on this policy, accumulated
    /// at the two throttle decision points rather than inferred post hoc:
    ///
    /// 1. **Rotation backoff** — every proxy rotation (one per transient
    ///    error) costs one `min_gap_secs` of idle time while the fresh
    ///    endpoint warms up.
    /// 2. **Pacing gaps** — per ISP, queries are dealt round-robin onto
    ///    `per_isp_concurrency.min(workers)` polite lanes in task order;
    ///    a lane whose previous query finished faster than the gap idles
    ///    for the difference before firing the next one.
    ///
    /// The model is a pure function of the record list in task order, so
    /// it is identical under any worker count or steal schedule. The old
    /// accounting derived wait as `max(0, pace_bound − work_bound)` over
    /// ISP aggregates, which collapses to zero whenever mean query time
    /// exceeds the gap — BENCH_serve.json showed `throttle_wait_us = 0`
    /// against thousands of rotations.
    pub fn pacing_wait_secs(&self, records: &[QueryRecord], workers: usize) -> f64 {
        let concurrency = self.per_isp_concurrency.min(workers.max(1)).max(1);
        let rotation_wait: f64 = records
            .iter()
            .map(|r| r.errors.len() as f64 * self.min_gap_secs)
            .sum();
        let mut lanes: PerIsp<(usize, Vec<f64>)> = PerIsp::from_fn(|_| (0, Vec::new()));
        let mut gap_wait = 0.0;
        for record in records {
            let (next, prev_durs) = &mut lanes[record.isp];
            if prev_durs.len() < concurrency {
                // Lane not yet warm: the first query on a lane never waits.
                prev_durs.push(record.duration_secs);
            } else {
                let lane = *next % concurrency;
                gap_wait += (self.min_gap_secs - prev_durs[lane]).max(0.0);
                prev_durs[lane] = record.duration_secs;
                *next += 1;
            }
        }
        rotation_wait + gap_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig, QueryTask};
    use caf_geo::AddressId;
    use caf_synth::{AddressTruth, Isp, PlanCatalog, TruthTable};

    fn result_with_two_isps() -> CampaignResult {
        let mut truth = TruthTable::new();
        let mut tasks = Vec::new();
        for (offset, isp) in [(0u64, Isp::Att), (100, Isp::Xfinity)] {
            let cat = PlanCatalog::for_isp(isp);
            let tier = cat.tier_near(100.0);
            for i in 0..40 {
                truth.insert(
                    AddressId(offset + i),
                    isp,
                    AddressTruth {
                        served: true,
                        plans: vec![cat.plan_from_tier(tier)].into(),
                        existing_subscriber: false,
                        hard_failure: false,
                        ambiguous: false,
                    },
                );
                tasks.push(QueryTask {
                    address: AddressId(offset + i),
                    isp,
                });
            }
        }
        Campaign::new(CampaignConfig {
            seed: 5,
            workers: 2,
            ..CampaignConfig::default()
        })
        .run(&truth, &tasks)
    }

    #[test]
    fn throttling_never_beats_unthrottled() {
        let result = result_with_two_isps();
        let fast = ThrottlePolicy::unthrottled(40).wall_clock_secs(&result, 40);
        let polite = ThrottlePolicy::polite().wall_clock_secs(&result, 40);
        assert!(polite >= fast, "polite {polite} vs fast {fast}");
        assert!(fast > 0.0);
    }

    #[test]
    fn pacing_floor_binds_for_fast_sites() {
        let result = result_with_two_isps();
        // With an extreme gap, pacing dominates: 40 queries × 1000 s / 8.
        let policy = ThrottlePolicy {
            per_isp_concurrency: 8,
            min_gap_secs: 1_000.0,
        };
        let wall = policy.wall_clock_secs(&result, 40);
        assert!((wall - 40.0 * 1_000.0 / 8.0).abs() < 1e-6, "wall {wall}");
    }

    #[test]
    fn concurrency_is_capped_by_workers() {
        let result = result_with_two_isps();
        let wide = ThrottlePolicy {
            per_isp_concurrency: 64,
            min_gap_secs: 0.0,
        };
        // Two workers cap the effective concurrency at 2.
        let two = wide.wall_clock_secs(&result, 2);
        let sixty_four = wide.wall_clock_secs(&result, 64);
        assert!(two > sixty_four);
    }

    #[test]
    fn slowest_isp_determines_the_campaign() {
        let result = result_with_two_isps();
        let policy = ThrottlePolicy::polite();
        let whole = policy.wall_clock_secs(&result, 8);
        // Recompute per ISP by filtering records.
        let per_isp_max = [Isp::Att, Isp::Xfinity]
            .iter()
            .map(|&isp| {
                let total: f64 = result.records_for(isp).map(|r| r.duration_secs).sum();
                let queries = result.records_for(isp).count() as f64;
                (total / 8.0).max(queries * 2.0 / 8.0)
            })
            .fold(0.0, f64::max);
        assert!((whole - per_isp_max).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let result = result_with_two_isps();
        ThrottlePolicy::polite().wall_clock_secs(&result, 0);
    }

    #[test]
    fn pacing_wait_zero_without_a_gap() {
        let result = result_with_two_isps();
        let policy = ThrottlePolicy {
            per_isp_concurrency: 8,
            min_gap_secs: 0.0,
        };
        assert_eq!(policy.pacing_wait_secs(&result.records, 4), 0.0);
    }

    #[test]
    fn pacing_wait_covers_every_rotation() {
        let result = result_with_two_isps();
        let policy = ThrottlePolicy::polite();
        let rotations: usize = result.records.iter().map(|r| r.errors.len()).sum();
        let wait = policy.pacing_wait_secs(&result.records, 4);
        assert!(
            wait >= rotations as f64 * policy.min_gap_secs - 1e-9,
            "wait {wait} must cover {rotations} rotations"
        );
    }

    #[test]
    fn pacing_wait_grows_with_the_gap() {
        let result = result_with_two_isps();
        let tight = ThrottlePolicy {
            per_isp_concurrency: 8,
            min_gap_secs: 2.0,
        };
        let loose = ThrottlePolicy {
            per_isp_concurrency: 8,
            min_gap_secs: 50.0,
        };
        let small = tight.pacing_wait_secs(&result.records, 4);
        let large = loose.pacing_wait_secs(&result.records, 4);
        assert!(large > small, "{large} vs {small}");
    }

    /// The lanes keyed by a `HashMap`, as before the per-ISP arrays.
    fn hash_map_pacing_wait(
        policy: &ThrottlePolicy,
        records: &[QueryRecord],
        workers: usize,
    ) -> f64 {
        let concurrency = policy.per_isp_concurrency.min(workers.max(1)).max(1);
        let rotation_wait: f64 = records
            .iter()
            .map(|r| r.errors.len() as f64 * policy.min_gap_secs)
            .sum();
        let mut lanes: std::collections::HashMap<Isp, (usize, Vec<f64>)> = Default::default();
        let mut gap_wait = 0.0;
        for record in records {
            let (next, prev_durs) = lanes.entry(record.isp).or_default();
            if prev_durs.len() < concurrency {
                prev_durs.push(record.duration_secs);
            } else {
                let lane = *next % concurrency;
                gap_wait += (policy.min_gap_secs - prev_durs[lane]).max(0.0);
                prev_durs[lane] = record.duration_secs;
                *next += 1;
            }
        }
        rotation_wait + gap_wait
    }

    #[test]
    fn pacing_wait_matches_hash_map_lanes_bit_for_bit() {
        let result = result_with_two_isps();
        for (concurrency, gap) in [(1, 2.0), (3, 7.5), (8, 2.0), (64, 0.25)] {
            let policy = ThrottlePolicy {
                per_isp_concurrency: concurrency,
                min_gap_secs: gap,
            };
            for workers in [1, 2, 5, 40] {
                assert_eq!(
                    policy.pacing_wait_secs(&result.records, workers).to_bits(),
                    hash_map_pacing_wait(&policy, &result.records, workers).to_bits()
                );
            }
        }
    }

    #[test]
    fn pacing_wait_is_schedule_independent() {
        let result = result_with_two_isps();
        let policy = ThrottlePolicy::polite();
        // Pure function of the record list in task order: worker count
        // only changes effective concurrency, not determinism.
        let a = policy.pacing_wait_secs(&result.records, 4);
        let b = policy.pacing_wait_secs(&result.records, 4);
        assert_eq!(a, b);
    }
}
