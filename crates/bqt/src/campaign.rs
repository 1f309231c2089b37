//! Campaign execution: a latency-aware scheduler draining a query task
//! list.
//!
//! The paper ran BQT "at scale for many Docker containers" (§3.2), each
//! container working through a slice of the address list via the proxy
//! pool. The simulated campaign reproduces that architecture on top of
//! the shared execution engine: the task list becomes one
//! [`caf_exec::UnitPlan`] unit with **per-task cost hints** derived from
//! each ISP's calibrated latency model (AT&T's ~25 s median vs. the
//! cable competitors' ~3 s — Figure 11), so the planner shards the heavy
//! ISPs finer and dispatches them first. Shards then run on the
//! work-stealing executor ([`caf_exec::map_units`]), which absorbs the
//! heavy-tailed per-query latency the static plan cannot predict. Because every query's randomness is keyed by the
//! (address, ISP) pair, the result set is **identical for any worker
//! count, shard policy, or steal schedule** — parallelism changes
//! wall-clock time only, which the result reports separately.
//!
//! Campaign telemetry feeds three of the paper's artifacts: traceback
//! error counts (Table 2), per-CBG coverage fractions (Figures 7/8), and
//! the per-address query-time distribution (Figure 11).

use caf_exec::{map_units, CostHint, Shard, ShardPolicy, UnitPlan};
use caf_geo::AddressId;
use caf_synth::params::{CalibrationParams, ErrorCategory};
use caf_synth::{Isp, TruthTable};
use std::collections::HashMap;
use std::ops::{Index, IndexMut, Range};

use crate::checkpoint::CheckpointSink;
use crate::client::QueryClient;
use crate::outcome::{QueryOutcome, QueryRecord};
use crate::proxy::ProxyPool;
use crate::throttle::ThrottlePolicy;
use crate::timing::RETRY_OVERHEAD_SECS;

/// One unit of work: query one address on one ISP's site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryTask {
    /// The address to query.
    pub address: AddressId,
    /// The ISP site to query it on.
    pub isp: Isp,
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed (should match the world's seed so truth lookups align;
    /// any seed works, it only needs to be stable).
    pub seed: u64,
    /// Worker threads (the paper's Docker containers).
    pub workers: usize,
    /// Retry budget per address. With `adaptive_retry` set, this is the
    /// *floor*: per-ISP budgets scale up to `3 × max_attempts` on flaky
    /// sites (see [`adaptive_attempts`]).
    pub max_attempts: u32,
    /// Proxy endpoints per worker.
    pub proxy_pool_size: usize,
    /// The pacing policy the campaign models. Like `workers`, it shapes
    /// the wall-clock estimate (and the throttle-wait statistic) only —
    /// query outcomes never depend on it.
    pub throttle: ThrottlePolicy,
    /// Size the retry budget per ISP from its calibrated transient-error
    /// rate instead of using `max_attempts` flat. **Changes outcomes**
    /// (a bigger budget can turn an Unknown into a definitive answer),
    /// so it is opt-in and off by default to keep golden results stable.
    pub adaptive_retry: bool,
    /// How aggressively the planner shards the task list. Pure
    /// performance knob: any policy yields identical records.
    pub shard: ShardPolicy,
}

impl CampaignConfig {
    /// Returns the config with a different master seed. Outcomes are a
    /// pure function of `(seed, address, ISP)`, so two configs sharing a
    /// seed produce identical records regardless of every other knob.
    pub fn with_seed(self, seed: u64) -> CampaignConfig {
        CampaignConfig { seed, ..self }
    }

    /// The retry budget for one ISP: `max_attempts` flat, or the
    /// adaptively-sized budget when `adaptive_retry` is on.
    pub fn attempts_for(&self, isp: Isp) -> u32 {
        if self.adaptive_retry {
            adaptive_attempts(self.max_attempts, isp)
        } else {
            self.max_attempts
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xCAF_2024,
            workers: 4,
            max_attempts: 3,
            proxy_pool_size: 16,
            throttle: ThrottlePolicy::polite(),
            adaptive_retry: false,
            shard: ShardPolicy::resolve(),
        }
    }
}

/// Sizes a per-ISP retry budget from the ISP's calibrated
/// transient-error rate: the smallest number of attempts `k` such that
/// the chance of *all* `k` failing transiently drops below 1%, clamped
/// to `[base, 3 × base]`. Reliable cable sites stay at the floor; AT&T's
/// flaky anti-bot flow earns extra attempts instead of burning its
/// addresses as Unknown.
pub fn adaptive_attempts(base: u32, isp: Isp) -> u32 {
    let base = base.max(1);
    let ceiling = base.saturating_mul(3);
    let p = CalibrationParams::transient_error_rate(isp);
    if p <= 0.0 {
        return base;
    }
    let mut k = 1u32;
    while p.powi(k as i32) > 0.01 && k < ceiling {
        k += 1;
    }
    k.clamp(base, ceiling)
}

/// One value per ISP, indexed by [`Isp`]: the campaign's per-ISP
/// tables (cost hints, pacing lanes, wall-clock tallies), which cost a
/// fixed array read per task instead of a hash lookup.
#[derive(Debug)]
pub(crate) struct PerIsp<T>([T; 7]);

impl<T> PerIsp<T> {
    /// The table holding `f(isp)` for every ISP.
    pub(crate) fn from_fn(f: impl FnMut(Isp) -> T) -> PerIsp<T> {
        // `Isp::all()` lists the ISPs in `Isp::id` order, 1 through 7.
        PerIsp(Isp::all().map(f))
    }

    /// The values, in `Isp::all()` order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter()
    }
}

impl<T> Index<Isp> for PerIsp<T> {
    type Output = T;

    fn index(&self, isp: Isp) -> &T {
        &self.0[isp.id() as usize - 1]
    }
}

impl<T> IndexMut<Isp> for PerIsp<T> {
    fn index_mut(&mut self, isp: Isp) -> &mut T {
        &mut self.0[isp.id() as usize - 1]
    }
}

/// Expected cost of one query task in microseconds — the planner's
/// per-element hint. Mean lognormal attempt time × expected attempts
/// under the ISP's transient-error rate (geometric, truncated at the
/// budget), plus retry overhead. Hints only need to be *proportional*
/// to runtime, and they never touch outcomes, so the floating-point
/// arithmetic here is schedule-only.
fn expected_task_cost_us(cfg: &CampaignConfig, isp: Isp) -> u64 {
    let (mu, sigma) = CalibrationParams::query_time_params(isp);
    let mean_attempt_secs = (mu + sigma * sigma / 2.0).exp();
    let p = CalibrationParams::transient_error_rate(isp);
    let budget = f64::from(cfg.attempts_for(isp));
    let expected_attempts = if p <= 0.0 {
        1.0
    } else {
        ((1.0 - p.powf(budget)) / (1.0 - p)).max(1.0)
    };
    let secs =
        mean_attempt_secs * expected_attempts + (expected_attempts - 1.0) * RETRY_OVERHEAD_SECS;
    (secs * 1e6) as u64
}

/// Aggregate statistics of one campaign run, computed **post-hoc from
/// the record list** — records are worker-count independent, so the
/// stats are too (only `throttle_wait_secs` folds in the configured
/// policy and worker count, both fixed by the config).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignStats {
    /// Tasks run (one record each).
    pub queries: u64,
    /// Site attempts across all tasks (first tries + retries).
    pub attempts: u64,
    /// Retry attempts only (`attempts - queries`).
    pub retries: u64,
    /// Transient error events observed (one per failed attempt).
    pub error_events: u64,
    /// Proxy endpoint rotations. The client rotates exactly once per
    /// transient error, so this equals `error_events`; kept as its own
    /// field because it is a distinct operational event.
    pub proxy_rotations: u64,
    /// Records whose outcome was `Serviceable`.
    pub serviceable: u64,
    /// Records whose outcome was `NoService`.
    pub no_service: u64,
    /// Records whose outcome was `AddressNotFound`.
    pub address_not_found: u64,
    /// Records whose outcome was `Unknown` (retry budget exhausted).
    pub unknown: u64,
    /// Records whose outcome was `CallToOrder`.
    pub call_to_order: u64,
    /// Total simulated in-query seconds.
    pub total_query_secs: f64,
    /// Seconds the pacing policy adds beyond pure query work, accumulated
    /// at the throttle decision points (rotation backoff + per-lane
    /// pacing gaps) — see [`ThrottlePolicy::pacing_wait_secs`].
    pub throttle_wait_secs: f64,
}

impl CampaignStats {
    /// Computes the statistics for a finished record list under the
    /// given pacing policy and worker count.
    pub fn from_records(
        records: &[QueryRecord],
        throttle: ThrottlePolicy,
        workers: usize,
    ) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for record in records {
            stats.queries += 1;
            stats.attempts += u64::from(record.attempts);
            stats.error_events += record.errors.len() as u64;
            stats.total_query_secs += record.duration_secs;
            match &record.outcome {
                QueryOutcome::Serviceable { .. } => stats.serviceable += 1,
                QueryOutcome::NoService => stats.no_service += 1,
                QueryOutcome::AddressNotFound => stats.address_not_found += 1,
                QueryOutcome::Unknown(_) => stats.unknown += 1,
                QueryOutcome::CallToOrder => stats.call_to_order += 1,
            }
        }
        stats.retries = stats.attempts - stats.queries;
        stats.proxy_rotations = stats.error_events;
        stats.throttle_wait_secs = throttle.pacing_wait_secs(records, workers);
        stats
    }

    /// Publishes the statistics as `caf.bqt.campaign.*` counters in the
    /// global telemetry registry, and the duration of each of `records`
    /// (the run they were computed from) into the
    /// `caf.bqt.campaign.query_us` histogram. Counters accumulate, so
    /// repeated campaigns (resample rounds, per-state runs) tally up.
    pub fn publish(&self, records: &[QueryRecord]) {
        caf_obs::count("caf.bqt.campaign.queries", self.queries);
        caf_obs::count("caf.bqt.campaign.attempts", self.attempts);
        caf_obs::count("caf.bqt.campaign.retries", self.retries);
        caf_obs::count("caf.bqt.campaign.errors", self.error_events);
        caf_obs::count("caf.bqt.campaign.proxy_rotations", self.proxy_rotations);
        caf_obs::count("caf.bqt.campaign.outcome.serviceable", self.serviceable);
        caf_obs::count("caf.bqt.campaign.outcome.no_service", self.no_service);
        caf_obs::count(
            "caf.bqt.campaign.outcome.address_not_found",
            self.address_not_found,
        );
        caf_obs::count("caf.bqt.campaign.outcome.unknown", self.unknown);
        caf_obs::count("caf.bqt.campaign.outcome.call_to_order", self.call_to_order);
        caf_obs::count(
            "caf.bqt.campaign.throttle_wait_us",
            (self.throttle_wait_secs * 1e6) as u64,
        );
        if caf_obs::enabled() {
            // One lookup for the whole run, not one per record.
            let query_us = caf_obs::registry().histogram("caf.bqt.campaign.query_us");
            for record in records {
                query_us.record((record.duration_secs * 1e6) as u64);
            }
        }
    }
}

/// The result of a campaign. `PartialEq` compares the full payload —
/// records, replayed proxy telemetry, and stats — which is what the
/// resume-equality tests and the checkpoint smoke assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One record per task, in task order.
    pub records: Vec<QueryRecord>,
    /// Proxy telemetry from a canonical replay of the record list (in
    /// task order, health-scored rotation), so it is identical under any
    /// worker count or steal schedule.
    pub proxy: ProxyPool,
    /// Aggregate run statistics (retry/outcome/throttle tallies).
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// Traceback error-event counts per (ISP, category) — Table 2's cells.
    pub fn error_counts(&self) -> HashMap<(Isp, ErrorCategory), u64> {
        let mut counts = HashMap::new();
        for record in &self.records {
            for &category in &record.errors {
                *counts.entry((record.isp, category)).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Total simulated query seconds across all tasks.
    pub fn total_query_secs(&self) -> f64 {
        self.records.iter().map(|r| r.duration_secs).sum()
    }

    /// Estimated wall-clock seconds at the given worker count.
    pub fn wall_clock_secs(&self, workers: usize) -> f64 {
        crate::timing::wall_clock_secs(self.total_query_secs(), workers)
    }

    /// The records for one ISP.
    pub fn records_for(&self, isp: Isp) -> impl Iterator<Item = &QueryRecord> {
        self.records.iter().filter(move |r| r.isp == isp)
    }
}

/// A configured campaign runner.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign with the given config.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `proxy_pool_size` is zero.
    pub fn new(config: CampaignConfig) -> Campaign {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.proxy_pool_size >= 1, "need at least one proxy");
        Campaign { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs every task against the latent truth, returning records in
    /// task order. Deterministic for a fixed seed regardless of worker
    /// count, shard policy, or steal schedule.
    pub fn run(&self, truth: &TruthTable, tasks: &[QueryTask]) -> CampaignResult {
        let _span = caf_obs::span("bqt.campaign");
        let plan = self.plan_for(tasks, None);
        let shard_results = self.execute_plan(truth, tasks, &plan, None);
        // One unit spanning the whole task list: shard ranges are
        // contiguous ascending, so concatenation restores task order.
        let mut records = Vec::with_capacity(tasks.len());
        for (_, recs) in shard_results {
            records.extend(recs);
        }
        self.finish(records)
    }

    /// Builds the latency-aware plan for a task list: one unit with a
    /// per-task expected-cost hint, read from a per-ISP cost table and
    /// sharded under the configured policy. `runs` restricts the plan to
    /// those ascending, disjoint task ranges (the checkpoint resume
    /// path); `None` plans every task.
    pub(crate) fn plan_for(
        &self,
        tasks: &[QueryTask],
        runs: Option<Vec<Range<usize>>>,
    ) -> UnitPlan {
        let cost = PerIsp::from_fn(|isp| expected_task_cost_us(&self.config, isp));
        let hints = [CostHint::PerElement(
            tasks.iter().map(|t| cost[t.isp]).collect(),
        )];
        let (workers, shard) = (self.config.workers, self.config.shard);
        match runs {
            None => UnitPlan::build(workers, &hints, shard),
            Some(runs) => UnitPlan::build_subset(workers, &hints, shard, &[runs]),
        }
    }

    /// Executes every shard of `plan` (whose ranges index into `tasks`),
    /// returning `(range, records)` per shard in canonical shard order.
    /// Each shard gets a fresh [`QueryClient`], so results depend only on
    /// (seed, address, ISP) — never on which worker ran the shard or in
    /// what order. When a checkpoint sink is given, completed shards are
    /// reported to it from inside the executor.
    pub(crate) fn execute_plan(
        &self,
        truth: &TruthTable,
        tasks: &[QueryTask],
        plan: &UnitPlan,
        sink: Option<&CheckpointSink>,
    ) -> Vec<(Range<usize>, Vec<QueryRecord>)> {
        let cfg = self.config;
        let work = |shard: &Shard| -> (Range<usize>, Vec<QueryRecord>) {
            let pool = ProxyPool::new(cfg.seed, cfg.proxy_pool_size);
            let mut client = QueryClient::new(cfg.seed, cfg.max_attempts, pool);
            let mut recs = Vec::with_capacity(shard.range.len());
            for i in shard.range.clone() {
                let task = tasks[i];
                recs.push(client.query_with_attempts(
                    truth,
                    task.address,
                    task.isp,
                    cfg.attempts_for(task.isp),
                ));
            }
            if let Some(sink) = sink {
                sink.complete(shard.range.clone(), &recs);
            }
            (shard.range.clone(), recs)
        };
        map_units(plan, work).into_iter().flatten().collect()
    }

    /// Assembles the final result from records in task order: post-hoc
    /// stats, the canonical proxy replay, and telemetry publication.
    pub(crate) fn finish(&self, records: Vec<QueryRecord>) -> CampaignResult {
        let cfg = self.config;
        let stats = CampaignStats::from_records(&records, cfg.throttle, cfg.workers);
        let proxy = replay_proxy(&cfg, &records);
        if caf_obs::enabled() {
            stats.publish(&records);
        }
        CampaignResult {
            records,
            proxy,
            stats,
        }
    }
}

/// Replays the record list (in task order) against one canonical pool:
/// every attempt charges a use, every transient error rotates via
/// health-scored rotation. A pure function of the records, so the
/// published proxy telemetry is identical under any schedule — unlike
/// the old per-worker-pool aggregation, whose per-endpoint tallies
/// depended on how the channel interleaved tasks across workers.
fn replay_proxy(cfg: &CampaignConfig, records: &[QueryRecord]) -> ProxyPool {
    let mut pool = ProxyPool::new(cfg.seed, cfg.proxy_pool_size);
    for record in records {
        for attempt in 1..=record.attempts {
            pool.acquire();
            if attempt as usize <= record.errors.len() {
                pool.rotate_healthiest();
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_geo::UsState;
    use caf_synth::{SynthConfig, World};

    fn world() -> World {
        World::generate_states(
            SynthConfig {
                seed: 33,
                scale: 60,
            },
            &[UsState::Vermont],
        )
    }

    fn tasks_for(world: &World) -> Vec<QueryTask> {
        let vt = world.state(UsState::Vermont).unwrap();
        vt.usac
            .records
            .iter()
            .take(400)
            .map(|r| QueryTask {
                address: r.address.id,
                isp: r.isp,
            })
            .collect()
    }

    #[test]
    fn per_isp_tables_index_every_isp_once() {
        let mut table = PerIsp::from_fn(|isp| (isp, 0));
        for isp in Isp::all() {
            assert_eq!(table[isp].0, isp);
            table[isp].1 += 1;
        }
        assert!(table.values().all(|&(_, hits)| hits == 1));
    }

    #[test]
    fn every_task_gets_a_record_in_order() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 3,
            ..CampaignConfig::default()
        });
        let result = campaign.run(&w.truth, &tasks);
        assert_eq!(result.records.len(), tasks.len());
        for (task, record) in tasks.iter().zip(&result.records) {
            assert_eq!(task.address, record.address);
            assert_eq!(task.isp, record.isp);
        }
        assert!(result.total_query_secs() > 0.0);
        assert!(result.proxy.total_uses() >= tasks.len() as u64);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let w = world();
        let tasks = tasks_for(&w);
        let run = |workers: usize| {
            Campaign::new(CampaignConfig {
                seed: w.config.seed,
                workers,
                ..CampaignConfig::default()
            })
            .run(&w.truth, &tasks)
            .records
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_schedules_match_the_serial_run_exactly() {
        let w = world();
        let tasks = tasks_for(&w);
        let run = |workers: usize, shard: ShardPolicy| {
            Campaign::new(CampaignConfig {
                seed: w.config.seed,
                workers,
                shard,
                ..CampaignConfig::default()
            })
            .run(&w.truth, &tasks)
        };
        let serial = run(1, ShardPolicy::disabled());
        for workers in [2, 4] {
            for shard in [
                ShardPolicy::disabled(),
                ShardPolicy::default_policy(),
                ShardPolicy::finest(),
            ] {
                let result = run(workers, shard);
                assert_eq!(
                    result, serial,
                    "workers={workers} shard={shard:?} must match the serial run"
                );
            }
        }
    }

    #[test]
    fn config_builders_derive_without_touching_other_knobs() {
        let base = CampaignConfig::default();
        let tuned = base.with_seed(42);
        assert_eq!(tuned.seed, 42);
        assert_eq!(tuned.workers, base.workers);
        assert_eq!(tuned.max_attempts, base.max_attempts);
        assert_eq!(tuned.proxy_pool_size, base.proxy_pool_size);
        // Same seed ⇒ same records, even across different worker counts.
        let w = world();
        let tasks = tasks_for(&w);
        let a = Campaign::new(base.with_seed(w.config.seed))
            .run(&w.truth, &tasks)
            .records;
        let b = Campaign::new(CampaignConfig {
            workers: 7,
            ..base.with_seed(w.config.seed)
        })
        .run(&w.truth, &tasks)
        .records;
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_budgets_scale_with_flakiness() {
        // The budget never drops below the configured floor…
        for isp in Isp::bqt_supported() {
            let k = adaptive_attempts(3, isp);
            assert!((3..=9).contains(&k), "{isp:?} budget {k}");
        }
        // …and a flakier site gets at least as many attempts as a more
        // reliable one.
        let mut rates: Vec<(Isp, f64)> = Isp::bqt_supported()
            .iter()
            .map(|&isp| (isp, CalibrationParams::transient_error_rate(isp)))
            .collect();
        rates.sort_by(|a, b| a.1.total_cmp(&b.1));
        let budgets: Vec<u32> = rates
            .iter()
            .map(|&(isp, _)| adaptive_attempts(1, isp))
            .collect();
        for pair in budgets.windows(2) {
            assert!(pair[0] <= pair[1], "budgets must be monotone: {budgets:?}");
        }
    }

    #[test]
    fn adaptive_retry_only_upgrades_unknowns() {
        let w = world();
        let tasks = tasks_for(&w);
        let flat = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks);
        let adaptive = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            adaptive_retry: true,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks);
        // A bigger budget can only keep or improve each outcome: every
        // record that was definitive stays byte-identical, and Unknowns
        // either stay Unknown (with ≥ as many attempts) or resolve.
        assert!(adaptive.stats.unknown <= flat.stats.unknown);
        for (f, a) in flat.records.iter().zip(&adaptive.records) {
            if f.outcome.is_definitive() {
                assert_eq!(f, a, "definitive outcomes are budget-invariant");
            } else {
                assert!(a.attempts >= f.attempts);
            }
        }
    }

    #[test]
    fn serviceability_of_records_tracks_truth() {
        let w = world();
        let tasks = tasks_for(&w);
        let result = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks);
        let mut agree = 0;
        let mut definitive = 0;
        for record in &result.records {
            if let Some(served) = record.outcome.is_served() {
                definitive += 1;
                let truth = w.truth.get(record.address, record.isp).unwrap();
                if truth.served == served {
                    agree += 1;
                }
            }
        }
        assert!(
            definitive > 250,
            "most queries should be definitive, got {definitive}"
        );
        // Definitive outcomes always agree with the latent truth: the
        // website shows plans iff the ISP serves.
        assert_eq!(agree, definitive);
    }

    #[test]
    fn error_counts_populate_table_2_shape() {
        let w = world();
        let tasks = tasks_for(&w);
        let result = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks);
        let counts = result.error_counts();
        // Vermont is Consolidated territory; its errors should be
        // dominated by dropdown failures (Table 2's Consolidated row).
        let dropdown = counts
            .get(&(Isp::Consolidated, ErrorCategory::SelectDropdown))
            .copied()
            .unwrap_or(0);
        let total: u64 = counts
            .iter()
            .filter(|((isp, _), _)| *isp == Isp::Consolidated)
            .map(|(_, &c)| c)
            .sum();
        assert!(total > 0, "expected some Consolidated errors");
        assert!(
            dropdown as f64 / total as f64 > 0.9,
            "dropdown {dropdown}/{total}"
        );
    }

    #[test]
    fn stats_reconcile_with_records() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 3,
            ..CampaignConfig::default()
        });
        let result = campaign.run(&w.truth, &tasks);
        let s = result.stats;
        assert_eq!(s.queries, tasks.len() as u64);
        assert_eq!(
            s.attempts,
            result
                .records
                .iter()
                .map(|r| u64::from(r.attempts))
                .sum::<u64>()
        );
        assert_eq!(s.retries, s.attempts - s.queries);
        assert_eq!(
            s.error_events,
            result
                .records
                .iter()
                .map(|r| r.errors.len() as u64)
                .sum::<u64>()
        );
        assert_eq!(s.proxy_rotations, s.error_events);
        let outcomes =
            s.serviceable + s.no_service + s.address_not_found + s.unknown + s.call_to_order;
        assert_eq!(outcomes, s.queries, "every record lands in one class");
        assert!((s.total_query_secs - result.total_query_secs()).abs() < 1e-9);
        // Reconciliation: the wait accounting must cover at least the
        // rotation backoff — the old post-hoc bound reported 0 s against
        // thousands of rotations.
        let min_gap = campaign.config().throttle.min_gap_secs;
        assert!(
            s.throttle_wait_secs >= s.proxy_rotations as f64 * min_gap - 1e-9,
            "wait {} must cover {} rotations at {min_gap}s",
            s.throttle_wait_secs,
            s.proxy_rotations
        );
        if s.proxy_rotations > 0 {
            assert!(s.throttle_wait_secs > 0.0, "rotations imply waiting");
        }
    }

    #[test]
    fn stats_are_worker_count_independent() {
        let w = world();
        let tasks = tasks_for(&w);
        let run = |workers: usize| {
            Campaign::new(CampaignConfig {
                seed: w.config.seed,
                workers,
                ..CampaignConfig::default()
            })
            .run(&w.truth, &tasks)
            .stats
        };
        // `workers` feeds the throttle-wait bound, so pin it via a policy
        // wider than both counts and compare the tallies directly.
        let a = run(8);
        let b = run(8);
        assert_eq!(a, b, "same config reproduces identical stats");
        let c = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 1,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks)
        .stats;
        assert_eq!(a.queries, c.queries);
        assert_eq!(a.attempts, c.attempts);
        assert_eq!(a.error_events, c.error_events);
        assert_eq!(a.serviceable, c.serviceable);
        assert_eq!(a.unknown, c.unknown);
    }

    #[test]
    fn throttle_wait_grows_with_the_gap() {
        let w = world();
        let tasks = tasks_for(&w);
        let with_gap = |min_gap_secs: f64| {
            Campaign::new(CampaignConfig {
                seed: w.config.seed,
                throttle: ThrottlePolicy {
                    per_isp_concurrency: 8,
                    min_gap_secs,
                },
                ..CampaignConfig::default()
            })
            .run(&w.truth, &tasks)
            .stats
            .throttle_wait_secs
        };
        assert_eq!(with_gap(0.0), 0.0, "no gap, no pacing wait");
        assert!(with_gap(1_000.0) > with_gap(2.0));
    }

    #[test]
    fn wall_clock_scales_with_workers() {
        let w = world();
        let tasks = tasks_for(&w);
        let result = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        })
        .run(&w.truth, &tasks);
        let one = result.wall_clock_secs(1);
        let forty = result.wall_clock_secs(40);
        assert!((one / forty - 40.0).abs() < 1e-9)
    }
}
