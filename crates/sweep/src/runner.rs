//! Grid execution: compile the grid into one cost-aware plan with a
//! unit per (state, scale) world, build each world's scenario once
//! through `caf_core::pipeline`, evaluate its policy cells against it,
//! and reduce into canonical tables and artifacts.

use caf_bqt::CampaignConfig;
use caf_core::{CompetitionCounterfactual, EngineConfig, Q3Analysis, Scenario};
use caf_dataframe::{DataFrame, DataType, Value};
use caf_exec::{map_units_stats, CostHint, Shard, ShardPolicy, UnitPlan};
use caf_obs::json::Json;
use caf_synth::SynthConfig;

use crate::grid::{Cell, ScenarioKey};
use crate::spec::SweepSpec;

/// Scheduling knobs for one sweep run. The plan has one unsplittable
/// unit per (state, scale) world, so the worker count is the only shape
/// it takes. Every worker count produces byte-identical results — it
/// moves wall-clock time only.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads for the grid plan (each world's cells run
    /// serially inside its unit).
    pub workers: usize,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions { workers: 4 }
    }
}

/// One computed grid cell: the policy coordinates plus every headline
/// the pipeline produces under them. Optional fields are `None` when
/// the scaled-down world is too small to support the statistic (an
/// empty audit, a Q3 population with no Type A/B split) — the emission
/// renders them as JSON/CSV nulls rather than inventing a number.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The grid coordinates.
    pub cell: Cell,
    /// The cell's content-addressed key.
    pub key: ScenarioKey,
    /// Definitive audit rows behind the headline rates.
    pub records: u64,
    /// CBG-weighted serviceability rate (Q1).
    pub serviceability: Option<f64>,
    /// CBG-weighted compliance rate under the statutory CAF 10/1 rules.
    pub compliance_baseline: Option<f64>,
    /// CBG-weighted compliance rate under the cell's policy rules
    /// (tier floors × price-cap multiplier).
    pub compliance_policy: Option<f64>,
    /// Fraction of price-eligible rows whose cheapest qualifying plan
    /// sits at or below the cell's (multiplied) rate cap.
    pub price_compliance: f64,
    /// Fraction of Q3 blocks whose CAF speed meets the cell's tier
    /// floor.
    pub tier_attainment: Option<f64>,
    /// Expected mean CAF speed under the cell's subsidy rule, Mbps.
    pub cf_mean_mbps: Option<f64>,
    /// Expected median CAF speed under the cell's subsidy rule, Mbps.
    pub cf_median_mbps: Option<f64>,
}

/// The outcome of one sweep: per-cell results in canonical grid order
/// plus scheduling telemetry. Telemetry is timing-dependent and
/// deliberately excluded from every emission.
#[derive(Debug)]
pub struct SweepRun {
    /// The seed the grid ran under.
    pub seed: u64,
    /// Per-cell results, in [`SweepSpec::cells`] order.
    pub results: Vec<CellResult>,
    /// Shards executed by a worker other than their dealt lane
    /// (0 at one worker).
    pub steals: u64,
    /// The worker count the plan was built for.
    pub workers: usize,
    /// Shards in the plan (scheduling detail, not result-bearing).
    pub shards: usize,
}

/// Evaluates every policy cell of one (state, scale) world group — a
/// chunk of [`world_groups`] — against that world's [`Scenario`]: builds
/// the scenario and its Q3 analysis once, then reads each cell's tier
/// floors, price-cap multiplier and subsidy rule off them. Results come
/// back in `group` order.
///
/// Everything runs serially on the calling thread with a 1-worker
/// campaign: the caller's outer plan owns parallelism, and the pipeline
/// is byte-identical at any worker count anyway.
pub fn run_world(seed: u64, group: &[Cell]) -> Vec<CellResult> {
    let Some(first) = group.first() else {
        return Vec::new();
    };
    debug_assert!(group
        .iter()
        .all(|c| (c.state, c.scale) == (first.state, first.scale)));
    let campaign = CampaignConfig {
        seed,
        workers: 1,
        ..CampaignConfig::default()
    };
    let scenario = Scenario::build(
        SynthConfig {
            seed,
            scale: first.scale,
        },
        &[first.state],
        EngineConfig::serial(),
        campaign,
        &[],
    )
    .expect("an empty delta stream cannot fail validation");
    // Q1 serviceability and Q2 baseline compliance, `None` on an empty
    // index.
    let baseline = (!scenario.index.cells().is_empty()).then(|| {
        (
            scenario.serviceability.overall_rate(),
            scenario.compliance.overall_rate(),
        )
    });
    let q3 = Q3Analysis::run(&scenario.world, campaign);
    let counterfactual = CompetitionCounterfactual::from_q3(&q3);
    let dataset = &scenario.dataset;
    group
        .iter()
        .map(|cell| {
            let rules = cell.program_rules();
            let (price_compliance, _range) =
                scenario.compliance.price_compliance_under(dataset, &rules);
            let cf_point = counterfactual.as_ref().map(|cf| cf.under_rule(cell.rule));
            CellResult {
                cell: *cell,
                key: cell.key(seed),
                records: dataset.rows.len() as u64,
                serviceability: baseline.map(|(q1, _)| q1),
                compliance_baseline: baseline.map(|(_, q2)| q2),
                compliance_policy: rules.compliance_rate_indexed(dataset, &scenario.index, None),
                price_compliance,
                tier_attainment: q3.tier_attainment(rules.min_down_mbps),
                cf_mean_mbps: cf_point.map(|p| p.mean_caf_speed),
                cf_median_mbps: cf_point.map(|p| p.median_caf_speed),
            }
        })
        .collect()
}

/// The grid's world groups: [`SweepSpec::cells`] is state-major, then
/// scale, so each (state, scale) world's policy cells form one
/// contiguous chunk of `tiers × caps × rules` cells.
pub fn world_groups<'a>(spec: &SweepSpec, cells: &'a [Cell]) -> std::slice::Chunks<'a, Cell> {
    let per_world = spec.tiers.len() * spec.cap_multipliers.len() * spec.rules.len();
    cells.chunks(per_world.max(1))
}

impl SweepRun {
    /// Runs the whole grid: one opaque unit per (state, scale) world,
    /// hinted by the world's scaled record count, dispatched on the
    /// work-stealing executor. Each unit is one [`run_world`] call;
    /// results flatten back into canonical cell order.
    pub fn run(spec: &SweepSpec, options: SweepOptions) -> SweepRun {
        let cells = spec.cells();
        let worlds: Vec<&[Cell]> = world_groups(spec, &cells).collect();
        debug_assert_eq!(worlds.len(), spec.states.len() * spec.scales.len());
        let hints: Vec<CostHint> = worlds
            .iter()
            .map(|group| CostHint::opaque(group[0].est_cost()))
            .collect();
        // One-element units never split, so the shard policy is moot.
        let plan = UnitPlan::build(options.workers, &hints, ShardPolicy::disabled());
        let seed = spec.seed;
        let (parts, stats) =
            map_units_stats(&plan, |shard: &Shard| run_world(seed, worlds[shard.unit]));
        // Units in world order, one shard each: flattening reproduces
        // `spec.cells()` order exactly.
        let results: Vec<CellResult> = parts.into_iter().flatten().flatten().collect();
        debug_assert_eq!(results.len(), cells.len());
        SweepRun {
            seed,
            results,
            steals: stats.steals,
            workers: options.workers,
            shards: plan.shard_count(),
        }
    }
}

fn opt_num(value: Option<f64>) -> Json {
    match value {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

/// One cell's artifact body: a flat object, keys sorted (the canonical
/// writer contract), nullable statistics rendered as JSON nulls.
pub fn cell_body(result: &CellResult) -> Json {
    Json::Obj(vec![
        (
            "cap_multiplier".to_string(),
            Json::Num(result.cell.cap_multiplier),
        ),
        ("cf_mean_mbps".to_string(), opt_num(result.cf_mean_mbps)),
        ("cf_median_mbps".to_string(), opt_num(result.cf_median_mbps)),
        (
            "compliance_baseline".to_string(),
            opt_num(result.compliance_baseline),
        ),
        (
            "compliance_policy".to_string(),
            opt_num(result.compliance_policy),
        ),
        ("key".to_string(), Json::Str(result.key.hex())),
        (
            "price_compliance".to_string(),
            Json::Num(result.price_compliance),
        ),
        ("records".to_string(), Json::UInt(result.records)),
        (
            "scale".to_string(),
            Json::UInt(u64::from(result.cell.scale)),
        ),
        ("serviceability".to_string(), opt_num(result.serviceability)),
        (
            "state".to_string(),
            Json::Str(result.cell.state.abbrev().to_string()),
        ),
        (
            "subsidy_rule".to_string(),
            Json::Str(result.cell.rule.label().to_string()),
        ),
        ("tier".to_string(), Json::Str(result.cell.tier.to_string())),
        (
            "tier_attainment".to_string(),
            opt_num(result.tier_attainment),
        ),
    ])
}

/// The whole-grid artifact: the seed, the cell count, and every cell
/// body in canonical grid order. Scheduling telemetry (steals, worker
/// count) is deliberately absent — the artifact must be byte-identical
/// at any worker count or steal schedule.
pub fn results_artifact(run: &SweepRun) -> Json {
    Json::Obj(vec![
        (
            "cells".to_string(),
            Json::Arr(run.results.iter().map(cell_body).collect()),
        ),
        ("count".to_string(), Json::UInt(run.results.len() as u64)),
        ("seed".to_string(), Json::UInt(run.seed)),
    ])
}

/// The results table: one row per cell in canonical grid order, typed
/// columns, nullable statistics as frame nulls. `to_csv` on this frame
/// is the sweep's CSV emission.
pub fn results_table(run: &SweepRun) -> DataFrame {
    let mut frame = DataFrame::with_schema(&[
        ("state", DataType::Str),
        ("scale", DataType::Int),
        ("tier", DataType::Str),
        ("cap_multiplier", DataType::Float),
        ("subsidy_rule", DataType::Str),
        ("key", DataType::Str),
        ("records", DataType::Int),
        ("serviceability", DataType::Float),
        ("compliance_baseline", DataType::Float),
        ("compliance_policy", DataType::Float),
        ("price_compliance", DataType::Float),
        ("tier_attainment", DataType::Float),
        ("cf_mean_mbps", DataType::Float),
        ("cf_median_mbps", DataType::Float),
    ])
    .expect("sweep schema is well-formed");
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    for r in &run.results {
        frame
            .push_row(vec![
                Value::Str(r.cell.state.abbrev().to_string()),
                Value::Int(i64::from(r.cell.scale)),
                Value::Str(r.cell.tier.to_string()),
                Value::Float(r.cell.cap_multiplier),
                Value::Str(r.cell.rule.label().to_string()),
                Value::Str(r.key.hex()),
                Value::Int(r.records as i64),
                opt(r.serviceability),
                opt(r.compliance_baseline),
                opt(r.compliance_policy),
                Value::Float(r.price_compliance),
                opt(r.tier_attainment),
                opt(r.cf_mean_mbps),
                opt(r.cf_median_mbps),
            ])
            .expect("sweep rows match the schema");
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_core::artifact::to_canonical_bytes;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{
                "seed": 7,
                "states": ["VT", "NH"],
                "scales": [2000],
                "speed_tiers": ["10_1", "100_20"],
                "price_cap_multipliers": [1.0],
                "subsidy_rules": ["status_quo", "full_buildout"]
            }"#,
        )
        .expect("tiny spec is valid")
    }

    #[test]
    fn emission_is_identical_across_schedules() {
        let spec = tiny_spec();
        let baseline = SweepRun::run(&spec, SweepOptions { workers: 1 });
        let reference = to_canonical_bytes(&results_artifact(&baseline));
        let reference_csv = results_table(&baseline).to_csv();
        for workers in [2, 3, 4] {
            let run = SweepRun::run(&spec, SweepOptions { workers });
            assert_eq!(
                to_canonical_bytes(&results_artifact(&run)),
                reference,
                "workers={workers}"
            );
            assert_eq!(results_table(&run).to_csv(), reference_csv);
        }
    }

    #[test]
    fn world_groups_are_one_state_and_scale_each() {
        let spec = SweepSpec::from_json(
            r#"{
                "seed": 3,
                "states": ["VT", "NH", "CA"],
                "scales": [400, 600],
                "speed_tiers": ["10_1", "25_3", "100_20"],
                "price_cap_multipliers": [0.75, 1.0],
                "subsidy_rules": ["status_quo", "full_buildout"]
            }"#,
        )
        .expect("grouping spec is valid");
        let cells = spec.cells();
        let groups: Vec<&[Cell]> = world_groups(&spec, &cells).collect();
        assert_eq!(groups.len(), spec.states.len() * spec.scales.len());
        let mut worlds = Vec::new();
        for group in &groups {
            assert_eq!(group.len(), 3 * 2 * 2);
            let world = (group[0].state, group[0].scale);
            assert!(
                group.iter().all(|c| (c.state, c.scale) == world),
                "{world:?}"
            );
            assert!(!worlds.contains(&world), "{world:?} is split across groups");
            worlds.push(world);
        }
    }

    #[test]
    fn results_follow_canonical_cell_order() {
        let spec = tiny_spec();
        let run = SweepRun::run(&spec, SweepOptions::default());
        let cells = spec.cells();
        assert_eq!(run.results.len(), cells.len());
        for (r, c) in run.results.iter().zip(&cells) {
            assert_eq!(r.key, c.key(spec.seed));
        }
        // Policy axes move the policy columns, not the audit itself:
        // baseline compliance agrees across tiers of the same state.
        let vt: Vec<&CellResult> = run
            .results
            .iter()
            .filter(|r| r.cell.state == caf_geo::UsState::Vermont)
            .collect();
        for r in &vt {
            assert_eq!(r.compliance_baseline, vt[0].compliance_baseline);
            assert_eq!(r.serviceability, vt[0].serviceability);
        }
    }

    #[test]
    fn table_matches_run_shape() {
        let spec = tiny_spec();
        let run = SweepRun::run(&spec, SweepOptions { workers: 1 });
        let frame = results_table(&run);
        assert_eq!(frame.n_rows(), spec.cell_count());
        let csv = frame.to_csv();
        assert!(csv.starts_with("state,scale,tier,cap_multiplier"), "{csv}");
    }
}
