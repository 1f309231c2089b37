//! End-to-end audit orchestration: sample → query → resample → dataset.
//!
//! [`Audit::run`] executes the paper's data-collection loop for every
//! state in a [`World`]: draw the §3.1 sampling plan, run the BQT
//! campaign over the drawn addresses, and for addresses whose queries end
//! non-definitively (Unknown tracebacks, AT&T "Call to Order" pages) draw
//! replacements from the same census block group, up to a bounded number
//! of rounds (§3.2, §5). The output [`AuditDataset`] carries one analysis
//! row per definitive query plus the raw query records and per-CBG
//! coverage telemetry that Figures 7, 8, 11 and Table 2 consume.
//!
//! States are independent work units, so the loop runs on the
//! [`caf_exec`] worker pool: [`Audit::run_with`] picks the worker
//! count, [`Audit::run_for`] restricts the audit to a state subset, and
//! both merge per-state partials in caller order — output is
//! byte-identical at any worker count (see `caf_exec`'s determinism
//! contract).

use caf_bqt::{Campaign, CampaignConfig, CampaignResult, QueryRecord, QueryTask};
use caf_dataframe::{Column, DataFrame};
use caf_exec::{map_units, CostHint, EngineConfig, UnitPlan};
use caf_geo::{AddressId, BlockGroupId, LatLon, UsState};
use caf_synth::plans::PlanList;
use caf_synth::{BroadbandPlan, Isp, StateWorld, SynthConfig, TruthTable, World};

use crate::sampling::{SamplingPlan, SamplingRule};

/// Configuration of a full audit ([`crate::pipeline::audit_config`] is
/// the paper's).
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// The synthetic-world configuration (seed + scale).
    pub synth: SynthConfig,
    /// The BQT campaign configuration.
    pub campaign: CampaignConfig,
    /// The per-CBG sampling rule.
    pub rule: SamplingRule,
    /// How many replacement rounds to run for non-definitive queries.
    pub resample_rounds: u32,
}

/// One analysis row: a definitive query outcome with its geography.
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// The queried address.
    pub address: AddressId,
    /// The audited ISP.
    pub isp: Isp,
    /// The state.
    pub state: UsState,
    /// The census block group.
    pub cbg: BlockGroupId,
    /// Total CAF addresses in the CBG (the aggregation weight).
    pub cbg_total: usize,
    /// The CBG's population density (people per square mile).
    pub density: f64,
    /// The CBG's within-state density percentile.
    pub density_pct: f64,
    /// The CBG centroid (Figure 10 mapping).
    pub centroid: LatLon,
    /// Whether the ISP serves the address.
    pub served: bool,
    /// Maximum advertised download speed, if served and specified.
    pub max_down_mbps: Option<f64>,
    /// Every advertised plan at the address (empty if unserved), highest
    /// tier first: the query outcome's list, borrowed when it is a
    /// catalog offer. The CAF conditions are met if *any* of them passes
    /// the speed and rate standards.
    pub plans: PlanList,
    /// Whether the site showed an existing-subscriber flow.
    pub existing_subscriber: bool,
}

impl AuditRow {
    /// The maximum-tier plan, if served.
    pub fn max_plan(&self) -> Option<&BroadbandPlan> {
        self.plans.first()
    }
}

/// Per-(ISP, CBG) coverage telemetry for Figures 7 and 8.
#[derive(Debug, Clone, Copy)]
pub struct CbgCoverage {
    /// The ISP.
    pub isp: Isp,
    /// The CBG.
    pub cbg: BlockGroupId,
    /// Total CAF addresses in the CBG.
    pub total: usize,
    /// Addresses queried (primary + replacements used).
    pub queried: usize,
    /// Addresses with definitive outcomes ("collected").
    pub collected: usize,
}

impl CbgCoverage {
    /// Percent of the CBG's addresses queried (Figure 7's x-axis).
    pub fn queried_pct(&self) -> f64 {
        100.0 * self.queried as f64 / self.total.max(1) as f64
    }

    /// Percent of the CBG's addresses collected (Figure 8's x-axis).
    pub fn collected_pct(&self) -> f64 {
        100.0 * self.collected as f64 / self.total.max(1) as f64
    }
}

/// The audit output.
#[derive(Debug)]
pub struct AuditDataset {
    /// Analysis rows (definitive outcomes only).
    pub rows: Vec<AuditRow>,
    /// Every query record, including failures and resample rounds.
    pub records: Vec<QueryRecord>,
    /// Per-(ISP, CBG) coverage.
    pub coverage: Vec<CbgCoverage>,
}

impl AuditDataset {
    /// Rows for one ISP.
    pub fn rows_for(&self, isp: Isp) -> impl Iterator<Item = &AuditRow> {
        self.rows.iter().filter(move |r| r.isp == isp)
    }

    /// Converts the analysis rows to a dataframe: `addr_id, isp, state,
    /// cbg, cbg_total, density, density_pct, served, max_down, price,
    /// guaranteed`.
    pub fn to_dataframe(&self) -> DataFrame {
        let n = self.rows.len();
        let mut addr = Vec::with_capacity(n);
        let mut isp = Vec::with_capacity(n);
        let mut state = Vec::with_capacity(n);
        let mut cbg = Vec::with_capacity(n);
        let mut cbg_total = Vec::with_capacity(n);
        let mut density = Vec::with_capacity(n);
        let mut density_pct = Vec::with_capacity(n);
        let mut served = Vec::with_capacity(n);
        let mut max_down: Vec<Option<f64>> = Vec::with_capacity(n);
        let mut price: Vec<Option<f64>> = Vec::with_capacity(n);
        let mut guaranteed: Vec<Option<bool>> = Vec::with_capacity(n);
        for r in &self.rows {
            addr.push(r.address.0 as i64);
            isp.push(r.isp.name());
            state.push(r.state.abbrev());
            cbg.push(r.cbg.to_string());
            cbg_total.push(r.cbg_total as i64);
            density.push(r.density);
            density_pct.push(r.density_pct);
            served.push(r.served);
            max_down.push(r.max_down_mbps);
            price.push(r.max_plan().map(|p| p.monthly_usd));
            guaranteed.push(r.max_plan().map(|p| p.speed_guaranteed));
        }
        DataFrame::new(vec![
            ("addr_id", addr.into_iter().collect::<Column>()),
            ("isp", isp.into_iter().collect::<Column>()),
            ("state", state.into_iter().collect::<Column>()),
            ("cbg", cbg.into_iter().collect::<Column>()),
            ("cbg_total", cbg_total.into_iter().collect::<Column>()),
            ("density", density.into_iter().collect::<Column>()),
            ("density_pct", density_pct.into_iter().collect::<Column>()),
            ("served", served.into_iter().collect::<Column>()),
            ("max_down", Column::Float(max_down)),
            ("price", Column::Float(price)),
            ("guaranteed", Column::Bool(guaranteed)),
        ])
        .expect("columns constructed with equal lengths")
    }
}

/// The audit runner.
#[derive(Debug, Clone, Copy)]
pub struct Audit {
    config: AuditConfig,
}

impl Audit {
    /// Creates an audit with the given configuration.
    pub fn new(config: AuditConfig) -> Audit {
        Audit { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Runs the audit over every state in the world, on the default
    /// (auto-sized) engine. Equivalent to `run_with(world,
    /// EngineConfig::default())` — and, by the engine's determinism
    /// contract, to the sequential loop.
    pub fn run(&self, world: &World) -> AuditDataset {
        self.run_with(world, EngineConfig::default())
    }

    /// Runs the audit over every state in the world with an explicit
    /// engine configuration. Output is byte-identical at any worker
    /// count.
    pub fn run_with(&self, world: &World, engine: EngineConfig) -> AuditDataset {
        let units: Vec<&StateWorld> = world.states.iter().collect();
        self.run_units(&units, &world.truth, engine)
    }

    /// Runs the audit over a subset of the world's states, in the order
    /// given (states missing from the world are skipped). Because every
    /// unit is a pure function of `(seed, state)`, this reproduces
    /// exactly what a world generated from only those states would
    /// yield — ablations reuse one shared world instead of regenerating
    /// subset worlds.
    pub fn run_for(&self, world: &World, states: &[UsState], engine: EngineConfig) -> AuditDataset {
        let units: Vec<&StateWorld> = states
            .iter()
            .filter_map(|&state| world.state(state))
            .collect();
        self.run_units(&units, &world.truth, engine)
    }

    /// Runs the per-state units on the engine pool — sharded by
    /// contiguous (ISP, CBG) cell ranges when a state's estimated query
    /// volume dominates the per-worker share — and assembles the
    /// dataset in unit order ([`AuditDataset::from_cells`]).
    fn run_units(
        &self,
        units: &[&StateWorld],
        truth: &TruthTable,
        engine: EngineConfig,
    ) -> AuditDataset {
        let plan = engine.plan(&self.unit_hints(units));
        Self::record_plan_gauges(engine, &plan);
        let _audit_span = caf_obs::span("audit");
        let cells = self.run_cells(units, truth, &plan);
        let _merge_span = caf_obs::span("merge");
        let dataset = AuditDataset::from_cells(cells);
        caf_obs::count("caf.core.audit.rows", dataset.rows.len() as u64);
        caf_obs::count("caf.core.audit.records", dataset.records.len() as u64);
        dataset
    }

    /// The one cell runner of the batch and incremental audits: runs
    /// every shard of `plan` (built by [`EngineConfig::plan`] or
    /// [`EngineConfig::plan_subset`] over [`Audit::unit_hints`]) and
    /// returns, per unit, the partials of the cells its shards covered,
    /// in cell order. The plan is the only pool: each shard's campaign
    /// runs one lane on the shard's own thread.
    pub(crate) fn run_cells(
        &self,
        units: &[&StateWorld],
        truth: &TruthTable,
        plan: &UnitPlan,
    ) -> Vec<Vec<StatePartial>> {
        let campaign = Campaign::new(CampaignConfig {
            workers: 1,
            ..self.config.campaign
        });
        map_units(plan, |shard| {
            self.audit_cells_each(&campaign, truth, units[shard.unit], shard.range.clone())
        })
        .into_iter()
        // Shards arrive in ascending cell order, each holding one
        // partial per cell.
        .map(|shards| shards.into_iter().flatten().collect())
        .collect()
    }

    /// The per-unit cost hints the batch and incremental audits plan
    /// with: a cell's cost is its primary sample size — the query
    /// volume the campaign will push through it. Read off the
    /// geography's per-CBG counts; neither planning nor the units build
    /// a USAC record (the sampler reads ids off the geography too).
    pub(crate) fn unit_hints(&self, units: &[&StateWorld]) -> Vec<CostHint> {
        units
            .iter()
            .map(|state_world| {
                CostHint::PerElement(
                    state_world
                        .geography
                        .caf_cells()
                        .into_iter()
                        .map(|cell| self.config.rule.sample_size(cell.count as usize) as u64)
                        .collect(),
                )
            })
            .collect()
    }

    /// Reports both sides of the worker clamp — `workers.configured` is
    /// what the caller asked for, `workers.effective` is what the plan's
    /// shard count can actually keep busy.
    pub(crate) fn record_plan_gauges(engine: EngineConfig, plan: &UnitPlan) {
        caf_obs::gauge("caf.core.engine.workers.configured", engine.workers as u64);
        caf_obs::gauge(
            "caf.core.engine.workers.effective",
            engine.for_plan(plan).workers as u64,
        );
        caf_obs::gauge("caf.core.engine.units", plan.unit_count() as u64);
    }

    /// One shard of a state's sample → query → resample loop, covering
    /// a contiguous (ISP, CBG) cell range — the whole state when the
    /// scheduler left the unit unsplit. Scheduling-independent by
    /// construction (every draw is keyed by seed + entity), with rows
    /// and records grouped **per cell, then per resample round**, so
    /// callers can reassemble the state's round-major stream across any
    /// shard decomposition *and* retain or replace individual cells
    /// (the incremental audit's unit of invalidation).
    ///
    /// Each cell's partial is independent of which shard computed it:
    /// sampling, querying, and resampling are per-cell (the replacement
    /// cursor never crosses cells), and within any round the shard's
    /// task stream is cell-major — so concatenating per-cell round
    /// groups in cell order reproduces the shard's record stream, and a
    /// cell recomputed alone differs from its in-shard computation only
    /// by absent trailing empty rounds, which the round-major merge
    /// erases.
    fn audit_cells_each(
        &self,
        campaign: &Campaign,
        truth: &TruthTable,
        state_world: &StateWorld,
        cells: std::ops::Range<usize>,
    ) -> Vec<StatePartial> {
        // On a pool worker the thread-local span stack is empty, so this
        // roots a per-state hierarchy (`state.VT/sample`, ...) no matter
        // which worker picked the unit (or shard) up.
        let _state_span = caf_obs::span_with(|| format!("state.{}", state_world.state.abbrev()));
        let plan = {
            let _span = caf_obs::span("sample");
            SamplingPlan::draw_cells(
                self.config.synth.seed,
                state_world,
                self.config.rule,
                cells.clone(),
            )
        };

        // Each sampled cell's CBG, for row construction.
        let cbgs = state_world.geography.caf_cell_cbgs();
        let cbgs = &cbgs[cells];

        // Round 0: primaries. Later rounds: replacements for cells
        // with non-definitive outcomes.
        let mut partials: Vec<StatePartial> = plan
            .cells
            .iter()
            .map(|_| StatePartial {
                rows_by_round: Vec::new(),
                records_by_round: Vec::new(),
                coverage: Vec::new(),
            })
            .collect();
        // The campaign returns records in task order, so each task's
        // cell rides beside it.
        let mut tasks: Vec<QueryTask> = Vec::new();
        let mut task_cells: Vec<usize> = Vec::new();
        for (cell_idx, cell) in plan.cells.iter().enumerate() {
            for &addr in &cell.primary {
                task_cells.push(cell_idx);
                tasks.push(QueryTask {
                    address: addr,
                    isp: cell.isp,
                });
            }
        }
        let mut queried_per_cell: Vec<usize> = plan.cells.iter().map(|c| c.primary.len()).collect();
        let mut collected_per_cell: Vec<usize> = vec![0; plan.cells.len()];
        let mut replacement_cursor: Vec<usize> = vec![0; plan.cells.len()];

        let mut round = 0;
        while !tasks.is_empty() {
            let _round_span = caf_obs::span(if round == 0 { "campaign" } else { "resample" });
            let result: CampaignResult = campaign.run(truth, &tasks);
            for partial in &mut partials {
                partial.rows_by_round.push(Vec::new());
                partial.records_by_round.push(Vec::new());
            }
            let mut next_tasks: Vec<QueryTask> = Vec::new();
            let mut next_cells: Vec<usize> = Vec::new();
            for (record, cell_idx) in result.records.into_iter().zip(task_cells) {
                let cell = &plan.cells[cell_idx];
                if record.outcome.is_definitive() {
                    collected_per_cell[cell_idx] += 1;
                    let (_, cbg) = cbgs[cell_idx];
                    let served = record.outcome.is_served().expect("definitive");
                    let (plans, subscriber) = match &record.outcome {
                        caf_bqt::QueryOutcome::Serviceable {
                            plans,
                            existing_subscriber,
                        } => (plans.clone(), *existing_subscriber),
                        _ => (PlanList::Borrowed(&[]), false),
                    };
                    partials[cell_idx].rows_by_round[round].push(AuditRow {
                        address: record.address,
                        isp: cell.isp,
                        state: state_world.state,
                        cbg: cell.cbg,
                        cbg_total: cbg.caf_addresses as usize,
                        density: cbg.density,
                        density_pct: cbg.density_pct,
                        centroid: cbg.centroid,
                        served,
                        max_down_mbps: record.outcome.max_download_mbps(),
                        plans,
                        existing_subscriber: subscriber,
                    });
                } else if (round as u32) < self.config.resample_rounds {
                    // Draw a replacement from the same CBG, if any left.
                    let cursor = &mut replacement_cursor[cell_idx];
                    if let Some(&replacement) = cell.replacements.get(*cursor) {
                        *cursor += 1;
                        queried_per_cell[cell_idx] += 1;
                        caf_obs::count("caf.core.audit.resampled", 1);
                        next_cells.push(cell_idx);
                        next_tasks.push(QueryTask {
                            address: replacement,
                            isp: cell.isp,
                        });
                    }
                }
                partials[cell_idx].records_by_round[round].push(record);
            }
            tasks = next_tasks;
            task_cells = next_cells;
            round += 1;
        }

        for (cell_idx, cell) in plan.cells.iter().enumerate() {
            partials[cell_idx].coverage.push(CbgCoverage {
                isp: cell.isp,
                cbg: cell.cbg,
                total: cell.total_addresses,
                queried: queried_per_cell[cell_idx],
                collected: collected_per_cell[cell_idx],
            });
        }

        partials
    }
}

impl AuditDataset {
    /// Assembles the dataset from each unit's cell partials, units in
    /// the given order and cells in cell order: per unit, all cells'
    /// round-0 rows and records, then round 1, and so on, with coverage
    /// in cell order.
    ///
    /// This reproduces the whole-state loop's record stream exactly: it
    /// emits records *round-major* (all of round 0 in cell order, then
    /// round 1, ...), every query record is a pure function of (seed,
    /// address, ISP), and replacements are drawn per cell — so the
    /// assembly is byte-identical at any worker count or shard policy,
    /// and for retained cells spliced beside refreshed ones. A cell
    /// without round `r` contributes nothing to it, which is exactly how
    /// a cell that ran out of resample work early behaves inside a
    /// bigger shard.
    pub(crate) fn from_cells(units: impl IntoIterator<Item = Vec<StatePartial>>) -> AuditDataset {
        let mut dataset = AuditDataset {
            rows: Vec::new(),
            records: Vec::new(),
            coverage: Vec::new(),
        };
        for mut cells in units {
            let rounds = cells.iter().map(|c| c.rows_by_round.len()).max();
            for round in 0..rounds.unwrap_or(0) {
                for cell in &mut cells {
                    if let Some(rows) = cell.rows_by_round.get_mut(round) {
                        dataset.rows.append(rows);
                    }
                    if let Some(records) = cell.records_by_round.get_mut(round) {
                        dataset.records.append(records);
                    }
                }
            }
            for cell in cells {
                dataset.coverage.extend(cell.coverage);
            }
        }
        dataset
    }
}

/// One cell's output: rows and records grouped by resample round (the
/// unsharded stream is round-major, so partials must be re-interleaved
/// per round) and the cell's coverage.
/// Cloneable so the incremental audit can retain clean cells across
/// epochs and materialize datasets without recomputing them.
#[derive(Debug, Clone)]
pub(crate) struct StatePartial {
    pub(crate) rows_by_round: Vec<Vec<AuditRow>>,
    pub(crate) records_by_round: Vec<Vec<QueryRecord>>,
    pub(crate) coverage: Vec<CbgCoverage>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_audit() -> (World, AuditDataset) {
        let synth = SynthConfig {
            seed: 55,
            scale: 40,
        };
        let world = World::generate_states(synth, &[UsState::Vermont, UsState::Utah]);
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..CampaignConfig::default()
            },
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let ds = audit.run(&world);
        (world, ds)
    }

    #[test]
    fn audit_produces_rows_and_coverage() {
        let (_, ds) = small_audit();
        assert!(!ds.rows.is_empty());
        assert!(!ds.coverage.is_empty());
        assert!(ds.records.len() >= ds.rows.len());
        // Every row is definitive by construction.
        for r in &ds.rows {
            if r.served {
                // Served rows may or may not specify a speed (Frontier's
                // Unknown Plan has none) but always carry a plan.
                assert!(r.max_plan().is_some());
            } else {
                assert!(r.max_plan().is_none());
                assert_eq!(r.max_down_mbps, None);
            }
        }
    }

    #[test]
    fn coverage_accounting_is_consistent() {
        let (_, ds) = small_audit();
        for cov in &ds.coverage {
            assert!(cov.collected <= cov.queried);
            assert!(cov.queried <= cov.total);
            assert!(cov.queried_pct() <= 100.0 + 1e-9);
            assert!(cov.collected_pct() <= cov.queried_pct() + 1e-9);
        }
        // Row counts reconcile with collected counts.
        let collected: usize = ds.coverage.iter().map(|c| c.collected).sum();
        assert_eq!(collected, ds.rows.len());
    }

    #[test]
    fn resampling_replaces_failures() {
        let (_, ds) = small_audit();
        // Some queries fail (Consolidated's high error rates), so some
        // cells must have queried more than their primary draw — visible
        // as records exceeding rows.
        assert!(
            ds.records.len() > ds.rows.len(),
            "expected non-definitive records triggering resamples"
        );
        // Replacement addresses are queried at most once each.
        let mut seen = std::collections::HashSet::new();
        for rec in &ds.records {
            assert!(seen.insert((rec.address, rec.isp)), "duplicate query");
        }
    }

    #[test]
    fn dataframe_export_matches_rows() {
        let (_, ds) = small_audit();
        let df = ds.to_dataframe();
        assert_eq!(df.n_rows(), ds.rows.len());
        let served_count = ds.rows.iter().filter(|r| r.served).count();
        let df_served = df.filter(|r| r.bool("served") == Some(true)).n_rows();
        assert_eq!(served_count, df_served);
    }

    #[test]
    fn audit_is_deterministic() {
        let (_, a) = small_audit();
        let (_, b) = small_audit();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.address, y.address);
            assert_eq!(x.served, y.served);
            assert_eq!(x.max_down_mbps, y.max_down_mbps);
        }
    }

    fn datasets_equal(a: &AuditDataset, b: &AuditDataset) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.to_dataframe().to_csv(), b.to_dataframe().to_csv());
        assert_eq!(a.coverage.len(), b.coverage.len());
        for (x, y) in a.coverage.iter().zip(&b.coverage) {
            assert_eq!(
                (x.isp, x.cbg, x.total, x.queried, x.collected),
                (y.isp, y.cbg, y.total, y.queried, y.collected)
            );
        }
    }

    #[test]
    fn engine_workers_do_not_change_output() {
        let synth = SynthConfig {
            seed: 55,
            scale: 40,
        };
        let world = World::generate_states(synth, &[UsState::Vermont, UsState::Utah]);
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..CampaignConfig::default()
            },
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let serial = audit.run_with(&world, caf_exec::EngineConfig::serial());
        let parallel = audit.run_with(&world, caf_exec::EngineConfig::with_workers(4));
        datasets_equal(&serial, &parallel);
    }

    #[test]
    fn shard_policies_do_not_change_output() {
        use caf_exec::ShardPolicy;
        let synth = SynthConfig {
            seed: 55,
            scale: 40,
        };
        let world = World::generate_states(synth, &[UsState::Vermont, UsState::Utah]);
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..CampaignConfig::default()
            },
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let baseline = audit.run_with(
            &world,
            caf_exec::EngineConfig::serial().with_shard_policy(ShardPolicy::disabled()),
        );
        for policy in [ShardPolicy::default_policy(), ShardPolicy::finest()] {
            for workers in [1usize, 4] {
                let sharded = audit.run_with(
                    &world,
                    caf_exec::EngineConfig::with_workers(workers).with_shard_policy(policy),
                );
                datasets_equal(&baseline, &sharded);
            }
        }
    }

    #[test]
    fn run_for_matches_a_subset_world() {
        let synth = SynthConfig {
            seed: 55,
            scale: 40,
        };
        let full = World::generate_states(synth, &[UsState::Vermont, UsState::Utah]);
        let subset = World::generate_states(synth, &[UsState::Utah]);
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: CampaignConfig {
                seed: synth.seed,
                workers: 2,
                ..CampaignConfig::default()
            },
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let via_run_for = audit.run_for(&full, &[UsState::Utah], caf_exec::EngineConfig::serial());
        let via_subset_world = audit.run(&subset);
        datasets_equal(&via_run_for, &via_subset_world);
        // Unknown states are skipped, not errors.
        let none = audit.run_for(&full, &[UsState::Georgia], caf_exec::EngineConfig::serial());
        assert!(none.rows.is_empty() && none.records.is_empty());
    }
}
