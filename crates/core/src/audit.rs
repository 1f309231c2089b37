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
use caf_exec::{map_units, CostHint, EngineConfig, UnitPlan};
use caf_geo::{AddressId, BlockGroupId, LatLon, UsState};
use caf_synth::plans::PlanList;
use caf_synth::{BroadbandPlan, Isp, StateWorld, SynthConfig, TruthTable, World};
use std::sync::Arc;

use crate::csv::{CsvWriter, Opt};
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

/// One analysis row: the per-address fields of a definitive query
/// outcome. The ISP, state, CBG and CBG metadata it shares with every
/// other row of its cell live once, on the cell's [`CellMeta`].
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// The queried address.
    pub address: AddressId,
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

/// What every row of one (ISP, CBG) cell shares: the audited ISP and the
/// CBG's metadata.
#[derive(Debug, Clone, Copy)]
pub struct CellMeta {
    /// The ISP.
    pub isp: Isp,
    /// The state (redundant with the CBG's GEOID prefix, kept unpacked).
    pub state: UsState,
    /// The census block group.
    pub cbg: BlockGroupId,
    /// The CBG's total CAF addresses — the §4.1 aggregation weight.
    pub weight: f64,
    /// CBG population density (people per square mile).
    pub density: f64,
    /// CBG within-state density percentile.
    pub density_pct: f64,
    /// CBG centroid (Figure 10 mapping).
    pub centroid: LatLon,
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

/// One audited (ISP, CBG) cell: the unit the audit computes, the
/// incremental audit replaces and the index orders. Its rows and records
/// are each one vector, in resample-round order, with the end offset of
/// every round the cell took part in (a cell's rounds are always a
/// prefix: a round's replacements come from the round before).
#[derive(Debug)]
pub struct AuditCell {
    /// The metadata every row of the cell shares.
    pub meta: CellMeta,
    /// The cell's coverage counters.
    pub coverage: CbgCoverage,
    rows: Vec<AuditRow>,
    records: Vec<QueryRecord>,
    row_ends: Vec<u32>,
    record_ends: Vec<u32>,
}

impl AuditCell {
    /// An empty cell before its first round, sized for its primaries
    /// (`coverage.queried`).
    fn new(meta: CellMeta, coverage: CbgCoverage) -> AuditCell {
        AuditCell {
            meta,
            coverage,
            rows: Vec::with_capacity(coverage.queried),
            records: Vec::with_capacity(coverage.queried),
            row_ends: Vec::new(),
            record_ends: Vec::new(),
        }
    }

    /// Closes the current round, if the cell queried anything in it.
    fn end_round(&mut self) {
        if self.records.len() > self.record_ends.last().map_or(0, |&end| end as usize) {
            self.row_ends.push(self.rows.len() as u32);
            self.record_ends.push(self.records.len() as u32);
        }
    }

    /// The definitive rows, round by round.
    pub fn rows(&self) -> &[AuditRow] {
        &self.rows
    }

    /// Every query record, round by round.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of definitive rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the cell has no definitive row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// How many of the rows are served.
    pub fn served_rows(&self) -> usize {
        self.rows.iter().filter(|row| row.served).count()
    }

    /// The serviceability rate: served rows over definitive rows.
    pub fn serviceability_rate(&self) -> f64 {
        self.served_rows() as f64 / self.len() as f64
    }

    fn round_rows(&self, round: usize) -> &[AuditRow] {
        round_slice(&self.rows, &self.row_ends, round)
    }

    fn round_records(&self, round: usize) -> &[QueryRecord] {
        round_slice(&self.records, &self.record_ends, round)
    }
}

/// The items of round `round`, given each round's end offset (empty past
/// the last round).
fn round_slice<'a, T>(items: &'a [T], ends: &[u32], round: usize) -> &'a [T] {
    let end = |r: usize| ends.get(r).map_or(items.len(), |&end| end as usize);
    let start = if round == 0 { 0 } else { end(round - 1) };
    &items[start..end(round)]
}

/// The audit output: per audited state, in audit order, that state's
/// cells in `geography.caf_cells()` order (sorted by ISP, then CBG).
///
/// The cells are the storage. The whole-state stream a single loop over
/// the state would emit is *round-major* (every cell's round-0 items in
/// cell order, then round 1, ...); [`rows`](AuditDataset::rows) and
/// [`records`](AuditDataset::records) walk it without copying anything.
/// Every query record is a pure function of (seed, address, ISP) and
/// replacements are drawn per cell, so that walk is the same at any
/// worker count or shard policy, and with refreshed cells beside
/// retained ones. Cloning a dataset clones cell pointers.
#[derive(Debug, Clone, Default)]
pub struct AuditDataset {
    pub(crate) states: Vec<Vec<Arc<AuditCell>>>,
}

impl AuditDataset {
    /// Every cell, state by state in audit order, each state's cells in
    /// cell order.
    pub fn cells(&self) -> impl Iterator<Item = &Arc<AuditCell>> {
        self.states.iter().flatten()
    }

    /// Analysis rows (definitive outcomes only), each with its cell's
    /// metadata, in round-major order.
    pub fn rows(&self) -> impl Iterator<Item = (&CellMeta, &AuditRow)> {
        self.round_major(AuditCell::round_rows)
            .map(|(cell, row)| (&cell.meta, row))
    }

    /// Every query record, including failures and resample rounds, in
    /// round-major order.
    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.round_major(AuditCell::round_records)
            .map(|(_, record)| record)
    }

    /// Per-(ISP, CBG) coverage, in cell order.
    pub fn coverage(&self) -> impl Iterator<Item = &CbgCoverage> {
        self.cells().map(|cell| &cell.coverage)
    }

    /// Number of analysis rows.
    pub fn row_count(&self) -> usize {
        self.cells().map(|cell| cell.rows.len()).sum()
    }

    /// Number of query records.
    pub fn record_count(&self) -> usize {
        self.cells().map(|cell| cell.records.len()).sum()
    }

    /// Rows for one ISP, in round-major order.
    pub fn rows_for(&self, isp: Isp) -> impl Iterator<Item = &AuditRow> {
        self.rows()
            .filter(move |(meta, _)| meta.isp == isp)
            .map(|(_, row)| row)
    }

    /// Per state: every round, every cell's items of that round.
    fn round_major<'a, T: 'a>(
        &'a self,
        part: fn(&'a AuditCell, usize) -> &'a [T],
    ) -> impl Iterator<Item = (&'a AuditCell, &'a T)> + 'a {
        self.states.iter().flat_map(move |cells| {
            let rounds = cells.iter().map(|cell| cell.record_ends.len()).max();
            (0..rounds.unwrap_or(0)).flat_map(move |round| {
                cells
                    .iter()
                    .flat_map(move |cell| part(cell, round).iter().map(move |item| (&**cell, item)))
            })
        })
    }

    /// The analysis rows as CSV, in round-major order: `addr_id, isp,
    /// state, cbg, cbg_total, density, density_pct, served, max_down,
    /// price, guaranteed` (the last three empty for an unserved row).
    pub fn to_csv(&self) -> String {
        let mut csv = CsvWriter::new(&[
            "addr_id",
            "isp",
            "state",
            "cbg",
            "cbg_total",
            "density",
            "density_pct",
            "served",
            "max_down",
            "price",
            "guaranteed",
        ]);
        for (meta, r) in self.rows() {
            let plan = r.max_plan();
            csv.row(&[
                &r.address.0,
                &meta.isp.name(),
                &meta.state.abbrev(),
                &meta.cbg,
                &(meta.weight as i64),
                &meta.density,
                &meta.density_pct,
                &r.served,
                &Opt(r.max_down_mbps),
                &Opt(plan.map(|p| p.monthly_usd)),
                &Opt(plan.map(|p| p.speed_guaranteed)),
            ]);
        }
        csv.finish()
    }
}

#[cfg(test)]
impl AuditDataset {
    /// A one-state dataset of hand-built cells, each one round of rows
    /// and no records.
    pub(crate) fn hand_built(cells: Vec<(CellMeta, CbgCoverage, Vec<AuditRow>)>) -> AuditDataset {
        let cells = cells
            .into_iter()
            .map(|(meta, coverage, rows)| {
                let mut cell = AuditCell::new(meta, coverage);
                cell.rows = rows;
                cell.row_ends.push(cell.rows.len() as u32);
                cell.record_ends.push(0);
                Arc::new(cell)
            })
            .collect();
        AuditDataset {
            states: vec![cells],
        }
    }

    /// [`AuditDataset::hand_built`] from hand-built rows: a cell per
    /// distinct (ISP, CBG) in first-appearance order, with its first
    /// row's metadata and every row collected.
    pub(crate) fn from_rows(rows: Vec<(CellMeta, AuditRow)>) -> AuditDataset {
        let mut cells: Vec<(CellMeta, CbgCoverage, Vec<AuditRow>)> = Vec::new();
        for (meta, row) in rows {
            let key = (meta.isp, meta.cbg);
            let at = match cells.iter().position(|(m, ..)| (m.isp, m.cbg) == key) {
                Some(at) => at,
                None => {
                    let coverage = CbgCoverage {
                        isp: meta.isp,
                        cbg: meta.cbg,
                        total: meta.weight as usize,
                        queried: 0,
                        collected: 0,
                    };
                    cells.push((meta, coverage, Vec::new()));
                    cells.len() - 1
                }
            };
            let (_, coverage, cell_rows) = &mut cells[at];
            coverage.queried += 1;
            coverage.collected += 1;
            cell_rows.push(row);
        }
        AuditDataset::hand_built(cells)
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
    /// volume dominates the per-worker share — and keeps their cells in
    /// unit order.
    fn run_units(
        &self,
        units: &[&StateWorld],
        truth: &TruthTable,
        engine: EngineConfig,
    ) -> AuditDataset {
        let plan = engine.plan(&self.unit_hints(units));
        Self::record_plan_gauges(engine, &plan);
        let _audit_span = caf_obs::span("audit");
        let dataset = AuditDataset {
            states: self.run_cells(units, truth, &plan),
        };
        caf_obs::count("caf.core.audit.rows", dataset.row_count() as u64);
        caf_obs::count("caf.core.audit.records", dataset.record_count() as u64);
        dataset
    }

    /// The one cell runner of the batch and incremental audits: runs
    /// every shard of `plan` (built by [`EngineConfig::plan`] or
    /// [`EngineConfig::plan_subset`] over [`Audit::unit_hints`]) and
    /// returns, per unit, the cells its shards covered, in cell order.
    /// The plan is the only pool: each shard's campaign runs one lane on
    /// the shard's own thread.
    pub(crate) fn run_cells(
        &self,
        units: &[&StateWorld],
        truth: &TruthTable,
        plan: &UnitPlan,
    ) -> Vec<Vec<Arc<AuditCell>>> {
        let campaign = Campaign::new(CampaignConfig {
            workers: 1,
            ..self.config.campaign
        });
        map_units(plan, |shard| {
            self.audit_cells_each(&campaign, truth, units[shard.unit], shard.range.clone())
        })
        .into_iter()
        // Shards arrive in ascending cell order, each holding its cells.
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
    /// and records kept **per cell, in resample-round order**, so the
    /// dataset can walk the state's round-major stream across any shard
    /// decomposition *and* the incremental audit can retain or replace
    /// individual cells (its unit of invalidation).
    ///
    /// Each cell is independent of which shard computed it: sampling,
    /// querying, and resampling are per-cell (the replacement cursor
    /// never crosses cells), within any round the shard's task stream is
    /// cell-major, and a cell records only the rounds it queried in.
    fn audit_cells_each(
        &self,
        campaign: &Campaign,
        truth: &TruthTable,
        state_world: &StateWorld,
        cells: std::ops::Range<usize>,
    ) -> Vec<Arc<AuditCell>> {
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

        // Each sampled cell's CBG, for its metadata.
        let cbgs = state_world.geography.caf_cell_cbgs();
        let mut out: Vec<AuditCell> = plan
            .cells
            .iter()
            .zip(&cbgs[cells])
            .map(|(cell, (_, cbg))| {
                let meta = CellMeta {
                    isp: cell.isp,
                    state: state_world.state,
                    cbg: cell.cbg,
                    weight: f64::from(cbg.caf_addresses),
                    density: cbg.density,
                    density_pct: cbg.density_pct,
                    centroid: cbg.centroid,
                };
                let coverage = CbgCoverage {
                    isp: cell.isp,
                    cbg: cell.cbg,
                    total: cell.total_addresses,
                    queried: cell.primary.len(),
                    collected: 0,
                };
                AuditCell::new(meta, coverage)
            })
            .collect();

        // Round 0: primaries. Later rounds: replacements for cells
        // with non-definitive outcomes. The campaign returns records in
        // task order, so each task's cell rides beside it.
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
        let mut replacement_cursor: Vec<usize> = vec![0; plan.cells.len()];

        let mut round = 0;
        while !tasks.is_empty() {
            let _round_span = caf_obs::span(if round == 0 { "campaign" } else { "resample" });
            let result: CampaignResult = campaign.run(truth, &tasks);
            let mut next_tasks: Vec<QueryTask> = Vec::new();
            let mut next_cells: Vec<usize> = Vec::new();
            for (record, cell_idx) in result.records.into_iter().zip(task_cells) {
                let cell = &plan.cells[cell_idx];
                let audited = &mut out[cell_idx];
                if record.outcome.is_definitive() {
                    audited.coverage.collected += 1;
                    let served = record.outcome.is_served().expect("definitive");
                    let (plans, subscriber) = match &record.outcome {
                        caf_bqt::QueryOutcome::Serviceable {
                            plans,
                            existing_subscriber,
                        } => (plans.clone(), *existing_subscriber),
                        _ => (PlanList::Borrowed(&[]), false),
                    };
                    audited.rows.push(AuditRow {
                        address: record.address,
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
                        audited.coverage.queried += 1;
                        caf_obs::count("caf.core.audit.resampled", 1);
                        next_cells.push(cell_idx);
                        next_tasks.push(QueryTask {
                            address: replacement,
                            isp: cell.isp,
                        });
                    }
                }
                audited.records.push(record);
            }
            out.iter_mut().for_each(AuditCell::end_round);
            tasks = next_tasks;
            task_cells = next_cells;
            round += 1;
        }

        out.into_iter()
            .map(|mut cell| {
                cell.rows.shrink_to_fit();
                cell.records.shrink_to_fit();
                Arc::new(cell)
            })
            .collect()
    }
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
        assert!(ds.row_count() > 0);
        assert!(ds.coverage().next().is_some());
        assert!(ds.record_count() >= ds.row_count());
        // Every row is definitive by construction.
        for (_, r) in ds.rows() {
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
        for cov in ds.coverage() {
            assert!(cov.collected <= cov.queried);
            assert!(cov.queried <= cov.total);
            assert!(cov.queried_pct() <= 100.0 + 1e-9);
            assert!(cov.collected_pct() <= cov.queried_pct() + 1e-9);
        }
        // Row counts reconcile with collected counts.
        let collected: usize = ds.coverage().map(|c| c.collected).sum();
        assert_eq!(collected, ds.row_count());
        assert_eq!(ds.rows().count(), ds.row_count());
        assert_eq!(ds.records().count(), ds.record_count());
    }

    #[test]
    fn resampling_replaces_failures() {
        let (_, ds) = small_audit();
        // Some queries fail (Consolidated's high error rates), so some
        // cells must have queried more than their primary draw — visible
        // as records exceeding rows.
        assert!(
            ds.record_count() > ds.row_count(),
            "expected non-definitive records triggering resamples"
        );
        // Replacement addresses are queried at most once each.
        let mut seen = std::collections::HashSet::new();
        for rec in ds.records() {
            assert!(seen.insert((rec.address, rec.isp)), "duplicate query");
        }
    }

    #[test]
    fn dataframe_export_matches_rows() {
        let (_, ds) = small_audit();
        let csv = ds.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        let served = header
            .iter()
            .position(|&n| n == "served")
            .expect("served column");
        let rows: Vec<Vec<&str>> = lines.map(|line| line.split(',').collect()).collect();
        assert_eq!(rows.len(), ds.row_count());
        let served_count = ds.rows().filter(|(_, r)| r.served).count();
        let csv_served = rows.iter().filter(|row| row[served] == "true").count();
        assert_eq!(served_count, csv_served);
    }

    #[test]
    fn audit_is_deterministic() {
        let (_, a) = small_audit();
        let (_, b) = small_audit();
        assert_eq!(a.row_count(), b.row_count());
        for ((_, x), (_, y)) in a.rows().zip(b.rows()) {
            assert_eq!(x.address, y.address);
            assert_eq!(x.served, y.served);
            assert_eq!(x.max_down_mbps, y.max_down_mbps);
        }
    }

    fn datasets_equal(a: &AuditDataset, b: &AuditDataset) {
        assert!(a.records().eq(b.records()));
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.coverage().count(), b.coverage().count());
        for (x, y) in a.coverage().zip(b.coverage()) {
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
        assert!(none.row_count() == 0 && none.record_count() == 0);
    }
}
