//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>... [--scale N] [--seed N] [--workers N|auto]
//!                       [--shard-threshold N] [--metrics FILE]
//!                       [--artifacts DIR] [--quiet]
//! repro all [--scale N]
//! ```
//!
//! `--workers` is the run's one thread budget. It sizes every pool —
//! world generation, the per-state audit, the Q3 analysis, the
//! sensitivity sweep, the BQT campaigns that run on their own and
//! bootstrap resampling (default: one per core via `auto`; each stage
//! clamps to its unit count at run time). A campaign inside an audit or
//! Q3 unit runs one lane, so no pool ever has more lanes than
//! `--workers`. The engine's determinism contract guarantees the
//! numbers below are identical at every worker count — only wall-clock
//! time changes.
//!
//! `--shard-threshold N` tunes the cost-aware shard planner: a unit
//! whose estimated cost exceeds `N` percent of the ideal per-worker
//! share is split into sub-unit shards (`0` disables sharding; default
//! 25 — see DESIGN.md §2.1). The flag takes precedence over the
//! `CAF_SHARD_THRESHOLD` environment variable and, like `--workers`,
//! can only move wall-clock time, never results.
//!
//! `--metrics FILE` turns on the `caf-obs` telemetry layer and writes a
//! machine-readable run report (spans, counters, gauges, histograms —
//! see DESIGN.md's Observability section) to `FILE` after the last
//! experiment, plus a human-readable summary table on stderr. Telemetry
//! is observation-only: outputs are byte-identical with or without it.
//! On Linux the report carries the process's peak resident set as the
//! `caf.process.peak_rss_kb` gauge. `--quiet` suppresses progress lines
//! and the summary table.
//!
//! `--artifacts DIR` additionally writes the canonical JSON artifacts
//! (`caf_core::artifact`) for every fixture the run built. `caf-serve`
//! returns these exact bytes over HTTP; the `ci.sh` serve gate diffs
//! the two.
//!
//! Experiments: `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! table1 table2 table3 table4 rates summary ablate-weights
//! ablate-sampling ablate-retry ablate-granularity ext-experienced
//! ext-oversight ext-bead ext-carriage ext-ci ext-competition dump
//! validate`. `dump` writes CSVs under `repro_artifacts/`; `validate`
//! prints the shape checks and exits 1 if one fails.
//!
//! Each reported number is one `caf_core` value (`Table2`, `Table3`,
//! `Q3Summary`, `EfficacyReport`), computed once; the printers here and
//! `caf_core::artifact` both read it.
//!
//! Absolute numbers come from the calibrated synthetic world; the *shape*
//! (orderings, approximate magnitudes, crossovers) is the reproduction
//! target — see EXPERIMENTS.md for paper-vs-measured.

use caf_bench::{format_cdf, format_pairs, pct};
use caf_core::compliance::SpeedBand;
use caf_core::coverage::CoverageSeries;
use caf_core::csv::dump_files;
use caf_core::pipeline::{self, campaign_config, Scenario};
use caf_core::q3::{outcome_split, BlockComparison, BlockType, Q3Summary, Uplift};
use caf_core::report::{Table2, Table3, Volume};
use caf_core::sensitivity::SensitivityAnalysis;
use caf_core::{
    Audit, AuditConfig, EfficacyReport, EngineConfig, Q3Analysis, SamplingRule,
    ServiceabilityAnalysis, ShardPolicy,
};
use caf_geo::UsState;
use caf_obs::RunReport;
use caf_stats::{median, quantile, UrbanRateBenchmark};
use caf_synth::params::{CalibrationParams, ErrorCategory};
use caf_synth::usac::NationalCafSummary;
use caf_synth::{Isp, Q3World, SynthConfig, World};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};

const ALL: &[&str] = &[
    "fig1",
    "table3",
    "fig2",
    "fig3",
    "fig10",
    "table1",
    "rates",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "fig11",
    "summary",
    "ablate-weights",
    "ablate-sampling",
    "ablate-retry",
    "ablate-granularity",
    "ext-experienced",
    "ext-oversight",
    "ext-bead",
    "ext-carriage",
    "ext-ci",
    "ext-competition",
    "dump",
    "validate",
];

struct Options {
    experiments: Vec<String>,
    seed: u64,
    scale: u32,
    q3_scale: u32,
    engine: EngineConfig,
    metrics: Option<std::path::PathBuf>,
    artifacts: Option<std::path::PathBuf>,
    quiet: bool,
}

/// Suppresses progress lines and the telemetry summary (`--quiet`).
static QUIET: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Prints a `[repro]` progress line on stderr unless `--quiet`.
fn progress(message: std::fmt::Arguments<'_>) {
    if !QUIET.load(std::sync::atomic::Ordering::Relaxed) {
        eprintln!("[repro] {message}");
    }
}

fn parse_args() -> Options {
    let mut experiments = Vec::new();
    let mut seed = 0xCAF_2024;
    let mut scale = 30;
    let mut q3_scale = 10;
    let mut engine = EngineConfig::default();
    let mut shard: Option<ShardPolicy> = None;
    let mut metrics = None;
    let mut artifacts = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs an integer"));
                q3_scale = scale.max(8);
            }
            "--q3-scale" => {
                q3_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--q3-scale needs an integer"));
            }
            "--workers" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| die("--workers needs an integer or `auto`"));
                engine = if value == "auto" {
                    EngineConfig::auto()
                } else {
                    EngineConfig::with_workers(
                        value
                            .parse()
                            .unwrap_or_else(|_| die("--workers needs an integer or `auto`")),
                    )
                };
            }
            "--shard-threshold" => {
                let value = args.next().unwrap_or_else(|| {
                    die("--shard-threshold needs an integer percent (0 disables sharding)")
                });
                if value.trim().parse::<u32>().is_err() {
                    die("--shard-threshold needs an integer percent (0 disables sharding)");
                }
                shard = Some(ShardPolicy::from_env_value(Some(&value)));
            }
            "--metrics" => {
                metrics = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--metrics needs a file path")),
                ));
            }
            "--artifacts" => {
                artifacts =
                    Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| {
                        die("--artifacts needs a directory path")
                    })));
            }
            "--quiet" => quiet = true,
            "all" => experiments.extend(ALL.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "repro <experiment>... [--scale N] [--seed N] [--workers N|auto] \
                     [--shard-threshold N] [--metrics FILE] [--artifacts DIR] [--quiet]"
                );
                println!("experiments: {}", ALL.join(" "));
                std::process::exit(0);
            }
            other if ALL.contains(&other) => experiments.push(other.to_string()),
            other => die(&format!("unknown experiment {other:?}; see --help")),
        }
    }
    if experiments.is_empty() {
        die("no experiment given; try `repro all` or see --help");
    }
    // Applied after the loop so the flag wins regardless of whether it
    // appears before or after `--workers` (which rebuilds the engine).
    if let Some(policy) = shard {
        engine = engine.with_shard_policy(policy);
    }
    Options {
        experiments,
        seed,
        scale,
        q3_scale,
        engine,
        metrics,
        artifacts,
        quiet,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Lazily-built shared state so single-experiment runs stay fast. The
/// fixtures live in `OnceCell`s: each is built at most once, and an
/// experiment can hold both.
struct Lazy {
    seed: u64,
    scale: u32,
    q3_scale: u32,
    engine: EngineConfig,
    fixture: OnceCell<Scenario>,
    q3: OnceCell<(World, Q3Analysis)>,
}

impl Lazy {
    fn new(options: &Options) -> Lazy {
        Lazy {
            seed: options.seed,
            scale: options.scale,
            q3_scale: options.q3_scale,
            engine: options.engine,
            fixture: OnceCell::new(),
            q3: OnceCell::new(),
        }
    }

    fn synth(&self, scale: u32) -> SynthConfig {
        SynthConfig {
            seed: self.seed,
            scale,
        }
    }

    fn fixture(&self) -> &Scenario {
        self.fixture.get_or_init(|| {
            progress(format_args!(
                "building Q1/Q2 fixture (seed {}, scale 1:{}, {} engine workers) ...",
                self.seed, self.scale, self.engine.workers
            ));
            Scenario::build(
                self.synth(self.scale),
                &UsState::study_states(),
                self.engine,
                campaign_config(self.seed, self.engine),
                &[],
            )
            .expect("an empty delta stream cannot fail validation")
        })
    }

    fn q3(&self) -> &(World, Q3Analysis) {
        self.q3.get_or_init(|| {
            progress(format_args!(
                "building Q3 fixture (seed {}, scale 1:{}) ...",
                self.seed, self.q3_scale
            ));
            pipeline::build_q3(
                self.synth(self.q3_scale),
                self.engine,
                campaign_config(self.seed, self.engine),
            )
        })
    }
}

fn main() {
    let options = parse_args();
    QUIET.store(options.quiet, std::sync::atomic::Ordering::Relaxed);
    if options.metrics.is_some() {
        caf_obs::set_enabled(true);
    }
    let lazy = Lazy::new(&options);
    for experiment in &options.experiments {
        println!("\n################ {experiment} ################");
        match experiment.as_str() {
            "fig1" => fig1(options.seed),
            "table3" => table3(lazy.fixture()),
            "fig2" => fig2(lazy.fixture()),
            "fig3" => fig3(lazy.fixture()),
            "fig10" => fig10(lazy.fixture()),
            "table1" => table1(lazy.fixture()),
            "rates" => rates(lazy.fixture()),
            "table4" => table4(lazy.q3()),
            "fig4" => fig4(&lazy.q3().1),
            "fig5" => fig5(&lazy.q3().1),
            "fig6" => fig6(&lazy.q3().1),
            "fig7" => fig7(lazy.fixture()),
            "fig8" => fig8(lazy.fixture()),
            "table2" => table2(lazy.fixture()),
            "fig9" => fig9(options.seed, options.scale, options.engine),
            "fig11" => fig11(lazy.fixture()),
            "summary" => summary(&lazy),
            "ablate-weights" => ablate_weights(lazy.fixture()),
            "ablate-sampling" => ablate_sampling(&lazy),
            "ablate-retry" => ablate_retry(&lazy),
            "ablate-granularity" => ablate_granularity(&lazy),
            "ext-experienced" => ext_experienced(options.seed, options.scale, options.engine),
            "ext-oversight" => ext_oversight(options.seed, options.scale, options.engine),
            "ext-bead" => ext_bead(lazy.fixture()),
            "ext-carriage" => ext_carriage(&lazy.q3().1),
            "ext-ci" => ext_ci(lazy.fixture()),
            "ext-competition" => ext_competition(&lazy.q3().1),
            "dump" => dump(lazy.fixture()),
            "validate" => validate(&lazy),
            other => die(&format!("unhandled experiment {other}")),
        }
    }
    if let Some(dir) = &options.artifacts {
        write_artifacts(dir, &options, &lazy);
    }
    if let Some(path) = &options.metrics {
        write_metrics(path, &options);
    }
}

/// Writes the canonical JSON artifacts (see `caf_core::artifact`) for
/// every fixture the run materialized: `serviceability.json`,
/// `compliance.json`, and `table2.json` when the Q1/Q2 fixture was
/// built, `q3.json` when the Q3 fixture was. These are the golden files
/// the `ci.sh` serve gate byte-diffs against `caf-serve` responses —
/// the determinism-over-HTTP contract.
fn write_artifacts(dir: &std::path::Path, options: &Options, lazy: &Lazy) {
    use caf_core::artifact;
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir:?}: {e}")));
    let meta = artifact::ScenarioMeta {
        seed: options.seed,
        scale: options.scale,
        q3_scale: options.q3_scale,
        epoch: 0,
    };
    let write = |name: &str, body: caf_obs::json::Json| {
        let path = dir.join(format!("{name}.json"));
        let bytes = artifact::to_canonical_bytes(&meta.wrap(body));
        std::fs::write(&path, bytes).unwrap_or_else(|e| die(&format!("write {path:?}: {e}")));
        progress(format_args!("wrote artifact {}", path.display()));
    };
    if let Some(fixture) = lazy.fixture.get() {
        write(
            "serviceability",
            artifact::serviceability(&fixture.serviceability, None),
        );
        write(
            "compliance",
            artifact::compliance(&fixture.compliance, &fixture.dataset, None),
        );
        write("table2", artifact::table2(&fixture.dataset));
    }
    if let Some((_, q3)) = lazy.q3.get() {
        write("q3", artifact::q3(q3));
    }
    if lazy.fixture.get().is_none() && lazy.q3.get().is_none() {
        progress(format_args!(
            "no fixtures were built; nothing to write under {}",
            dir.display()
        ));
    }
}

/// Collects the telemetry gathered during the run into a [`RunReport`],
/// writes it to `path` as pretty-printed JSON, and prints the
/// human-readable summary table on stderr (unless `--quiet`).
fn write_metrics(path: &std::path::Path, options: &Options) {
    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "repro".to_string());
    meta.insert("seed".to_string(), options.seed.to_string());
    meta.insert("scale".to_string(), options.scale.to_string());
    meta.insert("q3_scale".to_string(), options.q3_scale.to_string());
    meta.insert("workers".to_string(), options.engine.workers.to_string());
    meta.insert("experiments".to_string(), options.experiments.join(","));
    if let Some(kb) = peak_rss_kb() {
        caf_obs::gauge("caf.process.peak_rss_kb", kb);
    }
    let report = RunReport::collect(meta);
    if let Err(error) = std::fs::write(path, report.to_json_pretty()) {
        die(&format!("cannot write {}: {error}", path.display()));
    }
    progress(format_args!("wrote run report to {}", path.display()));
    if !QUIET.load(std::sync::atomic::Ordering::Relaxed) {
        eprint!("{}", report.summary_table());
    }
}

/// The process's peak resident set in KiB: `VmHWM` of
/// `/proc/self/status`, which only Linux has.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

// ---------------------------------------------------------------- fig 1

fn fig1(seed: u64) {
    let summary = NationalCafSummary::build(&SynthConfig { seed, scale: 1 });
    println!("Figure 1a/1d — top-20 states by CAF addresses and funds");
    println!("{:<6} {:>12} {:>14}", "state", "addresses", "funds ($M)");
    for (state, addresses, funds) in summary.by_state.iter().take(20) {
        println!(
            "{:<6} {:>12} {:>14.1}",
            state.abbrev(),
            addresses,
            funds / 1e6
        );
    }
    let top20: u64 = summary.by_state.iter().take(20).map(|(_, a, _)| a).sum();
    println!(
        "top-20 share of addresses: {}",
        pct(top20 as f64 / NationalCafSummary::TOTAL_ADDRESSES as f64)
    );

    println!(
        "\nFigure 1b/1e — top-10 ISPs by CAF addresses and funds ({} ISPs total)",
        summary.by_isp.len()
    );
    println!("{:<22} {:>12} {:>14}", "isp", "addresses", "funds ($M)");
    for (name, addresses, funds) in summary.by_isp.iter().take(10) {
        println!("{name:<22} {addresses:>12} {:>14.1}", funds / 1e6);
    }
    let top4: u64 = summary.by_isp.iter().take(4).map(|(_, a, _)| a).sum();
    println!(
        "top-4 share of addresses: {}",
        pct(top4 as f64 / NationalCafSummary::TOTAL_ADDRESSES as f64)
    );

    let per_block: Vec<f64> = summary
        .addresses_per_block
        .iter()
        .map(|&x| x as f64)
        .collect();
    let per_cbg: Vec<f64> = summary
        .addresses_per_cbg
        .iter()
        .map(|&x| x as f64)
        .collect();
    println!("\nFigure 1c — CAF addresses per census block / block group");
    print!(
        "{}",
        format_cdf("addresses per census block", &per_block, 15)
    );
    print!(
        "{}",
        format_cdf("addresses per census block group", &per_cbg, 15)
    );
    println!(
        "per-CBG min/median/max: {:.0} / {:.0} / {:.0}",
        per_cbg.iter().cloned().fold(f64::INFINITY, f64::min),
        median(&per_cbg).expect("non-empty"),
        per_cbg.iter().cloned().fold(0.0, f64::max),
    );

    println!("\nFigure 1f — certified download speeds by ISP");
    for isp in Isp::audited() {
        let weights = CalibrationParams::certified_tier_weights(isp);
        let rows: Vec<String> = weights
            .iter()
            .map(|(mbps, share)| format!("{mbps} Mbps: {share:.2} %"))
            .collect();
        println!("  {:<13} {}", isp.name(), rows.join(", "));
    }
}

// -------------------------------------------------------------- table 3

fn table3(fixture: &Scenario) {
    println!("Table 3 — CAF addresses queried per ISP per state");
    let line = |state: &str, isp: Isp, v: &Volume| {
        println!(
            "{state:<16} {:<13} {:>10} {:>8} {:>6}",
            isp.name(),
            v.addresses,
            v.blocks,
            v.cbgs
        );
    };
    println!(
        "{:<16} {:<13} {:>10} {:>8} {:>6}",
        "state", "isp", "addresses", "blocks", "CBGs"
    );
    let table = Table3::count(&fixture.dataset, &fixture.world);
    for (state, isp, volume) in &table.rows {
        line(state.name(), *isp, volume);
    }
    println!("--");
    for (isp, volume) in &table.totals {
        line("TOTAL", *isp, volume);
    }
}

// ---------------------------------------------------------------- fig 2

fn fig2(fixture: &Scenario) {
    let s = &fixture.serviceability;
    println!("Figure 2a — serviceability by ISP (weighted rate; CBG distribution)");
    println!(
        "{:<13} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "isp", "weighted", "min", "q1", "median", "q3", "max"
    );
    for isp in Isp::audited() {
        let (Some(rate), Some(d)) = (s.rate_for_isp(isp), s.distribution_for_isp(isp)) else {
            continue;
        };
        println!(
            "{:<13} {:>9} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            isp.name(),
            pct(rate),
            d.min,
            d.q1,
            d.median,
            d.q3,
            d.max
        );
    }
    println!("overall weighted serviceability: {}", pct(s.overall_rate()));
    // Context stat (§2.3: 96.7 % of CAF census blocks are rural).
    let rural = fixture
        .world
        .states
        .iter()
        .flat_map(|sw| sw.geography.cbgs.iter())
        .filter(|c| caf_geo::DensityClass::from_density(c.density).is_rural())
        .count();
    let total_cbgs: usize = fixture
        .world
        .states
        .iter()
        .map(|sw| sw.geography.cbgs.len())
        .sum();
    println!(
        "rural share of audited CBGs: {} (paper: 96.7 % of CAF blocks rural)",
        pct(rural as f64 / total_cbgs.max(1) as f64)
    );

    println!("\nFigure 2b — serviceability by state (CBG distribution)");
    println!(
        "{:<16} {:>9} {:>7} {:>7} {:>7}",
        "state", "weighted", "q1", "median", "q3"
    );
    for state in UsState::study_states() {
        let (Some(rate), Some(d)) = (s.rate_for_state(state), s.distribution_for_state(state))
        else {
            continue;
        };
        println!(
            "{:<16} {:>9} {:>7.3} {:>7.3} {:>7.3}",
            state.abbrev(),
            pct(rate),
            d.q1,
            d.median,
            d.q3
        );
    }

    println!("\nFigure 2c — AT&T serviceability across its states");
    for state in CalibrationParams::states_for(Isp::Att) {
        let (Some(rate), Some(d)) = (
            s.rate_for_pair(state, Isp::Att),
            s.distribution_for_pair(state, Isp::Att),
        ) else {
            continue;
        };
        println!(
            "  {:<16} weighted {:>9}  median {:>6.3}  iqr [{:.3}, {:.3}]",
            state.abbrev(),
            pct(rate),
            d.median,
            d.q1,
            d.q3
        );
    }
}

// ---------------------------------------------------------------- fig 3

fn fig3(fixture: &Scenario) {
    println!("Figure 3 — population density vs AT&T serviceability");
    for state in [UsState::California, UsState::Georgia] {
        let Some((r, rho)) = fixture.serviceability.density_correlation(Isp::Att, state) else {
            continue;
        };
        println!(
            "\n{} — pearson(log density) {r:.3}, spearman {rho:.3}",
            state.name()
        );
        println!("{:>14} {:>14}", "density/sqmi", "serviceability");
        for (density, rate) in fixture
            .serviceability
            .density_decile_series(Isp::Att, state)
        {
            println!("{density:>14.1} {rate:>14.3}");
        }
    }
    // The Mississippi null result.
    if let Some((r, rho)) = fixture
        .serviceability
        .density_correlation(Isp::Att, UsState::Mississippi)
    {
        println!("\nMississippi (null case) — pearson {r:.3}, spearman {rho:.3}");
    }
}

// --------------------------------------------------------------- fig 10

fn fig10(fixture: &Scenario) {
    println!(
        "Figure 10 — geospatial AT&T serviceability (ASCII shade: . <25%, - <50%, + <75%, # >=75%)"
    );
    for state in [UsState::California, UsState::Georgia] {
        println!("\n{} (north at top):", state.name());
        let grid = fixture
            .serviceability
            .geospatial_grid(Isp::Att, state, 12, 24);
        for row in grid.iter().rev() {
            let line: String = row
                .iter()
                .map(|cell| match cell {
                    None => ' ',
                    Some(r) if *r < 0.25 => '.',
                    Some(r) if *r < 0.50 => '-',
                    Some(r) if *r < 0.75 => '+',
                    Some(_) => '#',
                })
                .collect();
            println!("  |{line}|");
        }
    }
}

// -------------------------------------------------------------- table 1

fn table1(fixture: &Scenario) {
    println!("Table 1 — certified vs advertised maximum download speeds");
    for isp in Isp::audited() {
        let total = fixture.dataset.rows_for(isp).count();
        println!("\n{} ({} queried addresses)", isp.name(), total);
        println!("  certified (reported to USAC):");
        for (mbps, share) in CalibrationParams::certified_tier_weights(isp) {
            println!("    {mbps:>7.1} Mbps  {share:>7.3} %");
        }
        println!("  advertised (observed via BQT):");
        let bands = fixture.compliance.advertised_band_percentages(isp);
        for (band, pct_value) in bands.iter().filter(|(_, p)| *p > 0.0) {
            println!("    {:<18} {pct_value:>7.3} %", band.label());
        }
        let unserved = bands
            .iter()
            .find(|(b, _)| *b == SpeedBand::Unserved)
            .map_or(0.0, |(_, p)| *p);
        println!("  (unserved {unserved:.2} % — every certified tier was ≥ 10 Mbps)");
    }
}

// ---------------------------------------------------------------- rates

fn rates(fixture: &Scenario) {
    println!("§4.2 rate analysis — price compliance and carriage values");
    let (fraction, range) = fixture.compliance.price_compliance(&fixture.dataset);
    println!(
        "addresses with a qualifying ≥10/1 plan priced ≤ FCC cap: {}",
        pct(fraction)
    );
    if let Some((lo, hi)) = range {
        println!("observed 10 Mbps tier prices: ${lo:.0} – ${hi:.0} per month");
    }
    // FCC-style urban rate benchmark from a synthetic urban survey.
    let survey = vec![
        45.0, 50.0, 55.0, 55.0, 60.0, 60.0, 65.0, 65.0, 65.0, 70.0, 70.0, 75.0, 75.0, 80.0, 85.0,
    ];
    let benchmark = UrbanRateBenchmark::from_survey(10.0, &survey).expect("survey valid");
    println!(
        "urban-rate benchmark: mean ${:.2}, sigma ${:.2}, cap (mean+2sigma) ${:.2}",
        benchmark.mean_rate,
        benchmark.stddev_rate,
        benchmark.rate_cap()
    );
    println!(
        "minimum carriage value the cap implies: {:.3} Mbps/$ (paper: ≈0.1)",
        benchmark.min_carriage_value()
    );
    println!("\ncarriage values of served addresses (Mbps per dollar per month):");
    for isp in Isp::audited() {
        let cvs = fixture.compliance.carriage_values(&fixture.dataset, isp);
        if cvs.is_empty() {
            continue;
        }
        let med = median(&cvs).expect("non-empty");
        let p90 = quantile(&cvs, 0.9).expect("non-empty");
        println!(
            "  {:<13} n={:<6} median {med:>8.3}   p90 {p90:>8.3}",
            isp.name(),
            cvs.len()
        );
    }
}

// -------------------------------------------------------------- table 4

fn table4(q3: &(World, Q3Analysis)) {
    let (world, analysis) = q3;
    println!("Table 4 — Q3 addresses queried per ISP per state (CAF / non-CAF)");
    println!(
        "{:<16} {:<13} {:>8} {:>9}",
        "state", "caf isp", "CAF", "non-CAF"
    );
    for sw in &world.states {
        // The block specs fix every block's address counts; nothing is
        // drawn here.
        let mut per_isp: BTreeMap<Isp, (u64, u64)> = BTreeMap::new();
        for spec in Q3World::block_specs(&world.config, sw.state) {
            let slot = per_isp.entry(spec.isp).or_insert((0, 0));
            slot.0 += u64::from(spec.caf_n);
            slot.1 += u64::from(spec.non_caf_n);
        }
        for (isp, (caf, non_caf)) in per_isp {
            println!(
                "{:<16} {:<13} {:>8} {:>9}",
                sw.state.abbrev(),
                isp.name(),
                caf,
                non_caf
            );
        }
    }
    let summary = analysis.summary();
    println!("--");
    println!(
        "queried totals: {} CAF, {} non-CAF (incumbent queries)",
        summary.caf_queried, summary.non_caf_queried
    );
    println!(
        "served after filtering: {} CAF, {} non-CAF; {} blocks dropped (no served non-CAF)",
        summary.caf_served, summary.non_caf_served, summary.blocks_dropped
    );
    let mut per_isp: Vec<_> = analysis.queries_per_isp.iter().collect();
    per_isp.sort_by_key(|(isp, _)| **isp);
    for (isp, (caf, non_caf)) in per_isp {
        println!("  {:<13} queries: {caf} CAF, {non_caf} non-CAF", isp.name());
    }
}

// ---------------------------------------------------------------- fig 4

fn fig4(analysis: &Q3Analysis) {
    println!("Figure 4 — Type A (CAF + monopoly) census blocks");
    let summary = analysis.summary();
    let n = analysis.blocks_of(BlockType::A).count();
    if let Some([better, tie, worse]) = summary.type_a {
        println!(
            "4a: over {n} blocks — CAF better {}, identical {}, monopoly better {}",
            pct(better),
            pct(tie),
            pct(worse)
        );
    }
    let (caf, mono): (Vec<f64>, Vec<f64>) = analysis.type_a_winning_speeds().into_iter().unzip();
    println!(
        "\n4b: avg max download speeds where CAF wins ({} blocks)",
        caf.len()
    );
    print!("{}", format_cdf("CAF speeds (Mbps)", &caf, 11));
    print!("{}", format_cdf("monopoly speeds (Mbps)", &mono, 11));
    if !caf.is_empty() {
        let under_100 = caf.iter().filter(|&&s| s < 100.0).count() as f64 / caf.len() as f64;
        println!(
            "fraction of winning blocks with CAF avg < 100 Mbps: {}",
            pct(under_100)
        );
    }
    println!("\n4c: percent CAF speed increase over monopoly where CAF wins");
    print!(
        "{}",
        format_cdf("uplift (%)", &analysis.type_a_uplift_percents(), 11)
    );
    if let Some(uplift) = &summary.uplift {
        println!("{}", uplift_line(uplift));
    }
}

/// Figure 4c's quantile line.
fn uplift_line(uplift: &Uplift) -> String {
    format!(
        "median uplift {:.0} %, p80 {:.0} % (paper: 75 % / 400 %)",
        uplift.median, uplift.p80
    )
}

// ---------------------------------------------------------------- fig 5

fn fig5(analysis: &Q3Analysis) {
    println!("Figure 5 — Type B (CAF + competition) census blocks");
    let n = analysis.blocks_of(BlockType::B).count();
    if let Some([better, tie, worse]) = analysis.type_b_outcomes() {
        println!(
            "5a: over {n} blocks — CAF better {}, identical {}, competition better {}",
            pct(better),
            pct(tie),
            pct(worse)
        );
    }
    let (caf, comp): (Vec<f64>, Vec<f64>) = analysis.type_b_winning_speeds().into_iter().unzip();
    println!(
        "\n5b: avg max download speeds where CAF wins ({} blocks)",
        caf.len()
    );
    print!("{}", format_cdf("CAF speeds (Mbps)", &caf, 11));
    print!("{}", format_cdf("competitive speeds (Mbps)", &comp, 11));
}

// ---------------------------------------------------------------- fig 6

fn fig6(analysis: &Q3Analysis) {
    println!("Figure 6 — CAF performance across Type A and Type B blocks");
    let (type_a, type_b) = analysis.caf_speeds_by_type();
    println!("6a: CAF avg speeds by block type");
    print!("{}", format_cdf("Type A CAF speeds (Mbps)", &type_a, 11));
    print!("{}", format_cdf("Type B CAF speeds (Mbps)", &type_b, 11));
    if !type_a.is_empty() && !type_b.is_empty() {
        println!(
            "median A {:.1} Mbps vs median B {:.1} Mbps",
            median(&type_a).expect("non-empty"),
            median(&type_b).expect("non-empty")
        );
        if let Ok(ks) = caf_stats::ks_two_sample(&type_a, &type_b) {
            println!(
                "two-sample KS: D = {:.3}, p = {:.2e} — the distributions {}",
                ks.statistic,
                ks.p_value,
                if ks.rejects_equality(0.01) {
                    "differ (competition shifts the whole distribution)"
                } else {
                    "are not distinguishable at this scale"
                }
            );
        }
    }
    println!("\n6b: adjacent-block case study (CenturyLink-in-Georgia analogue)");
    match analysis.case_study(UsState::Georgia) {
        Some((a, b)) => {
            let show = |label: &str, block: &BlockComparison| {
                println!(
                    "  {label}: block {} ({}, {}) — CAF avg {:.1} Mbps",
                    block.block,
                    block.caf_isp.name(),
                    block.state.abbrev(),
                    block.caf_speed
                );
            };
            show("Block 1 (Type A)", &a);
            show("Block 2 (Type B)", &b);
            println!(
                "  competition-adjacent CAF speed is {:.1}x higher (paper: ~6x)",
                b.caf_speed / a.caf_speed.max(1e-9)
            );
        }
        None => println!("  (no same-ISP A/B pair at this scale)"),
    }
}

// ------------------------------------------------------------- fig 7/8

fn fig7(fixture: &Scenario) {
    println!("Figure 7 — CDF over CBGs of percent of addresses QUERIED, per ISP");
    for isp in Isp::audited() {
        if let Some(series) = CoverageSeries::extract(&fixture.dataset, isp) {
            print!(
                "{}",
                format_cdf(
                    &format!("{} queried %", isp.name()),
                    &series.queried_pct,
                    11
                )
            );
        }
    }
}

fn fig8(fixture: &Scenario) {
    println!("Figure 8 — CDF over CBGs of percent of addresses COLLECTED, per ISP");
    for isp in Isp::audited() {
        if let Some(series) = CoverageSeries::extract(&fixture.dataset, isp) {
            print!(
                "{}",
                format_cdf(
                    &format!("{} collected %", isp.name()),
                    &series.collected_pct,
                    11
                )
            );
            println!(
                "  CBGs meeting the 10 % goal: {}",
                pct(series.fraction_meeting(10.0))
            );
        }
    }
}

// -------------------------------------------------------------- table 2

fn table2(fixture: &Scenario) {
    println!("Table 2 — traceback error events per ISP");
    print!("{}", table2_text(&Table2::count(&fixture.dataset)));
}

/// Table 2's rows under a category header; a zero count prints `-`.
fn table2_text(table: &Table2) -> String {
    let mut out = format!("{:<22}", "isp (total errors)");
    for category in ErrorCategory::all() {
        out += &format!(" {:>24}", category.label());
    }
    for row in &table.rows {
        out += &format!("\n{:<22}", format!("{} ({})", row.isp.name(), row.total));
        for count in row.counts {
            match count {
                0 => out += &format!(" {:>24}", "-"),
                count => out += &format!(" {count:>24}"),
            }
        }
    }
    out + "\n"
}

// ---------------------------------------------------------------- fig 9

fn fig9(seed: u64, scale: u32, engine: EngineConfig) {
    println!("Figure 9 — serviceability-estimate error vs sampling rate (AT&T)");
    let synth = SynthConfig { seed, scale };
    progress(format_args!("building sensitivity world ..."));
    let world = World::generate_states_on(
        synth,
        &[UsState::Mississippi, UsState::Georgia, UsState::Alabama],
        engine,
    );
    let analysis = SensitivityAnalysis::run_on(
        &world,
        Isp::Att,
        campaign_config(seed, engine),
        46,
        &[0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.75],
        10,
        engine,
    );
    println!("CBGs used (>30 addresses each): {}", analysis.cbgs_used);
    println!(
        "{:>8} {:>18} {:>18}",
        "rate", "mean |err| (pts)", "max |err| (pts)"
    );
    for point in &analysis.sweep {
        println!(
            "{:>7.0}% {:>18.2} {:>18.2}",
            100.0 * point.rate,
            point.mean_abs_error_pct,
            point.max_abs_error_pct
        );
    }
    println!("(paper: errors < 5 points at every rate — diminishing returns)");
}

// --------------------------------------------------------------- fig 11

fn fig11(fixture: &Scenario) {
    println!("Figure 11 — per-address query times per ISP (seconds)");
    // §3.3 politeness: what pacing costs on top of raw parallelism. The
    // slowest ISP bounds the campaign.
    let polite = caf_bqt::ThrottlePolicy::polite();
    let lanes = polite.per_isp_concurrency.min(40) as f64;
    let mut bound = 0.0f64;
    for isp in Isp::audited() {
        let times: Vec<f64> = fixture
            .dataset
            .records()
            .filter(|r| r.isp == isp)
            .map(|r| r.duration_secs)
            .collect();
        print!(
            "{}",
            format_cdf(&format!("{} query time (s)", isp.name()), &times, 11)
        );
        let secs: f64 = times.iter().sum();
        bound = bound.max((secs / lanes).max(times.len() as f64 * polite.min_gap_secs / lanes));
    }
    let total = fixture
        .dataset
        .records()
        .map(|r| r.duration_secs)
        .sum::<f64>();
    println!(
        "total simulated query time: {:.1} hours; at 40 workers: {:.1} hours wall-clock",
        total / 3_600.0,
        total / 40.0 / 3_600.0
    );
    println!(
        "under the polite policy (8 containers/ISP, 2 s spacing): {:.1} hours",
        bound / 3_600.0
    );
}

// --------------------------------------------------------------- summary

fn summary(lazy: &Lazy) {
    let q3 = &lazy.q3().1;
    let fixture = lazy.fixture();
    let report = EfficacyReport::assemble(&fixture.serviceability, &fixture.compliance, Some(q3));
    println!("§7 headline summary (paper: 55.45 % serviceable, 44.55 % unserved,");
    println!("  33.03 % compliant, Type A 27/54/17, median uplift +75 %)\n");
    print!("{}", report.render());
}

// ------------------------------------------------------------- ablations

fn ablate_weights(fixture: &Scenario) {
    println!("Ablation — CBG-weighted vs unweighted serviceability aggregation");
    let weighted = fixture.serviceability.overall_rate();
    let unweighted: f64 = {
        let rates: Vec<f64> = fixture
            .serviceability
            .cbg_rates
            .iter()
            .map(|r| r.rate)
            .collect();
        rates.iter().sum::<f64>() / rates.len() as f64
    };
    // Address-weighted (by queried addresses, the naive alternative).
    let naive: f64 = {
        let total = fixture.dataset.row_count() as f64;
        fixture.dataset.rows().filter(|(_, r)| r.served).count() as f64 / total
    };
    print!(
        "{}",
        format_pairs(
            "aggregation choices",
            &[
                ("CBG-weighted (paper)".into(), pct(weighted)),
                ("unweighted CBG mean".into(), pct(unweighted)),
                ("pooled queried addresses".into(), pct(naive)),
            ],
        )
    );
    println!(
        "The weighting rule shifts the headline by {:.2} points.",
        100.0 * (weighted - naive).abs()
    );
}

fn ablate_sampling(lazy: &Lazy) {
    println!("Ablation — paper sampling rule vs alternatives (§3.1 argument)");
    // The fixture's world already contains these states (per-state
    // generation is keyed by (seed, state)); audit just the slice
    // instead of regenerating a two-state world.
    let fixture = lazy.fixture();
    let states = [UsState::Alabama, UsState::Wisconsin];
    let run_rule = |label: &str, rule: SamplingRule| {
        let audit = Audit::new(AuditConfig {
            rule,
            ..*fixture.audit.config()
        });
        let dataset = audit.run_for(&fixture.world, &states, lazy.engine);
        let analysis = ServiceabilityAnalysis::compute(&dataset);
        println!(
            "  {label:<26} queried {:>7}  serviceability {}",
            dataset.row_count(),
            pct(analysis.overall_rate())
        );
    };
    run_rule("max(30, 10%) (paper)", SamplingRule::paper());
    run_rule("10% only (no floor)", SamplingRule::fraction_only(0.10));
    run_rule("30% only", SamplingRule::fraction_only(0.30));
    run_rule("exhaustive (100%)", SamplingRule::fraction_only(1.0));
    println!("The floor buys small-CBG precision at a fraction of exhaustive cost.");
}

fn ablate_retry(lazy: &Lazy) {
    println!("Ablation — retry/resample policy vs coverage (Figures 7/8 driver)");
    let fixture = lazy.fixture();
    let states = [UsState::Vermont, UsState::NewHampshire];
    for (label, rounds) in [("no resampling", 0u32), ("2 resample rounds", 2u32)] {
        let audit = Audit::new(AuditConfig {
            resample_rounds: rounds,
            ..*fixture.audit.config()
        });
        let dataset = audit.run_for(&fixture.world, &states, lazy.engine);
        let collected: usize = dataset.coverage().map(|c| c.collected).sum();
        let queried: usize = dataset.coverage().map(|c| c.queried).sum();
        let analysis = ServiceabilityAnalysis::compute(&dataset);
        println!(
            "  {label:<20} queried {queried:>6}  collected {collected:>6}  serviceability {}",
            pct(analysis.overall_rate())
        );
    }
    println!("(Consolidated's flaky site makes Vermont/New Hampshire the stress case.)");
}

fn ablate_granularity(lazy: &Lazy) {
    println!("Ablation — census-block vs block-group granularity for Q3 neighbors");
    let analysis = &lazy.q3().1;
    if let Some([better, tie, worse]) = analysis.type_a_outcomes() {
        println!(
            "  block granularity (paper): CAF better {}, tie {}, worse {}",
            pct(better),
            pct(tie),
            pct(worse)
        );
    }
    // Re-aggregate Type-A comparisons at block-group granularity: merge
    // blocks sharing a CBG by averaging their mode speeds.
    let mut groups: HashMap<u64, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for b in analysis.blocks_of(BlockType::A) {
        if let Some(mono) = b.monopoly_speed {
            let entry = groups.entry(b.block.block_group().geoid()).or_default();
            entry.0.push(b.caf_speed);
            entry.1.push(mono);
        }
    }
    let avg = |xs: &Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
    let cbg_split = outcome_split(groups.values().map(|(caf, mono)| (avg(caf), avg(mono))));
    let [better, tie, worse] = cbg_split.unwrap_or([0.0; 3]);
    println!(
        "  CBG granularity ({} groups): CAF better {}, tie {}, worse {}",
        groups.len(),
        pct(better),
        pct(tie),
        pct(worse)
    );
    println!("Coarser neighborhoods blur the within-block contrast the paper relies on.");
}

// ------------------------------------------------------------ extensions

/// §5 future work: advertised vs experienced service quality.
fn ext_experienced(seed: u64, scale: u32, engine: EngineConfig) {
    use caf_core::ExperiencedAnalysis;
    use caf_synth::speedtest::generate_speedtests;
    println!("Extension — advertised vs experienced quality (§5 future work)");
    let synth = SynthConfig { seed, scale };
    let world = World::generate_states_on(
        synth,
        &[UsState::Ohio, UsState::Alabama, UsState::Vermont],
        engine,
    );
    let mut tests = Vec::new();
    for sw in &world.states {
        tests.extend(generate_speedtests(seed, &sw.usac, &world.truth, 0.25));
    }
    let analysis = ExperiencedAnalysis::compute(&tests);
    println!(
        "{} speed tests at {} served addresses",
        tests.len(),
        analysis.addresses.len()
    );
    println!("\nmedian delivery ratio (measured / advertised):");
    for (isp, ratio) in analysis.delivery_ratio_by_isp() {
        println!("  {:<13} {:.2}", isp.name(), ratio);
    }
    println!("by last-mile technology:");
    for (tech, ratio) in analysis.delivery_ratio_by_technology() {
        println!("  {:<15} {:.2}", tech.label(), ratio);
    }
    println!(
        "\noptimism gap: {} of addresses that pass the 10 Mbps floor on\n\
         advertised speed fail it on measured speed — a BQT-only audit is\n\
         an optimistic bound, exactly as §5 cautions.",
        pct(analysis.optimism_gap())
    );
    println!("\nadvertised vs measured percentiles (Mbps):");
    println!("{:>6} {:>12} {:>12}", "p", "advertised", "measured");
    for (p, adv, meas) in analysis.speed_percentiles(&[0.1, 0.25, 0.5, 0.75, 0.9]) {
        println!("{:>6.2} {adv:>12.1} {meas:>12.1}", p);
    }
}

/// §2.4: simulate USAC's light-touch verification next to the BQT audit.
fn ext_oversight(seed: u64, scale: u32, engine: EngineConfig) {
    use caf_core::{compare_oversight, OversightConfig};
    println!("Extension — the limits of existing oversight (§2.4)");
    let synth = SynthConfig { seed, scale };
    let world = World::generate_states_on(synth, &[UsState::Mississippi, UsState::Georgia], engine);
    println!(
        "{:<13} {:>8} {:>16} {:>16} {:>10}",
        "isp", "sampled", "USAC-found gap", "BQT-found gap", "detection"
    );
    for isp in [Isp::Att, Isp::Frontier, Isp::CenturyLink] {
        let comparison = compare_oversight(
            &world,
            isp,
            OversightConfig {
                seed,
                ..OversightConfig::default()
            },
            campaign_config(seed, engine),
        );
        if comparison.sampled == 0 {
            continue;
        }
        println!(
            "{:<13} {:>8} {:>16} {:>16} {:>9.0}%",
            isp.name(),
            comparison.sampled,
            pct(comparison.usac_reported_gap),
            pct(comparison.bqt_estimated_gap),
            100.0 * comparison.detection_ratio
        );
    }
    println!(
        "\nWith ISP-produced documentary evidence accepted 70 % of the time and\n\
         speed tests run only at active subscribers, the official process\n\
         reports a fraction of the real compliance gap — the paper's case for\n\
         independent post-hoc verification."
    );
}

/// §7: the same audit scored under BEAD's 100/20 standard.
fn ext_bead(fixture: &Scenario) {
    use caf_core::ProgramRules;
    println!("Extension — applying the framework to BEAD (§7)");
    let rules = [
        ProgramRules::caf_phase_ii(),
        ProgramRules::fcc_25_3(),
        ProgramRules::bead(),
    ];
    print!("{:<14}", "isp");
    for r in &rules {
        print!(" {:>16}", r.name);
    }
    println!();
    // Twelve rule×ISP scores plus three overalls off the fixture's one
    // shared index — no per-score re-grouping.
    for isp in Isp::audited() {
        print!("{:<14}", isp.name());
        for r in &rules {
            match r.compliance_rate_indexed(&fixture.index, Some(isp)) {
                Some(rate) => print!(" {:>16}", pct(rate)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    print!("{:<14}", "overall");
    for r in &rules {
        print!(
            " {:>16}",
            r.compliance_rate_indexed(&fixture.index, None)
                .map(pct)
                .unwrap_or_default()
        );
    }
    println!();
    println!(
        "\nThe same deployments that (partially) satisfy CAF's 10/1 standard\n\
         collapse under BEAD's 100/20 — quantifying how much of the installed\n\
         base the next $42 B program cannot count."
    );
}

/// §4.3: the Q3 comparison on carriage value instead of speed.
fn ext_carriage(analysis: &Q3Analysis) {
    println!("Extension — Q3 Type-A comparison on carriage value (§4.3's alternate metric)");
    match (
        analysis.type_a_outcomes(),
        analysis.type_a_outcomes_by_carriage(),
    ) {
        (Some([sb, st, sw]), Some([cb, ct, cw])) => {
            println!(
                "{:>22} {:>12} {:>12} {:>12}",
                "metric", "CAF better", "tie", "other better"
            );
            println!(
                "{:>22} {:>12} {:>12} {:>12}",
                "download speed",
                pct(sb),
                pct(st),
                pct(sw)
            );
            println!(
                "{:>22} {:>12} {:>12} {:>12}",
                "carriage value",
                pct(cb),
                pct(ct),
                pct(cw)
            );
            println!("\nSimilar trends on both metrics, as the paper reports.");
        }
        _ => println!("(no Type A blocks at this scale)"),
    }
}

/// Bootstrap confidence intervals on the headline rates.
fn ext_ci(fixture: &Scenario) {
    println!("Extension — bootstrap CIs on the headline rates (CBG-level resampling)");
    match fixture
        .serviceability
        .overall_rate_ci_on(fixture.engine, 1_000, 0.95, 99)
    {
        Ok(ci) => println!(
            "serviceability: {} (95 % CI {} – {}, {} CBG clusters)",
            pct(ci.point),
            pct(ci.lo),
            pct(ci.hi),
            fixture.serviceability.cbg_rates.len()
        ),
        Err(e) => println!("serviceability CI unavailable: {e}"),
    }
    match fixture
        .compliance
        .overall_rate_ci_on(fixture.engine, 1_000, 0.95, 99)
    {
        Ok(ci) => println!(
            "compliance:     {} (95 % CI {} – {}, {} CBG clusters)",
            pct(ci.point),
            pct(ci.lo),
            pct(ci.hi),
            fixture.compliance.cbg_rates.len()
        ),
        Err(e) => println!("compliance CI unavailable: {e}"),
    }
    for isp in Isp::audited() {
        if let Ok(ci) =
            fixture
                .serviceability
                .rate_ci_for_isp_on(fixture.engine, isp, 800, 0.95, isp.id())
        {
            println!(
                "  {:<13} {} ({} – {})",
                isp.name(),
                pct(ci.point),
                pct(ci.lo),
                pct(ci.hi)
            );
        }
    }
}

/// Writes the audit rows, per-CBG serviceability rates and query
/// records as CSV artifacts under `repro_artifacts/`, for external
/// plotting.
fn dump(fixture: &Scenario) {
    let dir = std::path::Path::new("repro_artifacts");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir:?}: {e}")));
    let paths = dump_files(&fixture.dataset, &fixture.serviceability).map(|(name, csv)| {
        let path = dir.join(name);
        std::fs::write(&path, csv).unwrap_or_else(|e| die(&format!("write {path:?}: {e}")));
        path
    });
    println!(
        "wrote {} rows to {}, {} CBGs to {}, {} records to {}",
        fixture.dataset.row_count(),
        paths[0].display(),
        fixture.serviceability.cbg_rates.len(),
        paths[1].display(),
        fixture.dataset.record_count(),
        paths[2].display()
    );
}

/// Shape validation: re-asserts the headline paper-vs-measured checks of
/// the calibration suite and prints PASS/FAIL per claim, exiting non-zero
/// on any failure. A cheap smoke test for modified parameters or seeds.
fn validate(lazy: &Lazy) {
    let mut failures = 0usize;
    let mut check = |label: &str, ok: bool, detail: String| {
        println!("  [{}] {label}: {detail}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let q3 = &lazy.q3().1;
    let fixture = lazy.fixture();
    let report = EfficacyReport::assemble(&fixture.serviceability, &fixture.compliance, Some(q3));
    q3_checks(report.q3.as_ref(), &mut check);

    let serviceability = |isp| report.isp(isp).map(|rates| rates.serviceability);
    let compliance = |isp| report.isp(isp).map(|rates| rates.compliance);
    // Frontier's published 70.71 % happens to be 1/sqrt(2); it is a
    // coincidence of the paper's data, not an approximated constant.
    #[allow(clippy::approx_constant)]
    let targets = [
        (Isp::Att, 0.3153),
        (Isp::CenturyLink, 0.9042),
        (Isp::Frontier, 0.7071),
        (Isp::Consolidated, 0.8395),
    ];
    for (isp, target) in targets {
        let rate = serviceability(isp).unwrap_or(0.0);
        check(
            &format!("{} serviceability ~ {:.1} %", isp.name(), 100.0 * target),
            (rate - target).abs() < 0.09,
            pct(rate),
        );
    }
    let serv_order = serviceability(Isp::CenturyLink) > serviceability(Isp::Consolidated)
        && serviceability(Isp::Consolidated) > serviceability(Isp::Frontier)
        && serviceability(Isp::Frontier) > serviceability(Isp::Att);
    check(
        "serviceability ordering CL>Cons>Frontier>AT&T",
        serv_order,
        String::new(),
    );
    let comp_order = compliance(Isp::Consolidated) > compliance(Isp::CenturyLink)
        && compliance(Isp::CenturyLink) > compliance(Isp::Att)
        && compliance(Isp::Att) > compliance(Isp::Frontier);
    check(
        "compliance ordering Cons>CL>AT&T>Frontier",
        comp_order,
        String::new(),
    );
    check(
        "overall compliance in the paper's 28-33 % band (±7)",
        (0.21..0.40).contains(&report.compliance),
        pct(report.compliance),
    );
    let (price_ok, _) = fixture.compliance.price_compliance(&fixture.dataset);
    check("price compliance ~ 100 %", price_ok > 0.999, pct(price_ok));
    match fixture
        .serviceability
        .density_correlation(Isp::Att, UsState::Georgia)
    {
        Some((r, _)) => check(
            "AT&T GA density correlation > 0.15",
            r > 0.15,
            format!("r {r:.3}"),
        ),
        None => check(
            "AT&T GA density correlation > 0.15",
            false,
            "unavailable".into(),
        ),
    }

    if failures == 0 {
        println!("all shape checks passed");
    } else {
        println!("{failures} shape check(s) FAILED");
        std::process::exit(1);
    }
}

/// `validate`'s Q3 checks: the Type A split and the uplift quantiles.
fn q3_checks(summary: Option<&Q3Summary>, check: &mut impl FnMut(&str, bool, String)) {
    let split_label = "Type A split ~ 27/54/17";
    match summary.and_then(|s| s.type_a) {
        Some([better, tie, worse]) => check(
            split_label,
            (better - 0.27).abs() < 0.10
                && (tie - 0.54).abs() < 0.12
                && (worse - 0.17).abs() < 0.10,
            format!(
                "{:.1}/{:.1}/{:.1}",
                100.0 * better,
                100.0 * tie,
                100.0 * worse
            ),
        ),
        None => check(split_label, false, "no Type A blocks".into()),
    }
    match summary.and_then(|s| s.uplift) {
        Some(Uplift { median, p80, .. }) => check(
            "uplift p80 >> median (paper 400 vs 75)",
            p80 > 1.8 * median && median > 25.0,
            format!("median {median:.0} %, p80 {p80:.0} %"),
        ),
        None => check("uplift median/p80", false, "no CAF wins".into()),
    }
}

/// §7 policy counterfactual: foster competition in Type A blocks.
fn ext_competition(analysis: &Q3Analysis) {
    use caf_core::counterfactual::{speed_quartiles, CompetitionCounterfactual};
    println!("Extension — the §7 competition counterfactual");
    let Some(cf) = CompetitionCounterfactual::from_q3(analysis) else {
        println!("(insufficient Type A/B blocks at this scale)");
        return;
    };
    if let (Some((a1, a2, a3)), Some((b1, b2, b3))) = (
        speed_quartiles(&cf.type_a_speeds),
        speed_quartiles(&cf.type_b_speeds),
    ) {
        println!(
            "Type A CAF speeds (no competition): q1 {a1:.1} / median {a2:.1} / q3 {a3:.1} Mbps over {} blocks",
            cf.type_a_speeds.len()
        );
        println!(
            "Type B CAF speeds (competition):    q1 {b1:.1} / median {b2:.1} / q3 {b3:.1} Mbps over {} blocks",
            cf.type_b_speeds.len()
        );
    }
    println!("\nIf policy induced competition in a fraction of Type A blocks:");
    println!(
        "{:>10} {:>16} {:>18}",
        "treated", "mean CAF Mbps", "median CAF Mbps"
    );
    for point in cf.sweep(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) {
        println!(
            "{:>9.0}% {:>16.1} {:>18.1}",
            100.0 * point.treated_fraction,
            point.mean_caf_speed,
            point.median_caf_speed
        );
    }
    println!(
        "\nFull treatment raises mean CAF speeds by {:.0} % — the magnitude behind\n\
         the paper's 'foster competition' recommendation.",
        100.0 * cf.full_treatment_gain()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_core::artifact;
    use caf_geo::{BlockGroupId, BlockId, CountyId, StateFips, TractId};
    use caf_obs::json::Json;

    /// Vermont at 1:200, audited and analysed.
    fn small_scenario() -> Scenario {
        let engine = EngineConfig::serial();
        Scenario::build(
            SynthConfig {
                seed: 7,
                scale: 200,
            },
            &[UsState::Vermont],
            engine,
            campaign_config(7, engine),
            &[],
        )
        .expect("no deltas")
    }

    /// Type-A blocks where CAF beats a 100 Mbps monopoly by `uplifts`
    /// percent.
    fn type_a_wins(uplifts: &[f64]) -> Q3Analysis {
        let county = CountyId::new(StateFips::new(50).unwrap(), 1).unwrap();
        let cbg = BlockGroupId::new(TractId::new(county, 1).unwrap(), 1).unwrap();
        let blocks = uplifts
            .iter()
            .zip(1..)
            .map(|(&uplift, suffix)| BlockComparison {
                block: BlockId::new(cbg, suffix).unwrap(),
                state: UsState::Vermont,
                caf_isp: Isp::Consolidated,
                block_type: BlockType::A,
                caf_speed: 100.0 + uplift,
                monopoly_speed: Some(100.0),
                competition_speed: None,
                caf_carriage: None,
                monopoly_carriage: None,
                competition_carriage: None,
            })
            .collect();
        Q3Analysis {
            blocks,
            ..Q3Analysis::default()
        }
    }

    #[test]
    fn every_printed_uplift_quantile_is_the_interpolated_one() {
        // An even count: the upper-middle element (30) and the element
        // at index ⌊0.8·n⌋ (40) are not the interpolated 25 and 34.
        let q3 = type_a_wins(&[40.0, 10.0, 30.0, 20.0]);
        let uplifts = q3.type_a_uplift_percents();
        let median = quantile(&uplifts, 0.5).unwrap();
        let p80 = quantile(&uplifts, 0.8).unwrap();
        assert_eq!((median, p80), (25.0, 34.0));

        let fixture = small_scenario();
        let report =
            EfficacyReport::assemble(&fixture.serviceability, &fixture.compliance, Some(&q3));
        let uplift = report
            .q3
            .and_then(|s| s.uplift)
            .expect("CAF wins four blocks");
        assert_eq!((uplift.n, uplift.median, uplift.p80), (4, median, p80));
        assert!(report
            .render()
            .contains("Median CAF uplift where CAF wins: +25 %"));

        let rendered = artifact::q3(&q3);
        let rendered = rendered.get("uplift").expect("an uplift section");
        assert_eq!(rendered.get("median_pct"), Some(&Json::Num(median)));
        assert_eq!(rendered.get("p80_pct"), Some(&Json::Num(p80)));

        assert_eq!(
            uplift_line(&uplift),
            "median uplift 25 %, p80 34 % (paper: 75 % / 400 %)"
        );
        let mut printed = Vec::new();
        q3_checks(report.q3.as_ref(), &mut |label, _, detail| {
            printed.push(format!("{label}: {detail}"))
        });
        assert_eq!(
            printed[1],
            "uplift p80 >> median (paper 400 vs 75): median 25 %, p80 34 %"
        );
    }

    #[test]
    fn a_category_without_events_prints_a_dash_and_renders_zero() {
        let fixture = small_scenario();
        let table = Table2::count(&fixture.dataset);
        let text = table2_text(&table);
        let rendered = artifact::table2(&fixture.dataset);
        let (mut zeros, mut events) = (0, 0);
        for (row, line) in table.rows.iter().zip(text.lines().skip(1)) {
            let isp = rendered
                .get("isps")
                .and_then(|isps| isps.get(row.isp.name()))
                .expect("every audited ISP has an entry");
            assert!(line.starts_with(&format!("{} ({})", row.isp.name(), row.total)));
            assert_eq!(isp.get("total").and_then(Json::as_u64), Some(row.total));
            let cells: Vec<&str> = line.split_whitespace().collect();
            let cells = &cells[cells.len() - ErrorCategory::all().len()..];
            for ((&count, &cell), category) in
                row.counts.iter().zip(cells).zip(ErrorCategory::all())
            {
                let json = isp.get("errors").and_then(|e| e.get(category.label()));
                assert_eq!(json.and_then(Json::as_u64), Some(count));
                if count == 0 {
                    zeros += 1;
                    assert_eq!(cell, "-", "{:?} {category:?}", row.isp);
                } else {
                    events += 1;
                    assert_eq!(cell, count.to_string());
                }
            }
        }
        assert!(
            zeros > 0 && events > 0,
            "{zeros} zero and {events} non-zero cells"
        );
    }
}
