//! `challenge_replay` — replay a challenge delta stream against the
//! audit pipeline and write the resulting artifacts.
//!
//! ```text
//! challenge_replay --deltas FILE [--seed N] [--scale N] [--batch N]
//!                  [--mode incremental|full] [--workers N|auto]
//!                  [--out DIR] [--emit-resolved FILE] [--quiet]
//! ```
//!
//! Two modes, one contract:
//!
//! * `--mode incremental` (default) builds the epoch-0 world and its
//!   [`IncrementalAudit`], then applies the stream in `--batch`-sized
//!   batches, refreshing only the invalidated cells after each.
//! * `--mode full` rebuilds the scenario from scratch with the whole
//!   stream applied ([`Scenario::build`], the same rebuild `caf-serve`
//!   runs for a past epoch).
//!
//! By the incremental-recompute determinism contract the two modes
//! write **byte-identical** artifacts (`serviceability.json`,
//! `compliance.json`, `table2.json`) for any batch size and worker
//! count — `ci.sh` byte-diffs them.
//!
//! Delta streams address cells by `(state, cbg index)`; the `isp` field
//! is resolved against the study world's geography before applying
//! (each `(state, cbg)` cell belongs to exactly one ISP, and which one
//! is RNG-dependent — resolving keeps committed streams valid across
//! seeds and RNG implementations).
//!
//! `--emit-resolved FILE` writes the post-resolution stream back out as
//! JSONL. A live `caf-serve` validates ISPs strictly, so the committed
//! placeholder stream cannot be POSTed to `/v1/challenge` directly;
//! the emitted stream can (ci.sh uses this for the snapshot restart
//! gate).

use caf_core::pipeline::{self, campaign_config, Scenario};
use caf_core::{
    artifact, Audit, AuditIndex, ComplianceAnalysis, EngineConfig, IncrementalAudit, ScenarioMeta,
    ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::challenge::deltas_from_jsonl;
use caf_synth::geography::StateGeography;
use caf_synth::{ChallengeDelta, SynthConfig, World};
use std::collections::BTreeMap;
use std::time::Instant;

fn die(message: &str) -> ! {
    eprintln!("challenge_replay: {message}");
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Incremental,
    Full,
}

fn main() {
    let mut deltas_path: Option<std::path::PathBuf> = None;
    let mut seed: u64 = 0xCAF_2024;
    let mut scale: u32 = 150;
    let mut batch: usize = 1;
    let mut mode = Mode::Incremental;
    let mut engine = EngineConfig::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut emit_resolved: Option<std::path::PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--deltas" => deltas_path = Some(value("--deltas").into()),
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--scale" => {
                scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| die("--scale needs an integer"));
                if scale == 0 {
                    die("--scale must be at least 1");
                }
            }
            "--batch" => {
                batch = value("--batch")
                    .parse()
                    .unwrap_or_else(|_| die("--batch needs an integer"));
                if batch == 0 {
                    die("--batch must be at least 1");
                }
            }
            "--mode" => {
                mode = match value("--mode").as_str() {
                    "incremental" => Mode::Incremental,
                    "full" => Mode::Full,
                    other => die(&format!("unknown mode {other:?} (incremental|full)")),
                };
            }
            "--workers" => {
                let raw = value("--workers");
                engine = if raw == "auto" {
                    EngineConfig::auto()
                } else {
                    EngineConfig::with_workers(
                        raw.parse()
                            .unwrap_or_else(|_| die("--workers needs an integer or auto")),
                    )
                };
            }
            "--out" => out = Some(value("--out").into()),
            "--emit-resolved" => emit_resolved = Some(value("--emit-resolved").into()),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "challenge_replay --deltas FILE [--seed N] [--scale N] [--batch N] \
                     [--mode incremental|full] [--workers N|auto] [--out DIR] \
                     [--emit-resolved FILE] [--quiet]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    let deltas_path = deltas_path.unwrap_or_else(|| die("--deltas FILE is required"));

    let text = std::fs::read_to_string(&deltas_path)
        .unwrap_or_else(|e| die(&format!("read {deltas_path:?}: {e}")));
    let deltas =
        deltas_from_jsonl(&text).unwrap_or_else(|e| die(&format!("parse {deltas_path:?}: {e}")));
    if deltas.is_empty() {
        die(&format!("{deltas_path:?} contains no deltas"));
    }

    let synth = SynthConfig { seed, scale };
    let states = UsState::study_states();
    let build_started = Instant::now();
    let deltas = resolve_isps(synth, &states, deltas);
    if let Some(path) = &emit_resolved {
        let mut lines = String::new();
        for delta in &deltas {
            lines.push_str(&caf_synth::challenge::delta_to_json(delta));
            lines.push('\n');
        }
        std::fs::write(path, lines).unwrap_or_else(|e| die(&format!("write {path:?}: {e}")));
        if !quiet {
            println!(
                "challenge_replay: wrote {} resolved delta(s) to {}",
                deltas.len(),
                path.display()
            );
        }
    }
    let campaign = campaign_config(seed);

    let replay_started;
    let (epoch, dataset, serviceability, compliance) = match mode {
        Mode::Incremental => {
            let mut world = World::generate_states_on(synth, &states, engine);
            let audit = Audit::new(pipeline::audit_config(synth, campaign));
            let mut inc = IncrementalAudit::build(audit, &world, engine);
            replay_started = Instant::now();
            for chunk in deltas.chunks(batch) {
                let outcome = world
                    .apply_deltas(chunk)
                    .unwrap_or_else(|e| die(&format!("apply batch: {e}")));
                inc.refresh(&world, &outcome, engine);
            }
            let dataset = inc.dataset();
            let index = AuditIndex::build_at(&dataset, world.epoch);
            let serviceability = ServiceabilityAnalysis::from_index(&index);
            let compliance = ComplianceAnalysis::from_index(&dataset, &index);
            (world.epoch, dataset, serviceability, compliance)
        }
        Mode::Full => {
            replay_started = Instant::now();
            let scenario = Scenario::build(synth, &states, engine, campaign, &deltas)
                .unwrap_or_else(|e| die(&format!("apply stream: {e}")));
            let Scenario {
                world,
                dataset,
                serviceability,
                compliance,
                ..
            } = scenario;
            (world.epoch, dataset, serviceability, compliance)
        }
    };
    let replay_elapsed = replay_started.elapsed();

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir:?}: {e}")));
        let meta = ScenarioMeta::new(seed, scale).at_epoch(epoch);
        let write = |name: &str, body: caf_obs::json::Json| {
            let path = dir.join(format!("{name}.json"));
            let bytes = artifact::to_canonical_bytes(&meta.wrap(body));
            std::fs::write(&path, bytes).unwrap_or_else(|e| die(&format!("write {path:?}: {e}")));
        };
        write(
            "serviceability",
            artifact::serviceability(&serviceability, None),
        );
        write(
            "compliance",
            artifact::compliance(&compliance, &dataset, None),
        );
        write("table2", artifact::table2(&dataset));
    }

    if !quiet {
        let mode_name = match mode {
            Mode::Incremental => "incremental",
            Mode::Full => "full",
        };
        let secs = replay_elapsed.as_secs_f64();
        println!(
            "challenge_replay: {} deltas -> epoch {} ({mode_name}, batch {batch}, \
             {} workers) in {secs:.3}s replay / {:.3}s total{}",
            deltas.len(),
            epoch,
            engine.workers,
            build_started.elapsed().as_secs_f64(),
            match &out {
                Some(dir) => format!("; artifacts in {}", dir.display()),
                None => String::new(),
            },
        );
    }
}

/// Rewrites each delta's `isp` to the owner of its `(state, cbg)` cell
/// in the study world's geography (dying on a state outside the study
/// world or an out-of-range CBG index). Only the geography of each
/// named state is built, not the world.
fn resolve_isps(
    synth: SynthConfig,
    states: &[UsState],
    deltas: Vec<ChallengeDelta>,
) -> Vec<ChallengeDelta> {
    let mut geographies: BTreeMap<UsState, StateGeography> = BTreeMap::new();
    deltas
        .into_iter()
        .map(|mut delta| {
            if !states.contains(&delta.state) {
                die(&format!(
                    "state {:?} is not in the study world",
                    delta.state
                ));
            }
            let geography = geographies
                .entry(delta.state)
                .or_insert_with(|| StateGeography::build(&synth, delta.state));
            let cbg = geography.cbgs.get(delta.cbg).unwrap_or_else(|| {
                die(&format!(
                    "cbg index {} out of range for {:?} ({} CBGs at this scale)",
                    delta.cbg,
                    delta.state,
                    geography.cbgs.len()
                ))
            });
            delta.isp = cbg.isp;
            delta
        })
        .collect()
}
