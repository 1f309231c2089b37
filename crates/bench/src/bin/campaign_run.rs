//! `campaign_run` — run one BQT campaign and write its result as
//! deterministic bytes; the CI checkpoint/resume smoke's workhorse.
//!
//! Usage:
//!
//! ```text
//! campaign_run [--seed N] [--scale N] [--tasks N] [--workers N]
//!              [--checkpoint-dir DIR] [--checkpoint-every N] [--out FILE]
//! ```
//!
//! Builds the two-state bench world (Vermont + West Virginia), drains
//! the USAC task list through [`Campaign::run`] — or
//! [`Campaign::run_with_checkpoints`] when `--checkpoint-dir` is given —
//! and snap-encodes the full [`CampaignResult`] (records, replayed proxy
//! telemetry, stats) to `--out`. The encoding is a pure function of the
//! result, so the CI smoke can assert resume correctness with a plain
//! byte diff:
//!
//! ```text
//! campaign_run --out reference.bin                    # uninterrupted
//! timeout -s KILL 2 campaign_run --checkpoint-dir d   # killed mid-run
//! campaign_run --checkpoint-dir d --out resumed.bin   # resumes
//! cmp reference.bin resumed.bin                       # must be equal
//! ```

use caf_bqt::{Campaign, CampaignConfig, CampaignResult, CheckpointConfig, QueryTask};
use caf_geo::UsState;
use caf_snap::{Snap, Writer};
use caf_synth::{SynthConfig, World};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: campaign_run [--seed N] [--scale N] [--tasks N] [--workers N] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--out FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut seed: u64 = 0xCAF_2024;
    let mut scale: u32 = 80;
    let mut task_limit: usize = usize::MAX;
    let mut workers: usize = 4;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every: usize = 200;
    let mut out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--seed" => match value("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--scale" => match value("--scale").and_then(|v| v.parse().ok()) {
                Some(v) => scale = v,
                None => return usage(),
            },
            "--tasks" => match value("--tasks").and_then(|v| v.parse().ok()) {
                Some(v) => task_limit = v,
                None => return usage(),
            },
            "--workers" => match value("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return usage(),
            },
            "--checkpoint-dir" => match value("--checkpoint-dir") {
                Some(v) => checkpoint_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--checkpoint-every" => {
                match value("--checkpoint-every").and_then(|v| v.parse().ok()) {
                    Some(v) => checkpoint_every = v,
                    None => return usage(),
                }
            }
            "--out" => match value("--out") {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }

    let world = World::generate_states(
        SynthConfig { seed, scale },
        &[UsState::Vermont, UsState::WestVirginia],
    );
    let mut tasks: Vec<QueryTask> = Vec::new();
    for sw in &world.states {
        tasks.extend(
            sw.geography
                .certified_addresses()
                .map(|(address, isp)| QueryTask { address, isp }),
        );
    }
    tasks.truncate(task_limit);

    let campaign = Campaign::new(CampaignConfig {
        seed,
        workers,
        ..CampaignConfig::default()
    });
    let result = match &checkpoint_dir {
        Some(dir) => {
            let ckpt = CheckpointConfig::new(dir, checkpoint_every);
            match campaign.run_with_checkpoints(&world.truth, &tasks, &ckpt) {
                Ok(result) => result,
                Err(error) => {
                    eprintln!("checkpointed campaign failed: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => campaign.run(&world.truth, &tasks),
    };

    eprintln!(
        "campaign: {} tasks, {} attempts, {} rotations, {:.1}s simulated query time",
        result.stats.queries,
        result.stats.attempts,
        result.stats.proxy_rotations,
        result.stats.total_query_secs,
    );

    if let Some(path) = out {
        let bytes = encode_result(&result);
        if let Err(error) = caf_snap::write_atomic(&path, &bytes) {
            eprintln!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} bytes to {}", bytes.len(), path.display());
    }
    ExitCode::SUCCESS
}

/// Snap-encodes the full result — records, proxy telemetry, stats — as a
/// pure function of the result value, so byte equality is result
/// equality.
fn encode_result(result: &CampaignResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(result.records.len() as u64);
    for record in &result.records {
        record.encode(&mut w);
    }
    w.put_u64(result.proxy.len() as u64);
    for endpoint in result.proxy.endpoints() {
        w.put_raw(&endpoint.ip.octets());
        w.put_u64(endpoint.uses);
        w.put_u64(endpoint.error_rotations);
    }
    let s = &result.stats;
    for v in [
        s.queries,
        s.attempts,
        s.retries,
        s.error_events,
        s.proxy_rotations,
        s.serviceable,
        s.no_service,
        s.address_not_found,
        s.unknown,
        s.call_to_order,
    ] {
        w.put_u64(v);
    }
    w.put_f64(s.total_query_secs);
    w.put_f64(s.throttle_wait_secs);
    w.into_bytes()
}
