//! Engine determinism regression: the audit must produce **identical**
//! output at any engine worker count — same analysis rows, same query
//! records, same coverage telemetry, and byte-identical CSV artifacts.
//!
//! This is the determinism contract of `caf_exec` exercised end
//! to end: per-state units share only the immutable truth store, every
//! random draw is entity-keyed, and partials merge in fixed state order,
//! so the worker count can only move wall-clock time, never bytes. The
//! CSV assertions render the `repro dump` artifacts through the same
//! function `repro` calls, so a regression here is exactly a regression
//! in the shipped artifacts.

use caf_bqt::CampaignConfig;
use caf_core::csv::dump_files;
use caf_core::{
    Audit, AuditConfig, AuditDataset, EngineConfig, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 40;

fn states() -> [UsState; 4] {
    [
        UsState::Alabama,
        UsState::NewHampshire,
        UsState::Utah,
        UsState::Vermont,
    ]
}

fn audit_at(seed: u64) -> (World, Audit) {
    let synth = SynthConfig { seed, scale: SCALE };
    let world = World::generate_states(synth, &states());
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed,
            workers: 8,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    (world, audit)
}

/// The `repro dump` artifact bundle, rebuilt from a dataset: the three
/// CSVs `caf_core::csv::dump_files` renders, concatenated.
fn dump_csv(dataset: &AuditDataset) -> String {
    let analysis = ServiceabilityAnalysis::compute(dataset);
    dump_files(dataset, &analysis)
        .into_iter()
        .map(|(_, csv)| csv)
        .collect()
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[test]
fn worker_count_does_not_change_audit_output() {
    let (world, audit) = audit_at(SEED);
    let serial = audit.run_with(&world, EngineConfig::serial());
    let serial_csv = dump_csv(&serial);
    let serial_hash = hash_of(&serial_csv);

    for workers in [2usize, 8] {
        let parallel = audit.run_with(&world, EngineConfig::with_workers(workers));

        // Structural equality on all three dataset components.
        assert_eq!(
            serial.records().collect::<Vec<_>>(),
            parallel.records().collect::<Vec<_>>(),
            "query records diverged at {workers} workers"
        );
        assert_eq!(
            serial.row_count(),
            parallel.row_count(),
            "row count diverged at {workers} workers"
        );
        let coverage = |d: &AuditDataset| -> Vec<_> {
            d.coverage()
                .map(|c| (c.isp, c.cbg, c.total, c.queried, c.collected))
                .collect()
        };
        assert_eq!(
            coverage(&serial),
            coverage(&parallel),
            "coverage diverged at {workers} workers"
        );

        // Byte-identical artifacts: the dump CSVs — and therefore their
        // hashes — must not move.
        let csv = dump_csv(&parallel);
        assert_eq!(
            hash_of(&csv),
            serial_hash,
            "dump artifact hash diverged at {workers} workers"
        );
        assert_eq!(csv, serial_csv);
    }
}

#[test]
fn telemetry_does_not_change_audit_output() {
    // The caf-obs layer is observation-only: enabling it must not move a
    // byte of audit output, at any worker count. Run the same audit with
    // telemetry off and on, serial and parallel, and compare artifact
    // hashes. (The enabled flag is process-global; restore it before the
    // final assertions so a panic path can't leak state into other tests
    // in this binary — none of which read it.)
    let (world, audit) = audit_at(SEED);

    caf_obs::set_enabled(false);
    let baseline = hash_of(&dump_csv(&audit.run_with(&world, EngineConfig::serial())));

    let mut instrumented = Vec::new();
    caf_obs::set_enabled(true);
    for workers in [1usize, 4] {
        let dataset = audit.run_with(&world, EngineConfig::with_workers(workers));
        instrumented.push((workers, hash_of(&dump_csv(&dataset))));
    }
    caf_obs::set_enabled(false);

    for (workers, hash) in instrumented {
        assert_eq!(
            hash, baseline,
            "telemetry changed the audit artifact at {workers} workers"
        );
    }

    // The instrumented runs actually recorded telemetry — otherwise this
    // test would vacuously pass with a disabled registry.
    let spans = caf_obs::registry().span_snapshot();
    assert!(
        spans.iter().any(|(path, _)| path.contains("state.")),
        "instrumented audit recorded no per-state spans"
    );
}

#[test]
fn different_seeds_still_differ() {
    // Guard against the degenerate explanation for the test above (an
    // audit that ignores its inputs would also be "deterministic").
    let (world_a, audit_a) = audit_at(SEED);
    let (world_b, audit_b) = audit_at(SEED ^ 0x5DEECE66D);
    let a = audit_a.run_with(&world_a, EngineConfig::with_workers(4));
    let b = audit_b.run_with(&world_b, EngineConfig::with_workers(4));
    assert_ne!(
        hash_of(&dump_csv(&a)),
        hash_of(&dump_csv(&b)),
        "distinct seeds must produce distinct audit artifacts"
    );
}
