//! Rendered-bytes identity: every `/v1/*` response equals the canonical
//! bytes rendered from a fresh scenario, ETag included — for every route
//! and `isp=` form, with and without a `q3_scale` override, at epoch 0
//! and at a challenge epoch, and however the cache entry was obtained:
//! a miss, a hit, a disk-tier promotion, or a snapshot restart.

use caf_core::pipeline::{self, campaign_config};
use caf_core::{artifact, EngineConfig, Scenario, ScenarioMeta};
use caf_geo::UsState;
use caf_obs::json::Json;
use caf_serve::{App, AppConfig, Handler, Request};
use caf_synth::challenge::delta_to_json;
use caf_synth::{ChallengeDelta, Correction, Isp, SynthConfig, World};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 2000;
/// A `q3_scale` other than the one `ScenarioMeta::new` derives.
const Q3_OVERRIDE: u32 = 1500;

/// One request: route, `isp=`, `q3_scale=` override, epoch.
type Combo = (&'static str, Option<Isp>, Option<u32>, u64);

fn get(combo: &Combo, etag: Option<&str>) -> Request {
    let (route, isp, q3_scale, epoch) = *combo;
    let mut query = Vec::new();
    if let Some(isp) = isp {
        query.push(("isp".to_string(), isp.name().to_string()));
    }
    if let Some(q3_scale) = q3_scale {
        query.push(("q3_scale".to_string(), q3_scale.to_string()));
    }
    if epoch > 0 {
        query.push(("epoch".to_string(), epoch.to_string()));
    }
    Request {
        method: "GET".to_string(),
        path: format!("/v1/{route}"),
        query,
        headers: etag
            .map(|etag| vec![("if-none-match".to_string(), etag.to_string())])
            .unwrap_or_default(),
        body: Vec::new(),
    }
}

fn post(path: &str, body: String) -> Request {
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: Vec::new(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// Every combination: the per-ISP routes under no filter and each of
/// `Isp::all()`, `table2` and `q3` unfiltered; each with and without a
/// `q3_scale` override; Q1/Q2 routes at epochs 0 and 1 (`q3` has no
/// challenge epochs).
fn combos() -> Vec<Combo> {
    let filters: Vec<Option<Isp>> = std::iter::once(None)
        .chain(Isp::all().into_iter().map(Some))
        .collect();
    let mut out = Vec::new();
    for q3_scale in [None, Some(Q3_OVERRIDE)] {
        for epoch in [0, 1] {
            for route in ["serviceability", "compliance"] {
                for &isp in &filters {
                    out.push((route, isp, q3_scale, epoch));
                }
            }
            out.push(("table2", None, q3_scale, epoch));
        }
        out.push(("q3", None, q3_scale, 0));
    }
    out
}

/// The expected bytes of every combination, rendered from fresh
/// fixtures (one per epoch, one Q3 world per `q3_scale`).
fn references(delta: ChallengeDelta) -> BTreeMap<String, String> {
    let engine = EngineConfig::serial();
    let synth = |scale| SynthConfig { seed: SEED, scale };
    let campaign = campaign_config(SEED);
    let study = UsState::study_states();
    let fixtures = [
        Scenario::build(synth(SCALE), &study, engine, campaign, &[]).unwrap(),
        Scenario::build(synth(SCALE), &study, engine, campaign, &[delta]).unwrap(),
    ];
    let mut q3 = BTreeMap::new();
    let mut out = BTreeMap::new();
    for combo @ (route, isp, q3_scale, epoch) in combos() {
        let mut meta = ScenarioMeta::new(SEED, SCALE).at_epoch(epoch);
        if let Some(q3_scale) = q3_scale {
            meta.q3_scale = q3_scale;
        }
        let fixture = &fixtures[epoch as usize];
        let body: Json = match route {
            "serviceability" => artifact::serviceability(&fixture.serviceability, isp),
            "compliance" => artifact::compliance(&fixture.compliance, &fixture.dataset, isp),
            "table2" => artifact::table2(&fixture.dataset),
            _ => q3
                .entry(meta.q3_scale)
                .or_insert_with(|| {
                    artifact::q3(&pipeline::build_q3(synth(meta.q3_scale), engine, campaign).1)
                })
                .clone(),
        };
        out.insert(
            format!("{combo:?}"),
            artifact::to_canonical_bytes(&meta.wrap(body)),
        );
    }
    out
}

fn valid_delta() -> ChallengeDelta {
    let probe = World::generate_states(
        SynthConfig {
            seed: SEED,
            scale: SCALE,
        },
        &UsState::study_states(),
    );
    ChallengeDelta {
        state: probe.states[0].state,
        cbg: 0,
        isp: probe.states[0].geography.cbgs[0].isp,
        correction: Correction::Availability { rate_ppm: 50_000 },
    }
}

fn app(capacity: usize, dir: Option<&PathBuf>) -> App {
    App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::serial(),
        cache_capacity: capacity,
        snapshot_dir: dir.cloned(),
        ..AppConfig::default()
    })
}

/// Advances `app` to epoch 1. With a snapshot directory, also waits
/// for the batch's background snapshot to land, so it cannot overwrite
/// a later synchronous one or outlive the directory.
fn challenge(app: &App, delta: ChallengeDelta, dir: Option<&PathBuf>) {
    let reply = app.handle(&post("/v1/challenge", delta_to_json(&delta) + "\n"));
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    if let Some(dir) = dir {
        let file = dir.join(caf_serve::snapshot::file_name(SEED, SCALE, 1));
        while !file.exists() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

/// Asserts the response to `combo` is the reference bytes with their
/// ETag, and that presenting the ETag back gets a `304`.
fn check(app: &App, combo: &Combo, refs: &BTreeMap<String, String>, phase: &str) {
    let expected = &refs[&format!("{combo:?}")];
    let etag = format!("\"{:016x}\"", caf_snap::fnv1a(expected.as_bytes()));
    let response = app.handle(&get(combo, None));
    assert_eq!(response.status, 200, "{phase} {combo:?}");
    assert!(
        response.body == expected.as_bytes(),
        "{phase} {combo:?}: body differs from the fresh render"
    );
    let header = response.headers.iter().find(|(name, _)| name == "ETag");
    assert_eq!(header.map(|(_, v)| v), Some(&etag), "{phase} {combo:?}");
    let revalidated = app.handle(&get(combo, Some(&etag)));
    assert_eq!(revalidated.status, 304, "{phase} {combo:?}");
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caf-identity-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_response_equals_a_fresh_render_on_every_cache_path() {
    let delta = valid_delta();
    let refs = references(delta);
    let combos = combos();

    // Miss: a one-entry cache with no disk tier, and consecutive
    // requests on different keys (epoch 0 / epoch 1 alternate, then the
    // two Q3 worlds), so every request rebuilds its entry.
    let missing = app(1, None);
    challenge(&missing, delta, None);
    let mut order: Vec<&Combo> = combos.iter().filter(|c| c.0 != "q3" && c.3 == 0).collect();
    let later: Vec<&Combo> = combos.iter().filter(|c| c.0 != "q3" && c.3 == 1).collect();
    order = order
        .into_iter()
        .zip(later)
        .flat_map(|(a, b)| [a, b])
        .chain(combos.iter().filter(|c| c.0 == "q3"))
        .collect();
    for combo in &order {
        let before = missing.cache_stats();
        check(&missing, combo, &refs, "miss");
        let after = missing.cache_stats();
        assert_eq!(after.misses, before.misses + 1, "miss {combo:?}");
    }

    // Hit: every entry resident, no computation.
    let dir = temp_dir("hit");
    let warm = app(4, Some(&dir));
    challenge(&warm, delta, Some(&dir));
    for combo in &combos {
        warm.handle(&get(combo, None));
    }
    let before = warm.cache_stats();
    for combo in &combos {
        check(&warm, combo, &refs, "hit");
    }
    let after = warm.cache_stats();
    assert_eq!(
        (after.misses, after.disk_hits),
        (before.misses, before.disk_hits)
    );
    assert_eq!(after.hits, before.hits + 2 * combos.len() as u64);

    // Snapshot restart: the restored entries serve every combination
    // without a rebuild.
    let reply = warm.handle(&post("/v1/snapshot", String::new()));
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    drop(warm);
    let restarted = app(4, Some(&dir));
    assert!(restarted.snapshot_status().loaded);
    for combo in &combos {
        check(&restarted, combo, &refs, "restart");
    }
    assert_eq!(restarted.cache_stats().misses, 0);
    drop(restarted);
    std::fs::remove_dir_all(&dir).unwrap();

    // Disk-tier promotion: a one-entry cache over a disk tier. Once both
    // keys of a pair are spilled, each request promotes its entry.
    let dir = temp_dir("tier");
    let tiered = app(1, Some(&dir));
    challenge(&tiered, delta, Some(&dir));
    for combo in order[..2].iter().chain(&order[order.len() - 2..]) {
        tiered.handle(&get(combo, None));
    }
    for combo in &order {
        let before = tiered.cache_stats();
        check(&tiered, combo, &refs, "disk");
        let after = tiered.cache_stats();
        assert_eq!(after.disk_hits, before.disk_hits + 1, "disk {combo:?}");
        assert_eq!(after.misses, before.misses, "disk {combo:?}");
    }
    drop(tiered);
    std::fs::remove_dir_all(&dir).unwrap();
}
