//! `GET /v1/sweep` serves the library's bytes: the response body equals
//! the `caf-sweep` results artifact for the same grid, wrapped in the
//! server's scenario envelope, whether its cells were computed by the
//! request or read back from the cache.

use caf_core::{artifact, EngineConfig, ScenarioMeta};
use caf_serve::{App, AppConfig, Handler, Request};
use caf_sweep::{results_artifact, SweepOptions, SweepRun, SweepSpec};

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 2000;

fn get(query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: "/v1/sweep".to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

#[test]
fn sweep_route_bytes_equal_the_library_run() {
    let app = App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::serial(),
        cache_capacity: 32,
        ..AppConfig::default()
    });
    let grid = [
        ("states", "VT,NH"),
        ("tiers", "10_1,25_3"),
        ("caps", "0.75,1.0"),
        ("rules", "status_quo,full_buildout"),
    ];
    let spec = SweepSpec::from_json(&format!(
        r#"{{
            "seed": {SEED},
            "states": ["VT", "NH"],
            "scales": [{SCALE}],
            "speed_tiers": ["10_1", "25_3"],
            "price_cap_multipliers": [0.75, 1.0],
            "subsidy_rules": ["status_quo", "full_buildout"]
        }}"#
    ))
    .expect("the grid is a valid spec");
    let run = SweepRun::run(&spec, SweepOptions { workers: 2 });
    let expected =
        artifact::to_canonical_bytes(&ScenarioMeta::new(SEED, SCALE).wrap(results_artifact(&run)));

    let cold = app.handle(&get(&grid));
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(String::from_utf8(cold.body).unwrap(), expected, "cold");
    assert_eq!(app.cache_stats().misses, 16);

    let warm = app.handle(&get(&grid));
    assert_eq!(warm.status, 200);
    assert_eq!(String::from_utf8(warm.body).unwrap(), expected, "warm");
    assert_eq!(
        app.cache_stats().misses,
        16,
        "the warm read recomputes nothing"
    );
}
