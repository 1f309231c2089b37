//! A `/v1/sweep` request builds each (state, scale) world at most once,
//! however many of its policy cells miss the cache. Checked in its own
//! test process, so the global registry's `caf.synth.usac.states_built`
//! counter (one per audited state world) counts only this file's builds.

use caf_core::EngineConfig;
use caf_serve::{App, AppConfig, Handler, Request};

fn states_built() -> u64 {
    caf_obs::registry()
        .counter("caf.synth.usac.states_built")
        .get()
}

#[test]
fn a_one_world_sweep_request_builds_one_world() {
    caf_obs::set_enabled(true);
    let app = App::new(AppConfig {
        default_scale: 1000,
        engine: EngineConfig::serial(),
        cache_capacity: 32,
        ..AppConfig::default()
    });
    // One state at one scale: 2 tiers x 4 caps x 2 rules = 16 cells.
    let request = Request {
        method: "GET".to_string(),
        path: "/v1/sweep".to_string(),
        query: [
            ("states", "VT"),
            ("tiers", "10_1,25_3"),
            ("caps", "0.75,1.0,1.25,1.5"),
            ("rules", "status_quo,full_buildout"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    };

    let before = states_built();
    let cold = app.handle(&request);
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(app.cache_stats().misses, 16);
    assert_eq!(states_built() - before, 1, "16 missed cells, one world");

    let before = states_built();
    let warm = app.handle(&request);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body);
    assert_eq!(app.cache_stats().misses, 16);
    assert_eq!(states_built() - before, 0, "a warm request builds nothing");
}
