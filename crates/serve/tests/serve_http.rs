//! End-to-end tests over a real socket: the serving layer must
//! preserve the pipeline's determinism contract *across the network
//! boundary* — response bodies are canonical artifact bytes, identical
//! at any HTTP worker count and any engine worker count.

use caf_core::{artifact, pipeline, EngineConfig, Scenario, ScenarioMeta};
use caf_geo::UsState;
use caf_serve::{client, App, AppConfig, Handler, ServeConfig, Server};
use caf_synth::SynthConfig;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 150;

fn start_server(http_workers: usize, engine: EngineConfig) -> (Server, Arc<App>) {
    let app = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine,
        cache_capacity: 4,
        compute_timeout: Duration::from_secs(120),
        min_scale: 1,
        ..AppConfig::default()
    }));
    let server = Server::start(
        ServeConfig {
            workers: http_workers,
            queue: 32,
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn Handler>,
    )
    .expect("bind ephemeral port");
    (server, app)
}

#[test]
fn endpoints_are_byte_identical_across_worker_counts_and_match_direct_render() {
    // Server A: 1 HTTP worker, serial engine. Server B: 4 HTTP
    // workers, 4 engine workers. Every /v1 endpoint must agree to the
    // byte, and match the artifact bytes rendered without any server.
    let (server_a, _) = start_server(1, EngineConfig::serial());
    let (server_b, _) = start_server(4, EngineConfig::with_workers(4));

    let synth = SynthConfig {
        seed: SEED,
        scale: SCALE,
    };
    let campaign = pipeline::campaign_config(SEED);
    let fixture = Scenario::build(
        synth,
        &UsState::study_states(),
        EngineConfig::serial(),
        campaign,
        &[],
    )
    .unwrap();
    let (_, q3) = pipeline::build_q3(synth, EngineConfig::serial(), campaign);
    let meta = ScenarioMeta::new(SEED, SCALE);
    let expected = [
        ("table2", artifact::table2(&fixture.dataset)),
        (
            "serviceability",
            artifact::serviceability(&fixture.serviceability, None),
        ),
        (
            "compliance",
            artifact::compliance(&fixture.compliance, &fixture.dataset, None),
        ),
        ("q3", artifact::q3(&q3)),
    ];

    for (route, body) in expected {
        let golden = artifact::to_canonical_bytes(&meta.wrap(body)).into_bytes();
        let path = format!("/v1/{route}?seed={SEED}&scale={SCALE}");
        let (status_a, body_a) = client::get(server_a.addr(), &path).unwrap();
        let (status_b, body_b) = client::get(server_b.addr(), &path).unwrap();
        assert_eq!((status_a, status_b), (200, 200), "{route}");
        assert_eq!(
            body_a, golden,
            "server A diverged from direct render on {route}"
        );
        assert_eq!(
            body_b, golden,
            "server B diverged from direct render on {route}"
        );
    }

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn etag_matches_across_servers_and_repeat_requests() {
    let (server_a, _) = start_server(1, EngineConfig::serial());
    let (server_b, _) = start_server(2, EngineConfig::with_workers(2));
    let path = format!("/v1/table2?seed=7&scale={SCALE}");
    let fetch = |addr| {
        let (status, headers, body) = client::get_full(addr, &path).unwrap();
        assert_eq!(status, 200);
        let etag = headers
            .iter()
            .find(|(name, _)| name == "etag")
            .map(|(_, value)| value.clone())
            .expect("ETag header present");
        (etag, body)
    };
    // ETags are derived from the body bytes, so they must agree across
    // servers and across cold/warm requests.
    let (etag_cold, body_cold) = fetch(server_a.addr());
    let (etag_warm, body_warm) = fetch(server_a.addr());
    let (etag_other, body_other) = fetch(server_b.addr());
    assert_eq!(body_cold, body_warm);
    assert_eq!(body_cold, body_other);
    assert_eq!(etag_cold, etag_warm);
    assert_eq!(etag_cold, etag_other);
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn health_metrics_and_errors_over_http() {
    caf_obs::set_enabled(true);
    let (server, _) = start_server(2, EngineConfig::serial());
    let addr = server.addr();

    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = caf_obs::json::parse(String::from_utf8(body).unwrap().trim_end()).unwrap();
    assert_eq!(health.get("status").and_then(|j| j.as_str()), Some("ok"));
    assert_eq!(health.get("epoch").and_then(|j| j.as_u64()), Some(0));

    // A scenario request first, so the report has spans to validate.
    let (status, _) = client::get(addr, &format!("/v1/table2?scale={SCALE}")).unwrap();
    assert_eq!(status, 200);

    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let report = caf_obs::validate_report_json(&text).expect("valid run report");
    let meta = report.get("meta").unwrap();
    assert_eq!(meta.get("tool").unwrap().as_str(), Some("caf-serve"));

    let (status, _) = client::get(addr, "/v1/table2?seed=bogus").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn compute_timeout_sheds_joiners_with_503() {
    // Tiny join timeout + a scenario slow enough (low downscale
    // factor) that the second request reliably arrives mid-flight.
    let app = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::serial(),
        cache_capacity: 4,
        compute_timeout: Duration::from_millis(10),
        min_scale: 1,
        ..AppConfig::default()
    }));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn Handler>,
    )
    .unwrap();
    let addr = server.addr();
    let path = "/v1/table2?seed=11&scale=60";

    let leader = std::thread::spawn(move || client::get(addr, path).unwrap());
    // The scale-60 build takes hundreds of ms in debug builds; 50 ms in
    // is comfortably mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    let (status, body) = client::get(addr, path).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("in flight"), "{text}");
    assert_eq!(app.cache_stats().join_timeouts, 1);

    let (status, _) = leader.join().unwrap();
    assert_eq!(status, 200, "the flight itself must still complete");
    server.shutdown();
}
