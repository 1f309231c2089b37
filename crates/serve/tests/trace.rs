//! End-to-end tests for per-request tracing: deterministic
//! `X-Request-Id`s on every response, the flight recorder behind
//! `GET /v1/debug/traces`, the Prometheus exposition, and — the
//! load-bearing invariant — that tracing is observation-only: artifact
//! bytes are identical with the recorder attached or absent, at any
//! engine worker count.

use caf_core::EngineConfig;
use caf_geo::UsState;
use caf_obs::json::{self, Json};
use caf_obs::TraceId;
use caf_serve::{client, App, AppConfig, Handler, ServeConfig, Server};
use caf_synth::challenge::delta_to_json;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::sync::Arc;

const SEED: u64 = 0xCAF_2024;
/// A high downscale factor (tiny world): these tests exercise the
/// serve path, not the scenario build.
const SCALE: u32 = 2000;

fn start(engine_workers: usize, traced: bool, trace_seed: u64) -> (Server, Arc<App>) {
    let app = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: if engine_workers <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::with_workers(engine_workers)
        },
        ..AppConfig::default()
    }));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue: 16,
            trace_seed,
            recorder: if traced { Some(app.recorder()) } else { None },
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn Handler>,
    )
    .expect("bind ephemeral port");
    (server, app)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value.as_str())
}

/// Every response — success or error — carries an `X-Request-Id`, and
/// the IDs are the deterministic `derive(seed, request-seq)` sequence,
/// so a rerun against the same seed reproduces them.
#[test]
fn every_response_carries_a_deterministic_request_id() {
    caf_obs::set_enabled(true);
    let trace_seed = 0xFEED_FACE;
    let (server, _) = start(1, true, trace_seed);
    let addr = server.addr();
    for (seq, (path, want_status)) in [
        ("/healthz", 200),
        ("/nope", 404),
        ("/v1/table2?seed=bogus", 400),
        ("/v1/table2?epoch=9", 404),
    ]
    .iter()
    .enumerate()
    {
        let (status, headers, _body) = client::get_full(addr, path).unwrap();
        assert_eq!(status, *want_status, "{path}");
        assert_eq!(
            header(&headers, "x-request-id"),
            Some(TraceId::derive(trace_seed, seq as u64).to_hex().as_str()),
            "{path}"
        );
    }
    server.shutdown();
}

/// The acceptance walk: one `/v1/table2` request is followable
/// end-to-end in `/v1/debug/traces` — the route span, the cache miss,
/// the render, the engine's per-state spans, and a total equal to the
/// root `serve.request` duration.
#[test]
fn a_scenario_request_is_followable_in_the_flight_recorder() {
    caf_obs::set_enabled(true);
    let (server, _) = start(2, true, SEED);
    let addr = server.addr();
    let (status, _) = client::get(addr, &format!("/v1/table2?seed={SEED}&scale={SCALE}")).unwrap();
    assert_eq!(status, 200);

    // The warm cache shows up in /healthz occupancy.
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = json::parse(String::from_utf8(body).unwrap().trim_end()).unwrap();
    assert_eq!(
        health
            .get("cache")
            .and_then(|c| c.get("entries"))
            .and_then(Json::as_u64),
        Some(1)
    );

    let (status, body) = client::get(addr, "/v1/debug/traces?route=v1.table2&epoch=0&k=5").unwrap();
    assert_eq!(status, 200);
    let parsed = json::parse(String::from_utf8(body).unwrap().trim_end()).unwrap();
    assert_eq!(parsed.get("matched").and_then(Json::as_u64), Some(1));
    let traces = match parsed.get("traces") {
        Some(Json::Arr(traces)) => traces,
        other => panic!("traces must be an array, got {other:?}"),
    };
    let trace = &traces[0];
    assert_eq!(
        trace.get("id").and_then(Json::as_str),
        Some(TraceId::derive(SEED, 0).to_hex().as_str()),
        "the first request owns the first trace id"
    );
    assert_eq!(trace.get("status").and_then(Json::as_u64), Some(200));
    let annotation = |key: &str| {
        trace
            .get("annotations")
            .and_then(|a| a.get(key))
            .and_then(Json::as_str)
    };
    assert_eq!(annotation("route"), Some("v1.table2"));
    assert_eq!(annotation("cache"), Some("miss"));
    assert_eq!(annotation("epoch"), Some("0"));

    let events = match trace.get("events") {
        Some(Json::Arr(events)) => events,
        other => panic!("events must be an array, got {other:?}"),
    };
    let event = |path: &str| {
        events
            .iter()
            .find(|event| event.get("path").and_then(Json::as_str) == Some(path))
    };
    // The span path through the serving layer...
    let route_chain = "serve.request/serve.route.v1.table2";
    assert!(event(&format!("{route_chain}/cache.lookup")).is_some());
    assert!(event(&format!("{route_chain}/render")).is_some());
    // ...and the engine spans handed off to pool workers.
    assert!(
        events.iter().any(|event| {
            event
                .get("path")
                .and_then(Json::as_str)
                .is_some_and(|path| path.contains("state."))
        }),
        "engine per-state spans must attach to the request trace"
    );
    let root = event("serve.request").expect("root span event");
    assert_eq!(
        trace.get("total_us").and_then(Json::as_u64),
        root.get("dur_us").and_then(Json::as_u64),
        "the trace total is the root span's duration"
    );
    server.shutdown();
}

/// The challenge lifecycle is followable too: the ingest trace carries
/// the incremental-refresh spans, and a post-challenge
/// `/v1/serviceability?epoch=1` read shows up as a cache hit at that
/// epoch (the ingest published the refreshed view).
#[test]
fn challenge_refresh_spans_attach_to_the_ingest_trace() {
    caf_obs::set_enabled(true);
    let (server, _) = start(1, true, 0xC0FFEE);
    let addr = server.addr();

    // A valid (state, cbg, isp) address in the default world.
    let probe = World::generate_states(
        SynthConfig {
            seed: SEED,
            scale: SCALE,
        },
        &UsState::study_states(),
    );
    let delta = ChallengeDelta {
        state: probe.states[0].state,
        cbg: 0,
        isp: probe.states[0].geography.cbgs[0].isp,
        correction: Correction::Availability { rate_ppm: 50_000 },
    };
    let body = delta_to_json(&delta) + "\n";
    let (status, reply) = client::request(
        addr,
        &format!(
            "POST /v1/challenge HTTP/1.1\r\nHost: caf-serve\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
    .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));

    let (status, _) = client::get(addr, "/v1/serviceability?epoch=1").unwrap();
    assert_eq!(status, 200);

    let (status, body) = client::get(addr, "/v1/debug/traces?route=v1.challenge").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let parsed = json::parse(text.trim_end()).unwrap();
    assert_eq!(parsed.get("matched").and_then(Json::as_u64), Some(1));
    for span in ["serve.challenge.refresh", "audit.incremental.refresh"] {
        assert!(
            text.contains(span),
            "ingest trace must carry the {span} span:\n{text}"
        );
    }

    let (status, body) =
        client::get(addr, "/v1/debug/traces?route=v1.serviceability&epoch=1").unwrap();
    assert_eq!(status, 200);
    let parsed = json::parse(String::from_utf8(body).unwrap().trim_end()).unwrap();
    assert_eq!(parsed.get("matched").and_then(Json::as_u64), Some(1));
    let trace = match parsed.get("traces") {
        Some(Json::Arr(traces)) => &traces[0],
        other => panic!("traces must be an array, got {other:?}"),
    };
    assert_eq!(
        trace
            .get("annotations")
            .and_then(|a| a.get("cache"))
            .and_then(Json::as_str),
        Some("hit"),
        "the ingest published epoch 1, so the read must hit"
    );
    server.shutdown();
}

/// Tracing is observation-only: `/v1/table2` bytes are identical with
/// the flight recorder attached or absent, at 1 and 4 engine workers.
#[test]
fn tracing_never_changes_artifact_bytes() {
    caf_obs::set_enabled(true);
    let path = format!("/v1/table2?seed={SEED}&scale={SCALE}");
    let mut bodies: Vec<(String, Vec<u8>)> = Vec::new();
    for engine_workers in [1usize, 4] {
        for traced in [false, true] {
            let (server, _) = start(engine_workers, traced, SEED);
            let (status, body) = client::get(server.addr(), &path).unwrap();
            assert_eq!(status, 200, "workers {engine_workers} traced {traced}");
            server.shutdown();
            bodies.push((format!("workers {engine_workers} traced {traced}"), body));
        }
    }
    let (reference_label, reference) = &bodies[0];
    for (label, body) in &bodies[1..] {
        assert_eq!(
            body, reference,
            "artifact bytes diverged between {reference_label} and {label}"
        );
    }
}

/// `/metrics?format=prometheus` renders the text exposition over the
/// same registry the JSON report reads; unknown formats are a 400.
#[test]
fn metrics_exposes_prometheus_format() {
    caf_obs::set_enabled(true);
    let (server, _) = start(1, true, 3);
    let addr = server.addr();
    let (status, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);

    let (status, body) = client::get(addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("# TYPE"), "{text}");
    assert!(
        text.contains("caf_span_duration_ns_bucket{path=\"serve.request\""),
        "the serve.request span must appear in the exposition:\n{text}"
    );
    assert!(text.lines().all(|line| !line.is_empty()), "{text}");

    // The default JSON report is unchanged and still schema-valid.
    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    caf_obs::validate_report_json(&String::from_utf8(body).unwrap()).expect("valid run report");

    let (status, _) = client::get(addr, "/metrics?format=csv").unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}
