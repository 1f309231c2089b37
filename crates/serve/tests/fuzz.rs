//! Deterministic fuzz loops over the decoders that read untrusted bytes:
//! snapshot containers and their challenge-log and rendered-views
//! sections (the log through a whole restore), HTTP
//! request heads and bodies, `/v1/*` query strings, challenge JSONL and
//! sweep specs. Each loop mutates valid inputs with seeded edits from
//! `caf_exec::prop`, and the invariant is always the same: the decoder
//! returns (a value or a typed error) and never panics or aborts.

use caf_core::EngineConfig;
use caf_exec::prop::{self, Select, VecOf};
use caf_geo::UsState;
use caf_serve::entry::decode_views;
use caf_serve::http::{parse_request, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use caf_serve::snapshot::{file_name, SECTION_LOG, SECTION_VIEWS};
use caf_serve::{App, AppConfig, Handler};
use caf_snap::{content_hash64, content_hash64_seeded, Reader, Snapshot, SnapshotBuilder};
use caf_sweep::SweepSpec;
use caf_synth::challenge::{delta_to_json, deltas_from_jsonl};
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::ops::{Range, RangeInclusive};
use std::path::PathBuf;

/// Cases per loop.
const CASES: u32 = 2_000;

/// One edit: `(position, kind, byte)`, applied by [`mutate`].
type Edit = (usize, u8, u8);

/// Up to eight edits. Bytes mix uniform noise with the structural
/// characters the decoders branch on.
fn edits() -> VecOf<(Range<usize>, RangeInclusive<u8>, Select<u8>)> {
    let mut bytes: Vec<u8> = b"[]{}\":,\\%+?&= \r\n0123456789-.eu#".to_vec();
    bytes.extend([0x00, 0x7f, 0x80, 0xc3, 0xe2, 0xff]);
    bytes.extend((0..32).map(|i| i * 8));
    prop::vec((0..1 << 16, 0..=4, prop::select(bytes)), 1..9)
}

/// Applies `edits` to a copy of `base`. Kinds: 0 overwrite, 1 insert,
/// 2 delete, 3 truncate, 4 insert a run of up to 64 Ki copies of the
/// byte (deep nesting, long lines, huge counts).
fn mutate(base: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = base.to_vec();
    for &(pos, kind, byte) in edits {
        let at = pos % (out.len() + 1);
        match kind {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let run = vec![byte; pos];
                out.splice(at..at, run);
            }
            _ => {}
        }
    }
    out
}

fn sample_snapshot() -> Vec<u8> {
    let mut b = SnapshotBuilder::new(0xCAF_2024, 150, 2);
    b.section(0x10, |w| w.put_str("world"));
    b.section(0x20, |w| w.put_seq(&[1u64, 2, 3]));
    b.section(0x30, |_| {});
    b.finish()
}

/// Recomputes the header content hash, so a mutated container gets
/// past the checksum and exercises the framing code behind it.
fn reseal(bytes: &mut [u8]) {
    const PREFIX: usize = 8 + 4 + 8 + 4 + 8 + 4;
    if bytes.len() < PREFIX + 8 {
        return;
    }
    let hash = content_hash64_seeded(content_hash64(&bytes[..PREFIX]), &bytes[PREFIX + 8..]);
    bytes[PREFIX..PREFIX + 8].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn snapshot_parse_never_panics_on_resealed_mutations() {
    let base = sample_snapshot();
    prop::check(CASES, edits(), |edits| {
        let mut bytes = mutate(&base, &edits);
        reseal(&mut bytes);
        if let Ok(snapshot) = Snapshot::parse(&bytes) {
            let total: usize = snapshot.sections().map(|(_, p)| p.len()).sum();
            assert!(total <= bytes.len());
        }
    });
}

#[test]
fn parse_request_never_panics() {
    let bases: [&[u8]; 3] = [
        b"GET /v1/table2?scale=150&isp=AT%26T HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"e\"\r\n\r\n",
        b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"cbg\":0}\n\n\n",
        b"GET /v1/sweep?states=VT,UT&tiers=10_1+25_3 HTTP/1.0\n\n",
    ];
    prop::check(CASES, (prop::select(bases), edits()), |(base, edits)| {
        let bytes = mutate(base, &edits);
        let _ = parse_request(&mut &bytes[..]);
    });
}

#[test]
fn deltas_from_jsonl_never_panics() {
    let base = include_str!("../../../testdata/challenge_deltas.jsonl").as_bytes();
    prop::check(CASES, edits(), |edits| {
        let bytes = mutate(base, &edits);
        let _ = deltas_from_jsonl(&String::from_utf8_lossy(&bytes));
    });
}

/// A snapshot whose `VIEWS` section holds one Q1/Q2 entry (13 bodies)
/// and one Q3 entry, in the section's wire form.
fn views_snapshot() -> Vec<u8> {
    let mut b = SnapshotBuilder::new(0xCAF_2024, 150, 1);
    b.section(0x10, |w| w.put_str("world"));
    b.section(SECTION_VIEWS, |w| {
        w.put_u32(2);
        for (kind, bodies) in [(0u8, 13), (1, 1)] {
            w.put_u8(kind);
            w.put_u64(0xCAF_2024);
            w.put_u32(150);
            w.put_u64(u64::from(kind == 0));
            w.put_u32(bodies);
            for i in 0..bodies {
                w.put_str(&format!("{{\n    \"experiment\": \"body {i}\"\n  }}"));
            }
        }
    });
    b.finish()
}

#[test]
fn views_decode_never_panics_on_resealed_mutations() {
    let base = views_snapshot();
    let section = Snapshot::parse(&base)
        .unwrap()
        .section(SECTION_VIEWS)
        .unwrap();
    assert_eq!(decode_views(section).unwrap().len(), 2);
    prop::check(CASES, edits(), |edits| {
        let mut bytes = mutate(&base, &edits);
        reseal(&mut bytes);
        let Ok(snapshot) = Snapshot::parse(&bytes) else {
            return;
        };
        let Some(section) = snapshot.section(SECTION_VIEWS) else {
            return;
        };
        if let Ok(views) = decode_views(section) {
            // Valid views: each entry holds its kind's body count, and
            // the bodies never add up to more than the input held.
            let mut total = 0;
            for (key, bundle) in &views {
                assert_eq!(bundle.bodies().len(), key.kind.bodies(), "{key:?}");
                total += bundle.bodies().iter().map(String::len).sum::<usize>();
            }
            assert!(total <= section.len());
        }
    });
}

#[test]
fn sweep_spec_from_json_gives_a_typed_error() {
    let base = include_str!("../../../testdata/sweep_spec.json").as_bytes();
    assert!(SweepSpec::from_json(std::str::from_utf8(base).unwrap()).is_ok());
    prop::check(CASES, edits(), |edits| {
        let bytes = mutate(base, &edits);
        let _ = SweepSpec::from_json(&String::from_utf8_lossy(&bytes));
    });
}

/// The smallest world scale the fuzzed app accepts: any accepted
/// `scale=`, `q3_scale=` or `scales=` builds a world of a few hundred
/// addresses at most.
const FUZZ_SCALE: u32 = 20_000;

#[test]
fn app_answers_mutated_queries_without_server_errors() {
    let app = App::new(AppConfig {
        default_scale: FUZZ_SCALE,
        min_scale: FUZZ_SCALE,
        engine: EngineConfig::serial(),
        cache_capacity: 64,
        ..AppConfig::default()
    });
    let routes = [
        ("GET", "serviceability"),
        ("GET", "compliance"),
        ("GET", "table2"),
        ("GET", "q3"),
        ("GET", "sweep"),
        ("GET", "debug/traces"),
        ("GET", "challenge"),
        ("POST", "challenge"),
        ("POST", "snapshot"),
    ];
    let queries: [&[u8]; 4] = [
        b"seed=7&scale=20000&isp=AT%26T&q3_scale=30000&epoch=0&workers=2",
        b"isp=frontier&q3_scale=25000&epoch=1&scale=20001",
        b"states=VT,NH&scales=20000,30000&tiers=10_1,25_3&caps=0.75,1.0&rules=status_quo,targeted_rural",
        b"k=5&route=v1.table2&epoch=0&format=prometheus",
    ];
    let strategy = (prop::select(routes), prop::select(queries), edits());
    let statuses = std::sync::Mutex::new(std::collections::BTreeMap::new());
    prop::check(CASES, strategy, |((method, route), query, edits)| {
        let mut head = format!("{method} /v1/{route}?").into_bytes();
        head.extend(mutate(query, &edits));
        head.extend_from_slice(b" HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let Ok(request) = parse_request(&mut &head[..]) else {
            return;
        };
        let response = app.handle(&request);
        assert!(
            matches!(response.status, 200..=299 | 304 | 400..=499),
            "{} for {method} /v1/{route} {:?}: {}",
            response.status,
            request.query,
            String::from_utf8_lossy(&response.body)
        );
        *statuses.lock().unwrap().entry(response.status).or_insert(0) += 1;
    });
    // The loop reaches both answers: built scenarios and rejections.
    let statuses = statuses.into_inner().unwrap();
    assert!(statuses.contains_key(&200) && statuses.contains_key(&400));
}

fn post(path: &str, body: &str) -> Request {
    let head = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    parse_request(&mut head.as_bytes()).unwrap()
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caf-fuzz-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deltas a `LOG` section holds, if it decodes.
fn decode_log(bytes: &[u8]) -> Option<Vec<ChallengeDelta>> {
    let mut r = Reader::new(bytes);
    let log = r.get_seq().ok()?;
    r.finish().ok()?;
    Some(log)
}

/// A restore reads its world from the `LOG` section alone: each mutated
/// log, resealed at the header epoch of the server that wrote it, either
/// installs generation plus a replay of the decoded log, or leaves the
/// server at epoch 0 with the rejection counted. It never panics.
#[test]
fn mutated_snapshot_logs_replay_or_restore_no_world() {
    caf_obs::set_enabled(true);
    let rejected = || {
        caf_obs::registry()
            .counter("caf.snap.restore_rejected")
            .get()
    };
    let config = AppConfig {
        default_scale: FUZZ_SCALE,
        min_scale: FUZZ_SCALE,
        engine: EngineConfig::serial(),
        ..AppConfig::default()
    };
    let seed = config.default_seed;
    let pristine = World::generate_states(
        SynthConfig {
            seed,
            scale: FUZZ_SCALE,
        },
        &UsState::study_states(),
    );
    let sw = pristine
        .states
        .iter()
        .find(|sw| sw.geography.cbgs.len() >= 3)
        .expect("a study state with three CBGs");
    let deltas: Vec<ChallengeDelta> = (0..3)
        .map(|cbg| ChallengeDelta {
            state: sw.state,
            cbg,
            isp: sw.geography.cbgs[cbg].isp,
            correction: if cbg == 1 {
                Correction::CertifiedTier {
                    down_mbps: 25,
                    up_mbps: 3,
                }
            } else {
                Correction::Availability { rate_ppm: 400_000 }
            },
        })
        .collect();

    // The log of a server that took three batches. Its background
    // snapshot writes stay in their own directory.
    let written = scratch_dir("log-written");
    let section = {
        let app = App::new(AppConfig {
            snapshot_dir: Some(written.clone()),
            ..config.clone()
        });
        for delta in &deltas {
            let response = app.handle(&post("/v1/challenge", &(delta_to_json(delta) + "\n")));
            assert_eq!(response.status, 200);
        }
        assert_eq!(app.handle(&post("/v1/snapshot", "")).status, 200);
        let bytes = std::fs::read(written.join(file_name(seed, FUZZ_SCALE, 3))).unwrap();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        snapshot.section(SECTION_LOG).unwrap().to_vec()
    };
    assert_eq!(decode_log(&section).as_deref(), Some(&deltas[..]));

    let dir = scratch_dir("log-restored");
    let outcomes = std::sync::Mutex::new([0usize; 2]);
    prop::check(CASES, edits(), |edits| {
        // Spread the edits over the whole section, then seal it in a
        // fresh container, so every edit gets past the checksums.
        let edits: Vec<Edit> = edits
            .into_iter()
            .map(|(pos, kind, byte)| ((pos * section.len()) >> 16, kind, byte))
            .collect();
        let payload = mutate(&section, &edits);
        let mut builder = SnapshotBuilder::new(seed, FUZZ_SCALE, 3);
        builder.section(SECTION_LOG, |w| w.put_raw(&payload));
        std::fs::write(dir.join(file_name(seed, FUZZ_SCALE, 3)), builder.finish()).unwrap();
        let expected = decode_log(&payload)
            .filter(|log| log.len() == 3)
            .and_then(|log| {
                let mut world = pristine.clone();
                world.apply_deltas(&log).ok().map(|_| world)
            });

        let before = rejected();
        let app = App::new(AppConfig {
            snapshot_dir: Some(dir.clone()),
            ..config.clone()
        });
        let live = app.live_world();
        outcomes.lock().unwrap()[usize::from(expected.is_some())] += 1;
        match expected {
            Some(world) => {
                assert_eq!(app.live_epoch(), 3);
                assert!(live == Some(world), "the installed world is not the replay");
            }
            None => {
                assert_eq!(app.live_epoch(), 0);
                assert!(live.is_none());
                assert_eq!(rejected() - before, 1);
            }
        }
    });
    // The loop reaches both answers: rejected and replayed logs.
    let [rejected, replayed] = outcomes.into_inner().unwrap();
    assert!(
        rejected > 0 && replayed > 0,
        "rejected {rejected}, replayed {replayed}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&written);
}

/// What a server must answer on one connection that carries `bytes` and
/// then half-closes: one status per request up to the first that fails
/// to parse (answered, then the connection closes) or asks to close.
/// This is the server's own parser over the same bytes, so the framing
/// matches the server's exactly.
fn expected_statuses(bytes: &[u8]) -> Vec<Result<(), u16>> {
    use std::io::BufRead;
    let mut reader = std::io::BufReader::new(bytes);
    let mut out = Vec::new();
    while !reader.fill_buf().unwrap().is_empty() {
        match parse_request(&mut reader) {
            Ok(request) => {
                out.push(Ok(()));
                if request.wants_close() {
                    break;
                }
            }
            Err(err) => {
                out.push(Err(err.status));
                break;
            }
        }
    }
    out
}

/// Splits a byte stream of responses into `(status, closes)` pairs.
fn responses(mut raw: &[u8]) -> Vec<(u16, bool)> {
    let mut out = Vec::new();
    while let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
        let head = std::str::from_utf8(&raw[..split])
            .unwrap()
            .to_ascii_lowercase();
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        out.push((status, head.contains("\r\nconnection: close")));
        raw = &raw[split + 4 + len..];
    }
    assert!(
        raw.is_empty(),
        "a cut response: {:?}",
        String::from_utf8_lossy(raw)
    );
    out
}

/// Sends `bytes` on a fresh connection, half-closes it, and reads every
/// response up to the server's close.
fn exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<(u16, bool)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // The server stops reading at a request it cannot parse, so the
    // rest of a long write may be refused; its answer is still there
    // to read.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    // A reset after the last response ends the stream like an EOF.
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        raw.extend_from_slice(&chunk[..n]);
    }
    responses(&raw)
}

#[test]
fn every_request_on_a_connection_gets_a_typed_status() {
    let app = App::new(AppConfig {
        default_scale: FUZZ_SCALE,
        min_scale: FUZZ_SCALE,
        engine: EngineConfig::serial(),
        ..AppConfig::default()
    });
    let server = caf_serve::Server::start(
        caf_serve::ServeConfig {
            workers: 1,
            ..caf_serve::ServeConfig::default()
        },
        std::sync::Arc::new(app),
    )
    .unwrap();
    let addr = server.addr();

    // The caps bind the second request on a connection as they bind
    // the first: each is answered, and then the connection closes.
    let valid: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";
    let long_head = format!(
        "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
        "y".repeat(MAX_HEAD_BYTES)
    );
    let long_body = format!(
        "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    for (second, status) in [(long_head.as_bytes(), 431), (long_body.as_bytes(), 413)] {
        let bytes = [valid, second, valid].concat();
        assert_eq!(exchange(addr, &bytes), [(200, false), (status, true)]);
    }

    let bases: [&[u8]; 4] = [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /v1/table2?scale=20000&isp=AT%26T HTTP/1.1\r\nIf-None-Match: \"e\"\r\n\r\n",
        b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"cbg\":0}\n\n\n",
        b"GET /v1/serviceability?scale=20000 HTTP/1.0\nConnection: keep-alive\n\n",
    ];
    let request = (prop::select(bases), edits(), prop::any_bool());
    let strategy = prop::vec(request, 1..5);
    // Cases that ended in a parse error, and cases that answered two or
    // more requests on the connection.
    let reached = std::sync::Mutex::new([0usize; 2]);
    prop::check(CASES / 2, strategy, |requests| {
        // Each request is a base, mutated or not.
        let bytes: Vec<u8> = requests
            .iter()
            .flat_map(|(base, edits, mutated)| {
                if *mutated {
                    mutate(base, edits)
                } else {
                    base.to_vec()
                }
            })
            .collect();
        let expected = expected_statuses(&bytes);
        let got = exchange(addr, &bytes);
        assert_eq!(got.len(), expected.len(), "{got:?} for {expected:?}");
        for (i, (&(status, closes), want)) in got.iter().zip(&expected).enumerate() {
            match want {
                Ok(()) => assert!(
                    matches!(status, 200..=299 | 304 | 400..=499),
                    "response {i}: {status}"
                ),
                // A parse error is answered with its own status and
                // closes the connection.
                Err(want) => assert_eq!((status, closes), (*want, true), "response {i}"),
            }
            assert!(!closes || i + 1 == got.len(), "response {i} closes early");
        }
        let mut reached = reached.lock().unwrap();
        reached[0] += usize::from(matches!(expected.last(), Some(Err(_))));
        reached[1] += usize::from(got.len() >= 2);
    });
    let [parse_errors, kept] = reached.into_inner().unwrap();
    assert!(
        parse_errors > 0 && kept > 0,
        "parse errors {parse_errors}, kept {kept}"
    );
    server.shutdown();
}
