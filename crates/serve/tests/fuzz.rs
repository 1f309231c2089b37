//! Deterministic fuzz loops over the decoders that read untrusted bytes:
//! snapshot containers and their world and rendered-views sections, HTTP
//! request heads and bodies, `/v1/*` query strings, challenge JSONL and
//! sweep specs. Each loop mutates valid inputs with seeded edits from
//! `caf_exec::prop`, and the invariant is always the same: the decoder
//! returns (a value or a typed error) and never panics or aborts.

use caf_core::EngineConfig;
use caf_exec::prop::{self, Select, VecOf};
use caf_serve::entry::decode_views;
use caf_serve::http::parse_request;
use caf_serve::snapshot::{SECTION_VIEWS, SECTION_WORLD};
use caf_serve::{App, AppConfig, Handler};
use caf_snap::{
    content_hash64, content_hash64_seeded, Reader, SnapError, Snapshot, SnapshotBuilder, Writer,
};
use caf_sweep::SweepSpec;
use caf_synth::challenge::deltas_from_jsonl;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::ops::{Range, RangeInclusive};

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

/// A small challenged world: Vermont (Q1 only), Utah and Illinois (Q1
/// and Q3 blocks, so stored truth entries too), with one availability
/// correction. Its encoding is about 70 KB.
fn small_world() -> World {
    let config = SynthConfig {
        seed: 0xCAF_2024,
        scale: 12_000,
    };
    let mut world = World::generate_states(
        config,
        &[
            caf_geo::UsState::Vermont,
            caf_geo::UsState::Utah,
            caf_geo::UsState::Illinois,
        ],
    );
    let sw = &world.states[0];
    let delta = ChallengeDelta {
        state: sw.state,
        cbg: 0,
        isp: sw.geography.cbgs[0].isp,
        correction: Correction::Availability { rate_ppm: 400_000 },
    };
    world.apply_deltas(&[delta]).unwrap();
    world
}

/// Every truth lookup a campaign over `world` could make: each USAC
/// record in the world's table. (Q3 truth is no part of a world: the Q3
/// analysis draws it block by block.)
fn lookup_all(world: &World) -> usize {
    let mut answered = 0;
    for sw in &world.states {
        for r in &sw.usac.records {
            answered += usize::from(world.truth.get(r.address.id, r.isp).is_some());
        }
    }
    answered
}

#[test]
fn world_decode_gives_a_typed_error_or_a_valid_world() {
    let world = small_world();
    let mut w = Writer::new();
    w.put(&world);
    let section = w.into_bytes();
    let records: usize = world.states.iter().map(|sw| sw.usac.records.len()).sum();
    assert!(records > 0);
    assert_eq!(lookup_all(&world), world.truth.len());
    let decoded: World = Reader::new(&section).get().unwrap();
    assert!(decoded == world);
    let outcomes = std::sync::Mutex::new([0usize; 2]);
    prop::check(CASES, edits(), |edits| {
        // Spread the edits over the whole payload, mutate it, then seal
        // it in a fresh container, so every edit gets past the checksums
        // to the world decoder.
        let edits: Vec<Edit> = edits
            .into_iter()
            .map(|(pos, kind, byte)| ((pos * section.len()) >> 16, kind, byte))
            .collect();
        let payload = mutate(&section, &edits);
        let mut builder = SnapshotBuilder::new(0xCAF_2024, 12_000, world.epoch);
        builder.section(SECTION_WORLD, |w| w.put_raw(&payload));
        let bytes = builder.finish();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let section = snapshot.section(SECTION_WORLD).unwrap();
        let mut r = Reader::new(section);
        let decoded = r.get::<World>();
        outcomes.lock().unwrap()[usize::from(decoded.is_ok())] += 1;
        let Ok(world) = decoded else {
            return;
        };
        // A valid world: it stores no truth (Q1 truth is drawn from
        // re-derived cells), every record answers without panic, and
        // the records built from the decoded geography hold its ids and
        // blocks.
        assert_eq!(world.truth.stored_count(), 0);
        for sw in &world.states {
            for r in &sw.usac.records {
                assert!(
                    world.truth.get(r.address.id, r.isp).is_some(),
                    "{}",
                    r.address.id
                );
            }
            assert!(sw.geography.address_blocks().eq(sw
                .usac
                .records
                .iter()
                .map(|r| (r.address.id, r.address.block))));
        }
        lookup_all(&world);
    });
    // The loop reaches both answers: rejected and decoded worlds.
    let [rejected, valid] = outcomes.into_inner().unwrap();
    assert!(
        rejected > 0 && valid > 0,
        "rejected {rejected}, valid {valid}"
    );
}

#[test]
fn forged_state_count_is_rejected_before_allocating() {
    let world = small_world();
    let mut w = Writer::new();
    w.put(&world);
    // The encoding after the config (seed, scale) and the state count.
    let states = w.into_bytes().split_off(8 + 4 + 8);
    for count in [u64::MAX, 1 << 40, states.len() as u64 + 1] {
        let mut w = Writer::new();
        w.put(&world.config);
        w.put_u64(count);
        w.put_raw(&states);
        let bytes = w.into_bytes();
        let result = Reader::new(&bytes).get::<World>();
        assert!(
            matches!(result, Err(SnapError::UnexpectedEof { .. })),
            "count {count}: {:?}",
            result.map(|_| ())
        );
    }
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
