//! The application handler: routes HTTP requests to cached scenario
//! computations and serves canonical artifact bytes.
//!
//! The cache key is the *canonical scenario identity* — the parameters
//! that change the result. Compute-side knobs (`workers=`) are
//! deliberately excluded: asking for the same scenario at a different
//! worker count must hit the same entry, and — by the engine's
//! determinism contract — would have produced byte-identical artifacts
//! anyway. That contract is what lets `/v1/*` responses be compared
//! byte-for-byte against `repro --artifacts` goldens in CI.
//!
//! A cache entry is the scenario's rendered artifact bodies (see
//! [`crate::entry`]). A read picks its body and wraps it in the
//! request's `"scenario"` block ([`artifact::envelope`]) — the one part
//! of the response that depends on query values outside the key
//! (`q3_scale` on Q1/Q2 routes) — so a warm read costs a copy and a
//! hash, never a render.
//!
//! ## Challenges and epochs
//!
//! The server is not just a batch cache: `POST /v1/challenge` ingests a
//! JSONL stream of [`ChallengeDelta`]s against the server's *default*
//! `(seed, scale)` scenario, advancing a live epoch-versioned world.
//! Each accepted batch is applied via [`World::apply_deltas`] (atomic —
//! an invalid delta rejects the whole batch with `400`) and recomputed
//! incrementally via [`IncrementalAudit::refresh`], which re-audits only
//! the invalidated (state, CBG, ISP) cells. The refreshed scenario is
//! rendered and published into the scenario cache under its epoch, so
//! reads are consistent without any cache flush:
//!
//! * `GET /v1/{serviceability,compliance,table2}?epoch=E` serves the
//!   world after the first `E` deltas (`epoch` defaults to `0`, the
//!   pristine pre-challenge world — existing clients and the CI goldens
//!   are unaffected). An epoch not yet reached is a `404`.
//! * A historical epoch that has fallen out of the cache is rebuilt
//!   from scratch from the delta log prefix; by the determinism
//!   contract the bytes equal what the incremental path produced. Only
//!   that rebuild reads the live world: a hit takes no lock on it.
//! * `/v1/q3` takes no `epoch`: challenges correct the Q1/Q2 CAF-Map
//!   world, not the Q3 monopoly comparison's dedicated world.
//!
//! Conditional GETs: every `/v1/*` artifact response carries a
//! deterministic FNV-1a `ETag` of its bytes; a request presenting it
//! back via `If-None-Match` is answered `304 Not Modified` with no body.
//!
//! ## Snapshots and the disk tier
//!
//! With [`AppConfig::snapshot_dir`] set, the app persists its state as
//! `caf-snap` containers (see [`crate::snapshot`]): `POST /v1/snapshot`
//! writes one synchronously, every accepted challenge batch writes one
//! on a detached background thread, and startup restores the newest
//! compatible snapshot. The restore is split for latency: the warm
//! cache entries (rendered bodies) are installed synchronously — the
//! next `GET` is served from them without rebuilding the world — while
//! the live world + challenge log decode on a background thread behind
//! a condvar gate that rebuilds and challenge batches wait on. The same
//! directory hosts the disk LRU tier (`tier/`): cache evictions spill
//! their bodies there and are promoted back on demand, byte-identically.

use crate::cache::{CacheError, CacheOutcome, ScenarioCache, SpillHook};
use crate::entry::{body_index, decode_views, put_views, Bundle, Kind, ScenarioKey, TierSpill};
use crate::http::{Request, Response};
use crate::server::Handler;
use crate::snapshot::{
    self, SnapshotStatus, SECTION_LOG, SECTION_VIEWS, SECTION_WORLD, SECTION_WORLD_RETIRED,
};
use crate::tier::DiskTier;
use caf_core::pipeline::{self, campaign_config, Scenario};
use caf_core::{
    artifact, Audit, AuditIndex, ComplianceAnalysis, EngineConfig, IncrementalAudit, ProgramRules,
    ScenarioMeta, ServiceabilityAnalysis, SubsidyRule,
};
use caf_geo::UsState;
use caf_obs::json::Json;
use caf_obs::{FlightRecorder, Slo};
use caf_snap::{fnv1a, write_atomic, Reader, SnapError, Snapshot, SnapshotBuilder};
use caf_sweep::SweepSpec;
use caf_synth::challenge::deltas_from_jsonl;
use caf_synth::{ChallengeDelta, Isp, SynthConfig, World};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// The live, epoch-versioned default scenario: the world of record, the
/// incremental audit tracking it cell-by-cell, and the full delta log
/// (the source of truth for rebuilding any historical epoch).
struct Live {
    world: World,
    /// Built on first use: the fresh-boot path materializes it with the
    /// world, but a snapshot restore leaves it `None` (building it is a
    /// full audit — exactly the cost snapshots exist to avoid) and the
    /// next challenge batch pays for it lazily.
    inc: Option<IncrementalAudit>,
    log: Vec<ChallengeDelta>,
}

/// Blocks what needs the live world — a rebuild of a past epoch, a
/// challenge batch, a snapshot write — while the background thread is
/// still decoding the snapshot's world + challenge log. The gate starts
/// open, closes for the duration of a restore, and reopens whether the
/// decode succeeded or not (failure just means `live` stays empty — a
/// 404 for historical epochs, exactly as on a cold boot).
struct RestoreGate {
    restoring: Mutex<bool>,
    done: Condvar,
}

impl RestoreGate {
    fn new() -> RestoreGate {
        RestoreGate {
            restoring: Mutex::new(false),
            done: Condvar::new(),
        }
    }

    fn begin(&self) {
        *self.restoring.lock().unwrap() = true;
    }

    fn finish(&self) {
        *self.restoring.lock().unwrap() = false;
        self.done.notify_all();
    }

    fn wait(&self) {
        let mut restoring = self.restoring.lock().unwrap();
        while *restoring {
            restoring = self.done.wait(restoring).unwrap();
        }
    }
}

/// Tuning for [`App`].
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Seed used when a request omits `seed=`.
    pub default_seed: u64,
    /// Downscale factor used when a request omits `scale=`.
    pub default_scale: u32,
    /// Base engine budget for scenario computation; concurrent
    /// computations split it via [`EngineConfig::share`].
    pub engine: EngineConfig,
    /// Ready entries the scenario cache retains (LRU beyond this).
    pub cache_capacity: usize,
    /// How long a request waits on another request's in-flight
    /// computation before giving up with `503`.
    pub compute_timeout: Duration,
    /// Smallest accepted `scale=` (a low downscale factor means a huge
    /// world; this bounds per-request memory/CPU).
    pub min_scale: u32,
    /// Recent traces the flight recorder retains (and, separately, the
    /// slow/error keep-list bound). `0` disables trace capture;
    /// deterministic `X-Request-Id`s are minted either way.
    pub trace_capacity: usize,
    /// Requests slower than this are always kept by the flight
    /// recorder; doubles as each route's SLO latency target.
    pub slow_ms: u64,
    /// Directory for world snapshots and the disk tier. `None` (the
    /// default) disables both: no files are written, evictions are
    /// discarded, and every boot is a cold build.
    pub snapshot_dir: Option<PathBuf>,
    /// Spilled entries the disk tier retains (LRU deletion beyond
    /// this). Only meaningful with `snapshot_dir` set.
    pub disk_tier_capacity: usize,
}

impl Default for AppConfig {
    fn default() -> AppConfig {
        AppConfig {
            default_seed: 0xCAF_2024,
            default_scale: 150,
            engine: EngineConfig::auto(),
            cache_capacity: 4,
            compute_timeout: Duration::from_secs(120),
            min_scale: 1,
            trace_capacity: 256,
            slow_ms: 500,
            snapshot_dir: None,
            disk_tier_capacity: 16,
        }
    }
}

/// The fixed route table: request path, span label, and the short route
/// name used for trace annotations and `caf.slo.<route>.*` counters.
/// Only recognized paths get their own label — span names and SLO
/// counters are interned forever, so arbitrary client paths (the empty
/// sentinel path never matches a request) must all share `not_found`.
const ROUTES: &[(&str, &str, &str)] = &[
    ("/healthz", "serve.route.healthz", "healthz"),
    ("/metrics", "serve.route.metrics", "metrics"),
    ("/quitquitquit", "serve.route.quitquitquit", "quitquitquit"),
    (
        "/v1/serviceability",
        "serve.route.v1.serviceability",
        "v1.serviceability",
    ),
    (
        "/v1/compliance",
        "serve.route.v1.compliance",
        "v1.compliance",
    ),
    ("/v1/table2", "serve.route.v1.table2", "v1.table2"),
    ("/v1/q3", "serve.route.v1.q3", "v1.q3"),
    ("/v1/sweep", "serve.route.v1.sweep", "v1.sweep"),
    ("/v1/challenge", "serve.route.v1.challenge", "v1.challenge"),
    ("/v1/snapshot", "serve.route.v1.snapshot", "v1.snapshot"),
    (
        "/v1/debug/traces",
        "serve.route.debug.traces",
        "debug.traces",
    ),
    ("", "serve.route.not_found", "not_found"),
];

/// Resolves a request path to its `(span label, short name)` pair.
fn route_entry(path: &str) -> (&'static str, &'static str) {
    ROUTES
        .iter()
        .find(|&&(route_path, _, _)| !route_path.is_empty() && route_path == path)
        .map_or(
            ("serve.route.not_found", "not_found"),
            |&(_, label, short)| (label, short),
        )
}

/// The serving application: endpoint routing + scenario cache + the
/// live challenge scenario.
pub struct App {
    config: AppConfig,
    cache: ScenarioCache<ScenarioKey, Bundle>,
    tier: Option<Arc<DiskTier>>,
    active_computes: Arc<AtomicUsize>,
    live: Arc<Mutex<Option<Live>>>,
    /// The newest epoch a read may ask for: the live world's epoch once
    /// its entry is published, and during a snapshot restore the
    /// snapshot's epoch. Reads check it without touching `live`.
    reached: Arc<AtomicU64>,
    restore: Arc<RestoreGate>,
    snap_status: SnapshotStatus,
    /// At most one background snapshot write at a time; a batch that
    /// lands while one is in flight skips its write (the next batch
    /// will capture both).
    snapshot_inflight: Arc<AtomicBool>,
    /// Serializes all snapshot writes (background and `POST
    /// /v1/snapshot`): two writers targeting the same epoch would race
    /// on the same temp file.
    snapshot_write_lock: Arc<Mutex<()>>,
    recorder: Arc<FlightRecorder>,
    /// One SLO per fixed route, keyed by span label.
    slos: BTreeMap<&'static str, Slo>,
    started: Instant,
}

/// RAII share of the compute budget; see [`App::compute_engine`].
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl App {
    /// Creates the application with the given tuning. With
    /// [`AppConfig::snapshot_dir`] set this also opens the disk tier
    /// and restores the newest compatible snapshot: cache entries are
    /// installed synchronously (they are what makes the first request
    /// fast), while the live world + challenge log decode on a
    /// background thread behind a `RestoreGate`. Any problem with the
    /// snapshot — missing, truncated, corrupt, wrong version, wrong
    /// scenario — degrades to a cold build, never to an error.
    pub fn new(config: AppConfig) -> App {
        let tier = config.snapshot_dir.as_ref().and_then(|dir| {
            match DiskTier::open(&dir.join("tier"), config.disk_tier_capacity) {
                Ok(tier) => Some(Arc::new(tier)),
                Err(error) => {
                    eprintln!("caf-serve: disk tier disabled ({error})");
                    None
                }
            }
        });
        let cache = match &tier {
            Some(tier) => ScenarioCache::with_spill(
                config.cache_capacity,
                Arc::new(TierSpill {
                    tier: Arc::clone(tier),
                }) as Arc<dyn SpillHook<ScenarioKey, Bundle>>,
            ),
            None => ScenarioCache::new(config.cache_capacity),
        };
        let live: Arc<Mutex<Option<Live>>> = Arc::new(Mutex::new(None));
        let reached = Arc::new(AtomicU64::new(0));
        let restore = Arc::new(RestoreGate::new());
        let snap_status = match &config.snapshot_dir {
            Some(dir) => restore_snapshot(dir, &config, &cache, &live, &reached, &restore),
            None => SnapshotStatus::default(),
        };

        let slow_us = config.slow_ms.saturating_mul(1_000);
        let recorder = Arc::new(FlightRecorder::new(config.trace_capacity, slow_us));
        // Every route gets the same latency target (the slow-request
        // threshold) and a 10% error budget; `metrics_check
        // --max-slo-burn` turns the resulting burn fraction into a gate.
        let slos = ROUTES
            .iter()
            .map(|&(_, label, short)| (label, Slo::new(short, slow_us, 100_000)))
            .collect();
        App {
            config,
            cache,
            tier,
            active_computes: Arc::new(AtomicUsize::new(0)),
            live,
            reached,
            restore,
            snap_status,
            snapshot_inflight: Arc::new(AtomicBool::new(false)),
            snapshot_write_lock: Arc::new(Mutex::new(())),
            recorder,
            slos,
            started: Instant::now(),
        }
    }

    /// How this process started: cold, or restored from which snapshot.
    pub fn snapshot_status(&self) -> &SnapshotStatus {
        &self.snap_status
    }

    /// The flight recorder `/v1/debug/traces` reads; hand a clone to
    /// [`crate::ServeConfig::recorder`] so the accept path files traces
    /// into it.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Exact cache counters (used by `serve_bench` for the hit ratio).
    pub fn cache_stats(&self) -> crate::cache::StatsSnapshot {
        self.cache.stats()
    }

    /// The live challenge epoch (0 until the first accepted batch).
    /// While a snapshot's world is still decoding in the background,
    /// this reports the snapshot's epoch — the epoch the server is
    /// already answering cached reads at.
    pub fn live_epoch(&self) -> u64 {
        self.reached.load(Ordering::SeqCst)
    }

    /// `GET /healthz`: liveness plus staleness — the live challenge
    /// epoch, process uptime, cache and disk-tier occupancy, and how
    /// this process started (cold vs snapshot restore), as canonical
    /// (sorted-key) JSON.
    fn healthz_response(&self) -> Response {
        let tier = self.tier.as_ref().map(|tier| tier.stats());
        let snapshot_age_s = self.snap_status.mtime.and_then(|mtime| {
            SystemTime::now()
                .duration_since(mtime)
                .ok()
                .map(|age| age.as_secs())
        });
        let mut body = Json::Obj(vec![
            (
                "cache".to_string(),
                Json::Obj(vec![
                    (
                        "capacity".to_string(),
                        Json::UInt(self.cache.capacity() as u64),
                    ),
                    ("entries".to_string(), Json::UInt(self.cache.len() as u64)),
                ]),
            ),
            (
                "disk_tier".to_string(),
                Json::Obj(vec![
                    (
                        "bytes".to_string(),
                        Json::UInt(tier.map_or(0, |stats| stats.bytes)),
                    ),
                    (
                        "capacity".to_string(),
                        Json::UInt(tier.map_or(0, |stats| stats.capacity as u64)),
                    ),
                    ("enabled".to_string(), Json::Bool(tier.is_some())),
                    (
                        "entries".to_string(),
                        Json::UInt(tier.map_or(0, |stats| stats.entries as u64)),
                    ),
                ]),
            ),
            ("epoch".to_string(), Json::UInt(self.live_epoch())),
            (
                "snapshot".to_string(),
                Json::Obj(vec![
                    (
                        "age_s".to_string(),
                        snapshot_age_s.map_or(Json::Null, Json::UInt),
                    ),
                    ("epoch".to_string(), Json::UInt(self.snap_status.epoch)),
                    (
                        "file".to_string(),
                        self.snap_status.file.clone().map_or(Json::Null, Json::Str),
                    ),
                    ("loaded".to_string(), Json::Bool(self.snap_status.loaded)),
                    (
                        "restore_us".to_string(),
                        Json::UInt(self.snap_status.restore_us),
                    ),
                ]),
            ),
            ("status".to_string(), Json::Str("ok".to_string())),
            (
                "uptime_s".to_string(),
                Json::UInt(self.started.elapsed().as_secs()),
            ),
        ])
        .to_compact();
        body.push('\n');
        Response::json(body.into_bytes())
    }

    /// `GET /v1/debug/traces`: the flight recorder as canonical JSON —
    /// top-`k` traces by duration (default 20), filterable by
    /// `route=<short name>` and `epoch=<n>` annotations.
    fn debug_traces_response(&self, request: &Request) -> Response {
        let k = match parse_or(request, "k", 20usize) {
            Ok(k) => k,
            Err(response) => return *response,
        };
        let mut body = self
            .recorder
            .debug_json(request.param("route"), request.param("epoch"), k)
            .to_pretty();
        body.push('\n');
        Response::json(body.into_bytes())
    }

    /// The `/metrics` report for this server process. `?format=prometheus`
    /// switches to the text exposition rendered over the same registry;
    /// the default (`format=json` or no parameter) is the RunReport.
    fn metrics_response(&self, request: &Request) -> Response {
        match request.param("format") {
            None | Some("json") => self.metrics_report_response(),
            Some("prometheus") => {
                Response::text(caf_obs::render_prometheus(caf_obs::registry()).into_bytes())
            }
            Some(other) => Response::error(
                400,
                &format!("unknown format {other:?}; expected json or prometheus"),
            ),
        }
    }

    fn metrics_report_response(&self) -> Response {
        let mut meta = BTreeMap::new();
        meta.insert("tool".to_string(), "caf-serve".to_string());
        meta.insert("seed".to_string(), self.config.default_seed.to_string());
        meta.insert(
            "workers".to_string(),
            self.config.engine.workers.to_string(),
        );
        meta.insert("scale".to_string(), self.config.default_scale.to_string());
        meta.insert(
            "cache_capacity".to_string(),
            self.config.cache_capacity.to_string(),
        );
        meta.insert("epoch".to_string(), self.live_epoch().to_string());
        let mut body = caf_obs::RunReport::collect(meta).to_json_pretty();
        body.push('\n');
        Response::json(body.into_bytes())
    }

    /// Claims a share of the engine budget for one computation. The
    /// split is `base.share(active)` so two concurrent cold scenarios
    /// each get half the workers instead of oversubscribing the host.
    fn compute_engine(&self, base: EngineConfig) -> (EngineConfig, ActiveGuard) {
        let active = self.active_computes.fetch_add(1, Ordering::SeqCst) + 1;
        caf_obs::gauge("caf.serve.computes.active", active as u64);
        (
            base.share(active),
            ActiveGuard(Arc::clone(&self.active_computes)),
        )
    }

    /// Handles `POST /v1/challenge`: parses the JSONL delta batch,
    /// applies it to the live world (atomically — any invalid delta
    /// rejects the batch), refreshes the incremental audit over the
    /// invalidated cells only, and renders the refreshed scenario into
    /// the scenario cache under the new epoch.
    fn challenge_response(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => return Response::error(400, "challenge body must be UTF-8 JSONL"),
        };
        let deltas = match deltas_from_jsonl(body) {
            Ok(deltas) => deltas,
            Err(message) => {
                return Response::error(400, &format!("invalid delta stream: {message}"))
            }
        };
        if deltas.is_empty() {
            return Response::error(400, "challenge batch contains no deltas");
        }

        let seed = self.config.default_seed;
        let scale = self.config.default_scale;
        // A restored world may still be decoding; wait for the gate
        // *before* taking the live lock (the installer takes it too).
        self.restore.wait();
        let mut slot = self.live.lock().unwrap();
        if slot.as_ref().is_none_or(|live| live.inc.is_none()) {
            // First batch since boot: build what the live scenario lacks
            // (one full audit; every later batch is incremental). A fresh
            // boot has no world yet; a snapshot-restored world has no
            // incremental audit (it is a full audit's worth of state, so
            // it is not persisted). By the determinism contract, auditing
            // the restored world at epoch E equals the audit a
            // never-restarted server carried to epoch E incrementally.
            // The mutex is the single-flight — concurrent first batches
            // queue.
            let (engine, _guard) = self.compute_engine(self.config.engine);
            let _span = caf_obs::span("serve.challenge.materialize");
            let synth = SynthConfig { seed, scale };
            let live = slot.get_or_insert_with(|| Live {
                world: World::generate_states_on(synth, &UsState::study_states(), engine),
                inc: None,
                log: Vec::new(),
            });
            let audit = Audit::new(pipeline::audit_config(synth, campaign_config(seed, engine)));
            live.inc = Some(IncrementalAudit::build(audit, &live.world, engine));
        }
        let live = slot.as_mut().expect("materialized above");

        let outcome = match live.world.apply_deltas(&deltas) {
            Ok(outcome) => outcome,
            Err(error) => return Response::error(400, &format!("challenge rejected: {error}")),
        };
        let dirty = outcome.dirty_cells();
        {
            let (engine, _guard) = self.compute_engine(self.config.engine);
            let _span = caf_obs::span("serve.challenge.refresh");
            live.inc
                .as_mut()
                .expect("materialized above")
                .refresh(&live.world, &outcome, engine);
        }
        live.log.extend_from_slice(&deltas);
        caf_obs::count("caf.serve.challenge.batches", 1);
        caf_obs::count("caf.serve.challenge.applied", outcome.applied as u64);
        caf_obs::gauge("caf.serve.challenge.epoch", outcome.epoch);
        caf_obs::trace::annotate("epoch", &outcome.epoch.to_string());

        // Publish the refreshed scenario, rendered, so reads at this
        // epoch hit the cache instead of rebuilding from scratch. The
        // epoch becomes readable only once its entry is in place.
        let dataset = live.inc.as_ref().expect("materialized above").dataset();
        let epoch = live.world.epoch;
        drop(slot);
        let index = AuditIndex::build_at(&dataset, epoch);
        let bundle = Bundle::q12(
            &dataset,
            &ServiceabilityAnalysis::from_index(&index),
            &ComplianceAnalysis::from_index(&dataset, &index),
        );
        self.cache.insert(
            ScenarioKey {
                kind: Kind::Q12,
                seed,
                scale,
                epoch,
            },
            bundle,
        );
        self.reached.fetch_max(epoch, Ordering::SeqCst);
        // Persist the advanced world off the request path, so a crash
        // after this response restarts at (or near) the new epoch.
        self.spawn_snapshot_write();

        let mut body = Json::Obj(vec![
            ("applied".to_string(), Json::UInt(outcome.applied as u64)),
            ("cells_refreshed".to_string(), Json::UInt(dirty as u64)),
            ("epoch".to_string(), Json::UInt(epoch)),
        ])
        .to_compact();
        body.push('\n');
        Response::json(body.into_bytes())
    }

    /// Handles `POST /v1/snapshot`: writes a snapshot synchronously and
    /// reports what was written. The synchronous form exists for
    /// deterministic orchestration (CI snapshots then restarts); the
    /// challenge path writes the same container in the background.
    fn snapshot_response(&self) -> Response {
        let Some(dir) = self.config.snapshot_dir.clone() else {
            return Response::error(
                400,
                "snapshots are disabled; start the server with --snapshot-dir",
            );
        };
        self.restore.wait();
        let (world, log, epoch) = self.snapshot_source();
        let views = self.cache.ready_entries();
        let _write = self.snapshot_write_lock.lock().unwrap();
        match write_snapshot_file(
            &dir,
            self.config.default_seed,
            self.config.default_scale,
            epoch,
            world.as_ref(),
            &log,
            &views,
        ) {
            Ok((path, bytes)) => {
                let file = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("snapshot")
                    .to_string();
                let mut body = Json::Obj(vec![
                    ("bytes".to_string(), Json::UInt(bytes as u64)),
                    ("epoch".to_string(), Json::UInt(epoch)),
                    ("file".to_string(), Json::Str(file)),
                ])
                .to_compact();
                body.push('\n');
                Response::json(body.into_bytes())
            }
            Err(error) => Response::error(500, &format!("snapshot write failed: {error}")),
        }
    }

    /// Clones what a snapshot captures: the live world + delta log (if
    /// materialized) and the current epoch. Clone-then-release keeps
    /// the serialization work off the live lock.
    fn snapshot_source(&self) -> (Option<World>, Vec<ChallengeDelta>, u64) {
        let live = self.live.lock().unwrap();
        match live.as_ref() {
            Some(live) => (Some(live.world.clone()), live.log.clone(), live.world.epoch),
            None => (None, Vec::new(), 0),
        }
    }

    /// Writes a snapshot on a detached background thread, at most one
    /// at a time — a batch landing mid-write skips its snapshot (the
    /// next write captures the newer epoch anyway).
    fn spawn_snapshot_write(&self) {
        let Some(dir) = self.config.snapshot_dir.clone() else {
            return;
        };
        if self.snapshot_inflight.swap(true, Ordering::SeqCst) {
            caf_obs::count("caf.snap.write_skipped", 1);
            return;
        }
        let (world, log, epoch) = self.snapshot_source();
        let views = self.cache.ready_entries();
        let seed = self.config.default_seed;
        let scale = self.config.default_scale;
        let inflight = Arc::clone(&self.snapshot_inflight);
        let write_lock = Arc::clone(&self.snapshot_write_lock);
        std::thread::spawn(move || {
            let _write = write_lock.lock().unwrap();
            if let Err(error) =
                write_snapshot_file(&dir, seed, scale, epoch, world.as_ref(), &log, &views)
            {
                eprintln!("caf-serve: background snapshot write failed: {error}");
                caf_obs::count("caf.snap.write_errors", 1);
            }
            inflight.store(false, Ordering::SeqCst);
        });
    }

    fn scenario_response(&self, route: &str, request: &Request) -> Response {
        let params = match ScenarioParams::from_request(self, request) {
            Ok(params) => params,
            Err(response) => return *response,
        };
        caf_obs::trace::annotate("epoch", &params.epoch.to_string());
        if params.isp.is_some() && !matches!(route, "serviceability" | "compliance") {
            return Response::error(
                400,
                &format!("the isp filter is not supported on /v1/{route}"),
            );
        }
        if params.epoch > 0 && route == "q3" {
            return Response::error(
                400,
                "challenges correct the Q1/Q2 world; /v1/q3 takes no epoch",
            );
        }
        if params.epoch > 0
            && (params.seed != self.config.default_seed
                || params.meta.scale != self.config.default_scale)
        {
            return Response::error(
                400,
                "challenge epochs exist only for the server's default seed/scale scenario",
            );
        }

        let reached = self.live_epoch();
        if params.epoch > reached {
            return Response::error(
                404,
                &format!(
                    "epoch {} has not been reached (live epoch is {reached}; \
                     apply challenges via POST /v1/challenge)",
                    params.epoch
                ),
            );
        }

        let key = match route {
            "q3" => ScenarioKey {
                kind: Kind::Q3,
                seed: params.seed,
                scale: params.meta.q3_scale,
                epoch: 0,
            },
            _ => ScenarioKey {
                kind: Kind::Q12,
                seed: params.seed,
                scale: params.meta.scale,
                epoch: params.epoch,
            },
        };
        let result = self
            .cache
            .get_or_compute(key, self.config.compute_timeout, || {
                let deltas = self.delta_prefix(key.epoch)?;
                let (engine, _guard) = self.compute_engine(params.engine);
                let _span = caf_obs::span_with(|| format!("serve.compute.{:?}", key.kind));
                let synth = SynthConfig {
                    seed: key.seed,
                    scale: key.scale,
                };
                let campaign = campaign_config(key.seed, engine);
                match key.kind {
                    Kind::Q12 => {
                        Scenario::build(synth, &UsState::study_states(), engine, campaign, &deltas)
                            .map(|s| Bundle::q12(&s.dataset, &s.serviceability, &s.compliance))
                            .map_err(|error| error.to_string())
                    }
                    Kind::Q3 => Ok(Bundle::one(&artifact::q3(
                        &pipeline::build_q3(synth, engine, campaign).1,
                    ))),
                    // Sweep cells are computed by `sweep_response`,
                    // which never routes through here.
                    Kind::Sweep => Err("sweep cells are not a scenario route".to_string()),
                }
            });
        let bundle = match result {
            Ok((bundle, outcome)) => {
                caf_obs::trace::annotate(
                    "cache",
                    match outcome {
                        CacheOutcome::Hit => "hit",
                        CacheOutcome::Miss => "miss",
                        CacheOutcome::Joined => "join",
                        CacheOutcome::DiskHit => "disk_hit",
                    },
                );
                bundle
            }
            Err(CacheError::JoinTimeout) => {
                caf_obs::trace::annotate("cache", "join_timeout");
                return Response::error(503, "scenario computation still in flight; retry shortly")
                    .with_header("Retry-After", "1".to_string());
            }
            Err(CacheError::Failed(message)) => {
                return Response::error(500, &format!("scenario computation failed: {message}"));
            }
        };

        let bytes = {
            let _span = caf_obs::span("render");
            let Some(body) = bundle.bodies().get(body_index(route, params.isp)) else {
                return Response::error(500, "bundle/route mismatch");
            };
            artifact::envelope(&params.meta.at_epoch(params.epoch), body)
        };
        let etag = format!("\"{:016x}\"", fnv1a(bytes.as_bytes()));
        if client_has(request, &etag) {
            return Response::not_modified().with_header("ETag", etag);
        }
        Response::json(bytes.into_bytes()).with_header("ETag", etag)
    }

    /// The delta-log prefix that defines `epoch` (empty at epoch 0): the
    /// epoch counts applied deltas, so epoch E is the first E entries.
    /// Only a rebuild needs it, so only a miss waits for a restoring
    /// world and takes the live lock.
    fn delta_prefix(&self, epoch: u64) -> Result<Vec<ChallengeDelta>, String> {
        if epoch == 0 {
            return Ok(Vec::new());
        }
        self.restore.wait();
        let live = self.live.lock().unwrap();
        match live.as_ref() {
            Some(live) if live.world.epoch >= epoch => Ok(live.log[..epoch as usize].to_vec()),
            _ => Err(format!("the delta log does not reach epoch {epoch}")),
        }
    }

    /// Parses the sweep grid axes from comma-separated query
    /// parameters — `states=`, `scales=`, `tiers=`, `caps=`, `rules=`
    /// — with single-cell defaults, validating through the same
    /// [`SweepSpec`] rules the `caf-sweep` binary applies to spec
    /// files, plus the server's scale floor and inline cell budget.
    fn sweep_spec(&self, request: &Request, seed: u64) -> Result<SweepSpec, Box<Response>> {
        let bad = |message: String| Box::new(Response::error(400, &message));
        let list = |name: &str, default: &str| -> Vec<String> {
            request
                .param(name)
                .unwrap_or(default)
                .split(',')
                .map(|s| s.trim().to_string())
                .collect()
        };
        let mut states = Vec::new();
        for raw in list("states", "VT") {
            states.push(
                UsState::from_abbrev(&raw)
                    .map_err(|_| bad(format!("unknown state abbreviation {raw:?}")))?,
            );
        }
        let floor = self.config.min_scale.max(1);
        let mut scales = Vec::new();
        for raw in list("scales", &self.config.default_scale.to_string()) {
            let scale: u32 = raw
                .parse()
                .map_err(|_| bad(format!("invalid scale {raw:?}")))?;
            check_scale_floor("scales", scale, floor)?;
            scales.push(scale);
        }
        let mut tiers = Vec::new();
        for raw in list("tiers", "10_1") {
            tiers.push(
                ProgramRules::tier_labels()
                    .into_iter()
                    .find(|&label| label == raw)
                    .ok_or_else(|| {
                        bad(format!(
                            "unknown tier {raw:?}; known: {}",
                            ProgramRules::tier_labels().join(", ")
                        ))
                    })?,
            );
        }
        let mut cap_multipliers = Vec::new();
        for raw in list("caps", "1.0") {
            cap_multipliers.push(
                raw.parse::<f64>()
                    .map_err(|_| bad(format!("invalid cap multiplier {raw:?}")))?,
            );
        }
        let mut rules = Vec::new();
        for raw in list("rules", "status_quo") {
            rules.push(
                SubsidyRule::parse(&raw)
                    .ok_or_else(|| bad(format!("unknown subsidy rule {raw:?}")))?,
            );
        }
        let spec = SweepSpec {
            seed,
            states,
            scales,
            tiers,
            cap_multipliers,
            rules,
        };
        spec.validate()
            .map_err(|error| bad(format!("invalid sweep grid: {error}")))?;
        if spec.cell_count() > MAX_SWEEP_CELLS {
            return Err(bad(format!(
                "sweep grid has {} cells; the inline limit is {MAX_SWEEP_CELLS}",
                spec.cell_count()
            )));
        }
        Ok(spec)
    }

    /// Handles `GET /v1/sweep`: a bounded inline policy-sweep grid.
    ///
    /// Every cell is an independent cache entry keyed by its content
    /// hash, so repeated or overlapping grids hit instead of
    /// recomputing. Misses run through the same (state, scale) world
    /// groups as [`caf_sweep::SweepRun`], so a request builds each world
    /// at most once. Evicted cells spill to the disk tier, and the
    /// response is assembled from the cells' stored canonical body
    /// bytes in grid order — byte-identical however the cells were
    /// obtained (computed, cached, or promoted from disk).
    fn sweep_response(&self, request: &Request) -> Response {
        for unsupported in ["epoch", "isp", "scale"] {
            if request.param(unsupported).is_some() {
                return Response::error(
                    400,
                    &format!(
                        "{unsupported} is not supported on /v1/sweep \
                         (cells carry their own axes; try scales=)"
                    ),
                );
            }
        }
        let seed = match parse_or(request, "seed", self.config.default_seed) {
            Ok(seed) => seed,
            Err(response) => return *response,
        };
        let spec = match self.sweep_spec(request, seed) {
            Ok(spec) => spec,
            Err(response) => return *response,
        };
        let cells = spec.cells();
        let mut bodies: Vec<Json> = Vec::with_capacity(cells.len());
        let mut hits = 0usize;
        let mut misses = 0usize;
        for group in caf_sweep::world_groups(&spec, &cells) {
            // The group's first missed cell runs the whole world group;
            // its other misses read the same results.
            let world = OnceCell::new();
            for (i, cell) in group.iter().enumerate() {
                let key = ScenarioKey {
                    kind: Kind::Sweep,
                    seed: cell.key(seed).0,
                    scale: cell.scale,
                    epoch: 0,
                };
                let result = self
                    .cache
                    .get_or_compute(key, self.config.compute_timeout, || {
                        let results = world.get_or_init(|| {
                            let (_engine, _guard) = self.compute_engine(self.config.engine);
                            let _span = caf_obs::span("serve.compute.sweep");
                            caf_sweep::run_world(seed, group)
                        });
                        Ok(Bundle::one(&caf_sweep::cell_body(&results[i])))
                    });
                let bundle = match result {
                    Ok((bundle, outcome)) => {
                        match outcome {
                            CacheOutcome::Hit | CacheOutcome::DiskHit => hits += 1,
                            CacheOutcome::Miss | CacheOutcome::Joined => misses += 1,
                        }
                        bundle
                    }
                    Err(CacheError::JoinTimeout) => {
                        caf_obs::trace::annotate("cache", "join_timeout");
                        return Response::error(
                            503,
                            "sweep cell computation still in flight; retry shortly",
                        )
                        .with_header("Retry-After", "1".to_string());
                    }
                    Err(CacheError::Failed(message)) => {
                        return Response::error(500, &format!("sweep cell failed: {message}"));
                    }
                };
                match caf_obs::json::parse(&bundle.bodies()[0]) {
                    Ok(body) => bodies.push(body),
                    Err(_) => {
                        return Response::error(500, "stored sweep cell is not canonical JSON")
                    }
                }
            }
        }
        caf_obs::trace::annotate("cache", &format!("hit={hits} miss={misses}"));

        let body = Json::Obj(vec![
            ("cells".to_string(), Json::Arr(bodies)),
            ("count".to_string(), Json::UInt(cells.len() as u64)),
            ("seed".to_string(), Json::UInt(seed)),
        ]);
        let bytes = artifact::to_canonical_bytes(
            &ScenarioMeta::new(seed, self.config.default_scale).wrap(body),
        );
        let etag = format!("\"{:016x}\"", fnv1a(bytes.as_bytes()));
        if client_has(request, &etag) {
            return Response::not_modified().with_header("ETag", etag);
        }
        Response::json(bytes.into_bytes()).with_header("ETag", etag)
    }
}

/// The largest grid `/v1/sweep` computes inline. Cells are cheap at
/// serving scales but not free; a bigger grid belongs in the `caf-sweep`
/// binary, not on a request thread.
const MAX_SWEEP_CELLS: usize = 64;

/// Restores the newest compatible snapshot from `dir`, if any: cache
/// entries into `cache` synchronously, the world + log onto a
/// background thread that installs `live` and then opens `gate`.
/// `reached` reports the snapshot's epoch while the world decodes, and
/// falls back to 0 if it fails to. Returns the status `/healthz`
/// reports. Every failure path prints one line and returns a cold
/// status — a bad snapshot must never take the server down or slow it
/// below a plain cold boot.
fn restore_snapshot(
    dir: &Path,
    config: &AppConfig,
    cache: &ScenarioCache<ScenarioKey, Bundle>,
    live: &Arc<Mutex<Option<Live>>>,
    reached: &Arc<AtomicU64>,
    gate: &Arc<RestoreGate>,
) -> SnapshotStatus {
    if let Err(error) = fs::create_dir_all(dir) {
        eprintln!("caf-serve: cannot create snapshot dir {dir:?} ({error}); snapshots disabled");
        return SnapshotStatus::default();
    }
    let Some((path, epoch)) = snapshot::find_newest(dir, config.default_seed, config.default_scale)
    else {
        return SnapshotStatus::default();
    };
    let started = Instant::now();
    let _span = caf_obs::span("snap.restore");
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(error) => {
            eprintln!("caf-serve: snapshot {path:?} unreadable ({error}); cold build");
            return SnapshotStatus::default();
        }
    };
    let parsed = match Snapshot::parse(&bytes).and_then(reject_retired_world) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("caf-serve: snapshot {path:?} rejected ({error:?}); cold build");
            caf_obs::count("caf.snap.restore_rejected", 1);
            return SnapshotStatus::default();
        }
    };
    // A snapshot from before rendered entries carries its views under
    // a retired tag, which is never read: its world still restores, and
    // the views are rebuilt on demand.
    let views = match parsed.section(SECTION_VIEWS).map(decode_views) {
        Some(Ok(views)) => views,
        Some(Err(error)) => {
            eprintln!("caf-serve: snapshot {path:?} views invalid ({error:?}); cold build");
            caf_obs::count("caf.snap.restore_rejected", 1);
            return SnapshotStatus::default();
        }
        None => Vec::new(),
    };
    for (key, bundle) in views {
        cache.insert(key, bundle);
    }

    // The world is only needed to rebuild a past epoch or apply the next
    // challenge batch; decode it off the startup path so
    // restart-to-first-200 costs only the entries' copy. Moving the file
    // buffer (with the section ranges lifted out of the parse borrow)
    // keeps the multi-megabyte world payload from being copied on the
    // synchronous path.
    let world_range = parsed.section_range(SECTION_WORLD);
    let log_range = parsed.section_range(SECTION_LOG);
    drop(parsed);
    if let Some(world_range) = world_range {
        let live = Arc::clone(live);
        let reached = Arc::clone(reached);
        let gate_bg = Arc::clone(gate);
        reached.store(epoch, Ordering::SeqCst);
        gate.begin();
        std::thread::spawn(move || {
            let _span = caf_obs::span("snap.restore.world");
            let log_bytes = log_range.map(|range| &bytes[range]);
            match decode_live(&bytes[world_range], log_bytes, epoch) {
                Ok(restored) => {
                    *live.lock().unwrap() = Some(restored);
                    caf_obs::gauge("caf.serve.challenge.epoch", epoch);
                }
                Err(error) => {
                    eprintln!(
                        "caf-serve: snapshot world section invalid ({error:?}); \
                         historical epochs unavailable until rebuilt"
                    );
                    caf_obs::count("caf.snap.restore_rejected", 1);
                    reached.store(0, Ordering::SeqCst);
                }
            }
            // Open the gate after installing (or giving up), never
            // before: waiters must observe the final state.
            gate_bg.finish();
        });
    }

    let restore_us = started.elapsed().as_micros() as u64;
    caf_obs::gauge("caf.snap.restore_us", restore_us);
    caf_obs::count("caf.snap.restores", 1);
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .map(str::to_string);
    println!(
        "restored snapshot {} (epoch {epoch}) in {:.1} ms",
        file.as_deref().unwrap_or("?"),
        restore_us as f64 / 1_000.0
    );
    SnapshotStatus {
        loaded: true,
        epoch,
        restore_us,
        file,
        mtime: fs::metadata(&path).ok().and_then(|m| m.modified().ok()),
    }
}

/// Rejects a snapshot whose world is in a retired encoding, before any
/// of it is restored: its views belong to epochs whose world could not
/// be rebuilt, so the whole file is worth no more than a cold build.
fn reject_retired_world(parsed: Snapshot<'_>) -> Result<Snapshot<'_>, SnapError> {
    match SECTION_WORLD_RETIRED
        .into_iter()
        .find(|&tag| parsed.section(tag).is_some())
    {
        Some(tag) => Err(SnapError::Malformed(format!(
            "world section {tag:#x} is a retired encoding; this build reads {SECTION_WORLD:#x}"
        ))),
        None => Ok(parsed),
    }
}

/// Decodes the `WORLD` (+ optional `LOG`) sections into a [`Live`]
/// slot, cross-checking that the world's epoch matches both the header
/// and the log length — a snapshot whose pieces disagree is corrupt
/// even if every checksum passed.
fn decode_live(
    world_bytes: &[u8],
    log_bytes: Option<&[u8]>,
    expected_epoch: u64,
) -> Result<Live, SnapError> {
    let mut r = Reader::new(world_bytes);
    let world: World = r.get()?;
    r.finish()?;
    let log: Vec<ChallengeDelta> = match log_bytes {
        Some(bytes) => {
            let mut r = Reader::new(bytes);
            let log = r.get_seq()?;
            r.finish()?;
            log
        }
        None => Vec::new(),
    };
    if world.epoch != expected_epoch || log.len() as u64 != world.epoch {
        return Err(SnapError::Malformed(format!(
            "epoch disagreement: header {expected_epoch}, world {}, log length {}",
            world.epoch,
            log.len()
        )));
    }
    Ok(Live {
        world,
        inc: None,
        log,
    })
}

/// Serializes the app's state as a snapshot container and writes it
/// atomically as `world-<seed>-<scale>-<epoch>.snap` under `dir`.
/// Returns the path and the container size in bytes.
fn write_snapshot_file(
    dir: &Path,
    seed: u64,
    scale: u32,
    epoch: u64,
    world: Option<&World>,
    log: &[ChallengeDelta],
    views: &[(ScenarioKey, Arc<Bundle>)],
) -> std::io::Result<(PathBuf, usize)> {
    let _span = caf_obs::span("snap.write");
    let mut builder = SnapshotBuilder::new(seed, scale, epoch);
    if let Some(world) = world {
        builder.section(SECTION_WORLD, |w| w.put(world));
        builder.section(SECTION_LOG, |w| w.put_seq(log));
    }
    builder.section(SECTION_VIEWS, |w| put_views(w, views));
    let bytes = builder.finish();
    let path = dir.join(snapshot::file_name(seed, scale, epoch));
    write_atomic(&path, &bytes)?;
    caf_obs::count("caf.snap.writes", 1);
    caf_obs::gauge("caf.snap.last_write_bytes", bytes.len() as u64);
    Ok((path, bytes.len()))
}

/// Whether the request's `If-None-Match` header matches `etag` (exact
/// entry in a comma-separated list, or `*`).
fn client_has(request: &Request, etag: &str) -> bool {
    request.header("if-none-match").is_some_and(|value| {
        value
            .split(',')
            .any(|candidate| candidate.trim() == etag || candidate.trim() == "*")
    })
}

/// Parsed and validated `/v1/*` query parameters.
struct ScenarioParams {
    seed: u64,
    meta: ScenarioMeta,
    engine: EngineConfig,
    isp: Option<Isp>,
    epoch: u64,
}

impl ScenarioParams {
    fn from_request(app: &App, request: &Request) -> Result<ScenarioParams, Box<Response>> {
        let seed = parse_or(request, "seed", app.config.default_seed)?;
        // The floor is never below 1: a zero scale would divide by zero
        // in `SynthConfig::scaled` and panic mid-computation.
        let floor = app.config.min_scale.max(1);
        let scale = parse_or(request, "scale", app.config.default_scale)?;
        check_scale_floor("scale", scale, floor)?;
        let mut meta = ScenarioMeta::new(seed, scale);
        meta.q3_scale = parse_or(request, "q3_scale", meta.q3_scale)?;
        check_scale_floor("q3_scale", meta.q3_scale, floor)?;
        let epoch = parse_or(request, "epoch", 0u64)?;
        let engine = match request.param("workers") {
            None => app.config.engine,
            Some(raw) => {
                let workers: usize = raw.parse().map_err(|_| {
                    Box::new(Response::error(400, &format!("invalid workers={raw:?}")))
                })?;
                if workers == 0 || workers > 512 {
                    return Err(Box::new(Response::error(
                        400,
                        "workers must be between 1 and 512",
                    )));
                }
                EngineConfig::with_workers(workers)
            }
        };
        let isp = match request.param("isp") {
            None => None,
            Some(raw) => Some(parse_isp(raw).ok_or_else(|| {
                let known: Vec<&str> = Isp::all().iter().map(|isp| isp.name()).collect();
                Box::new(Response::error(
                    400,
                    &format!("unknown isp {raw:?}; known: {}", known.join(", ")),
                ))
            })?),
        };
        Ok(ScenarioParams {
            seed,
            meta,
            engine,
            isp,
            epoch,
        })
    }
}

/// Rejects scales below the server's floor (which is itself at least 1,
/// so a divide-by-zero scale can never reach the synth pipeline).
fn check_scale_floor(name: &str, value: u32, floor: u32) -> Result<(), Box<Response>> {
    if value < floor {
        return Err(Box::new(Response::error(
            400,
            &format!("{name}={value} is below the server's minimum of {floor}"),
        )));
    }
    Ok(())
}

fn parse_or<T: std::str::FromStr>(
    request: &Request,
    name: &str,
    default: T,
) -> Result<T, Box<Response>> {
    match request.param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            Box::new(Response::error(
                400,
                &format!("invalid {name}={raw:?}: expected a non-negative integer"),
            ))
        }),
    }
}

/// Case-insensitive match against the ISP registry names.
fn parse_isp(raw: &str) -> Option<Isp> {
    Isp::all()
        .into_iter()
        .find(|isp| isp.name().eq_ignore_ascii_case(raw))
}

impl Handler for App {
    fn handle(&self, request: &Request) -> Response {
        // Span names are interned forever by the caf-obs registry, so
        // only recognized routes get their own label; every other path
        // (arbitrary client input) shares one fixed name to keep the
        // registry and the /metrics body bounded.
        let (label, short) = route_entry(request.path.as_str());
        caf_obs::trace::annotate("route", short);
        let started = Instant::now();
        let response = self.dispatch(label, request);
        if let Some(slo) = self.slos.get(label) {
            slo.observe(started.elapsed().as_micros() as u64, response.status >= 500);
        }
        response
    }
}

impl App {
    fn dispatch(&self, label: &'static str, request: &Request) -> Response {
        let _span = caf_obs::span(label);
        // The challenge ingest and snapshot trigger are the only POST
        // endpoints; everything else is read-only.
        if request.path == "/v1/challenge" {
            return if request.method == "POST" {
                self.challenge_response(request)
            } else {
                Response::error(405, "/v1/challenge accepts POST only")
            };
        }
        if request.path == "/v1/snapshot" {
            return if request.method == "POST" {
                self.snapshot_response()
            } else {
                Response::error(405, "/v1/snapshot accepts POST only")
            };
        }
        if request.method != "GET" {
            return Response::error(
                405,
                &format!(
                    "method {} not supported on {}",
                    request.method, request.path
                ),
            );
        }
        match request.path.as_str() {
            "/healthz" => self.healthz_response(),
            "/metrics" => self.metrics_response(request),
            "/quitquitquit" => {
                let mut response = Response::text("shutting down\n");
                response.shutdown = true;
                response
            }
            "/v1/debug/traces" => self.debug_traces_response(request),
            path => match path.strip_prefix("/v1/") {
                Some(route @ ("serviceability" | "compliance" | "table2" | "q3")) => {
                    self.scenario_response(route, request)
                }
                Some("sweep") => self.sweep_response(request),
                _ => Response::error(404, &format!("no such endpoint: {path}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_synth::challenge::delta_to_json;
    use caf_synth::Correction;

    fn request(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn tiny_app() -> App {
        App::new(AppConfig {
            default_scale: 2000,
            engine: EngineConfig::serial(),
            ..AppConfig::default()
        })
    }

    #[test]
    fn rejects_bad_parameters_with_400() {
        let app = tiny_app();
        for (path, query) in [
            ("/v1/table2", vec![("seed", "not-a-number")]),
            ("/v1/table2", vec![("scale", "-3")]),
            ("/v1/table2", vec![("scale", "0")]),
            ("/v1/q3", vec![("q3_scale", "0")]), // would divide by zero
            ("/v1/table2", vec![("workers", "0")]),
            ("/v1/table2", vec![("isp", "Nonexistent ISP")]),
            ("/v1/table2", vec![("isp", "AT&T")]), // no filter on table2
            ("/v1/q3", vec![("isp", "AT&T")]),
            ("/v1/table2", vec![("epoch", "x")]),
            ("/v1/q3", vec![("epoch", "1")]), // q3 has no challenge stream
            // Challenge epochs exist only for the default scenario.
            ("/v1/table2", vec![("epoch", "1"), ("seed", "9")]),
        ] {
            let response = app.handle(&request(path, &query));
            assert_eq!(response.status, 400, "{path} {query:?}");
        }
        let response = app.handle(&request("/v1/nope", &[]));
        assert_eq!(response.status, 404);
        // An unreached epoch of the default scenario is a 404, not 400.
        let response = app.handle(&request("/v1/table2", &[("epoch", "3")]));
        assert_eq!(response.status, 404);
        assert_eq!(app.cache_stats().misses, 0, "no computation was started");
    }

    #[test]
    fn scale_floor_is_enforced() {
        let app = App::new(AppConfig {
            min_scale: 100,
            ..AppConfig::default()
        });
        let response = app.handle(&request("/v1/table2", &[("scale", "99")]));
        assert_eq!(response.status, 400);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("minimum of 100"), "{body}");
        // q3_scale is a world scale too; the same floor applies.
        let response = app.handle(&request("/v1/q3", &[("q3_scale", "99")]));
        assert_eq!(response.status, 400);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("q3_scale=99"), "{body}");
        assert_eq!(app.cache_stats().misses, 0, "no computation was started");
    }

    #[test]
    fn health_and_shutdown_routes() {
        let app = tiny_app();
        let health = app.handle(&request("/healthz", &[]));
        assert_eq!((health.status, health.shutdown), (200, false));
        let body = String::from_utf8(health.body).unwrap();
        let parsed = caf_obs::json::parse(body.trim_end()).unwrap();
        assert_eq!(
            parsed.get("status").and_then(|j| j.as_str()),
            Some("ok"),
            "{body}"
        );
        assert_eq!(parsed.get("epoch").and_then(|j| j.as_u64()), Some(0));
        assert_eq!(
            parsed
                .get("cache")
                .and_then(|c| c.get("capacity"))
                .and_then(|j| j.as_u64()),
            Some(AppConfig::default().cache_capacity as u64)
        );
        assert_eq!(
            parsed
                .get("cache")
                .and_then(|c| c.get("entries"))
                .and_then(|j| j.as_u64()),
            Some(0)
        );
        assert!(
            parsed.get("uptime_s").and_then(|j| j.as_u64()).is_some(),
            "{body}"
        );
        // No snapshot dir: cold start, tier disabled, but the schema is
        // always present.
        assert_eq!(
            parsed
                .get("snapshot")
                .and_then(|s| s.get("loaded"))
                .and_then(|j| j.as_bool()),
            Some(false),
            "{body}"
        );
        assert_eq!(
            parsed
                .get("disk_tier")
                .and_then(|t| t.get("enabled"))
                .and_then(|j| j.as_bool()),
            Some(false),
            "{body}"
        );
        // Canonical JSON: object keys appear in sorted order.
        let key_order: Vec<usize> = [
            "\"cache\"",
            "\"disk_tier\"",
            "\"epoch\"",
            "\"snapshot\"",
            "\"status\"",
            "\"uptime_s\"",
        ]
        .iter()
        .map(|key| body.find(key).expect(key))
        .collect();
        assert!(key_order.windows(2).all(|w| w[0] < w[1]), "{body}");
        let quit = app.handle(&request("/quitquitquit", &[]));
        assert_eq!((quit.status, quit.shutdown), (200, true));
        // Read-only routes reject POST; the ingest route rejects GET.
        let mut misdirected = request("/healthz", &[]);
        misdirected.method = "POST".to_string();
        assert_eq!(app.handle(&misdirected).status, 405);
        assert_eq!(app.handle(&request("/v1/challenge", &[])).status, 405);
    }

    #[test]
    fn isp_names_parse_case_insensitively() {
        assert_eq!(parse_isp("AT&T"), Some(Isp::Att));
        assert_eq!(parse_isp("at&t"), Some(Isp::Att));
        assert_eq!(parse_isp("CenturyLink"), Some(Isp::CenturyLink));
        assert_eq!(parse_isp("Comcast"), None);
    }

    /// The full challenge lifecycle over the handler: ingest advances
    /// the epoch, the published view is served consistently at both
    /// epochs, and the bytes equal a from-scratch rebuild at the same
    /// epoch (the incremental-recompute determinism contract, crossed
    /// with the HTTP layer).
    #[test]
    fn challenge_ingest_serves_consistent_epoch_views() {
        let app = tiny_app();
        let seed = app.config.default_seed;
        let scale = app.config.default_scale;

        // Find a valid (state, cbg, isp) address in the default world.
        let probe = World::generate_states(SynthConfig { seed, scale }, &UsState::study_states());
        let state = probe.states[0].state;
        let isp = probe.states[0].geography.cbgs[0].isp;
        let delta = ChallengeDelta {
            state,
            cbg: 0,
            isp,
            correction: Correction::Availability { rate_ppm: 50_000 },
        };

        // Pre-challenge view first, so epoch 0 is resident.
        let before = app.handle(&request("/v1/table2", &[]));
        assert_eq!(before.status, 200);

        let accepted = app.handle(&post("/v1/challenge", &(delta_to_json(&delta) + "\n")));
        assert_eq!(
            accepted.status,
            200,
            "{}",
            String::from_utf8_lossy(&accepted.body)
        );
        let reply =
            caf_obs::json::parse(String::from_utf8(accepted.body).unwrap().trim_end()).unwrap();
        assert_eq!(reply.get("epoch").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(reply.get("applied").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(app.live_epoch(), 1);

        // The ingest published epoch 1 into the cache: serving it is a
        // hit, and the epoch-0 view is still resident and unchanged.
        let inserts_before = app.cache_stats().inserts;
        assert_eq!(inserts_before, 1);
        let hits_before = app.cache_stats().hits;
        let after = app.handle(&request("/v1/table2", &[("epoch", "1")]));
        assert_eq!(after.status, 200);
        assert_eq!(app.cache_stats().hits, hits_before + 1);
        let again = app.handle(&request("/v1/table2", &[]));
        assert_eq!(again.body, before.body, "epoch 0 view must be unperturbed");

        // Envelope carries the epoch.
        let parsed =
            caf_obs::json::parse(std::str::from_utf8(&after.body).unwrap().trim_end()).unwrap();
        let envelope_epoch = parsed
            .get("scenario")
            .and_then(|s| s.get("epoch"))
            .and_then(|e| e.as_u64());
        assert_eq!(envelope_epoch, Some(1));

        // Byte-identity against a from-scratch rebuild at epoch 1.
        let fixture = Scenario::build(
            SynthConfig { seed, scale },
            &UsState::study_states(),
            EngineConfig::serial(),
            campaign_config(seed, EngineConfig::serial()),
            std::slice::from_ref(&delta),
        )
        .unwrap();
        let expected = artifact::to_canonical_bytes(
            &ScenarioMeta::new(seed, scale)
                .at_epoch(1)
                .wrap(artifact::table2(&fixture.dataset)),
        );
        assert_eq!(after.body, expected.into_bytes());

        // Rejected batches are atomic: the epoch does not move.
        let bogus = app.handle(&post("/v1/challenge", "{\"not\": \"a delta\"}\n"));
        assert_eq!(bogus.status, 400);
        let out_of_range = ChallengeDelta {
            cbg: usize::MAX,
            ..delta
        };
        let rejected = app.handle(&post(
            "/v1/challenge",
            &(delta_to_json(&out_of_range) + "\n"),
        ));
        assert_eq!(rejected.status, 400);
        assert_eq!(app.live_epoch(), 1);
    }

    #[test]
    fn if_none_match_revalidation_returns_304() {
        let app = tiny_app();
        let first = app.handle(&request("/v1/table2", &[]));
        assert_eq!(first.status, 200);
        let etag = first
            .headers
            .iter()
            .find(|(name, _)| name == "ETag")
            .map(|(_, value)| value.clone())
            .expect("artifact responses carry an ETag");

        let mut revalidate = request("/v1/table2", &[]);
        revalidate
            .headers
            .push(("if-none-match".to_string(), etag.clone()));
        let cached = app.handle(&revalidate);
        assert_eq!(cached.status, 304);
        assert!(cached.body.is_empty(), "304 carries no body");
        assert_eq!(
            cached.headers.iter().find(|(n, _)| n == "ETag"),
            Some(&("ETag".to_string(), etag.clone()))
        );

        // A stale validator gets the full representation again.
        let mut stale = request("/v1/table2", &[]);
        stale
            .headers
            .push(("if-none-match".to_string(), "\"deadbeef\"".to_string()));
        assert_eq!(app.handle(&stale).status, 200);

        // Wildcard and list forms match too.
        let mut wildcard = request("/v1/table2", &[]);
        wildcard
            .headers
            .push(("if-none-match".to_string(), format!("\"x\", {etag}")));
        assert_eq!(app.handle(&wildcard).status, 304);
    }

    fn snap_temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("caf-servesnap-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A delta guaranteed valid in the default world at this scale.
    fn valid_delta(seed: u64, scale: u32, rate_ppm: u32) -> ChallengeDelta {
        let probe = World::generate_states(SynthConfig { seed, scale }, &UsState::study_states());
        ChallengeDelta {
            state: probe.states[0].state,
            cbg: 0,
            isp: probe.states[0].geography.cbgs[0].isp,
            correction: Correction::Availability { rate_ppm },
        }
    }

    /// Blocks until no background snapshot write is in flight, so tests
    /// can safely drop the app and remove its snapshot directory.
    fn wait_for_background_snapshot(app: &App) {
        while app.snapshot_inflight.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The tentpole contract end to end: snapshot, restart, and serve
    /// byte-identical views with zero recomputation — at epoch 0 and a
    /// post-challenge epoch, under both a serial and a multi-worker
    /// engine — then keep ingesting challenges on the restored world.
    #[test]
    fn snapshot_restart_serves_byte_identical_views() {
        let dir = snap_temp_dir("restart");
        let config = |engine: EngineConfig| AppConfig {
            default_scale: 2000,
            engine,
            snapshot_dir: Some(dir.clone()),
            ..AppConfig::default()
        };
        let seed = AppConfig::default().default_seed;
        let scale = 2000;
        let delta = valid_delta(seed, scale, 50_000);

        let app = App::new(config(EngineConfig::serial()));
        assert!(!app.snapshot_status().loaded, "nothing to restore yet");
        let before0 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(before0.status, 200);
        let accepted = app.handle(&post("/v1/challenge", &(delta_to_json(&delta) + "\n")));
        assert_eq!(
            accepted.status,
            200,
            "{}",
            String::from_utf8_lossy(&accepted.body)
        );
        let before1 = app.handle(&request("/v1/table2", &[("epoch", "1")]));
        assert_eq!(before1.status, 200);
        let snap = app.handle(&post("/v1/snapshot", ""));
        assert_eq!(snap.status, 200, "{}", String::from_utf8_lossy(&snap.body));
        let reply = caf_obs::json::parse(String::from_utf8(snap.body).unwrap().trim_end()).unwrap();
        assert_eq!(reply.get("epoch").and_then(|j| j.as_u64()), Some(1));
        wait_for_background_snapshot(&app);
        drop(app);

        // Serial restart: restored views serve byte-identically, with
        // zero recomputation.
        let app = App::new(config(EngineConfig::serial()));
        assert!(app.snapshot_status().loaded, "snapshot must restore");
        assert_eq!(app.snapshot_status().epoch, 1);
        let after0 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(after0.status, 200);
        assert_eq!(after0.body, before0.body, "epoch 0 bytes must match");
        let after1 = app.handle(&request("/v1/table2", &[("epoch", "1")]));
        assert_eq!(after1.status, 200);
        assert_eq!(after1.body, before1.body, "epoch 1 bytes must match");
        assert_eq!(
            app.cache_stats().misses,
            0,
            "restored views must serve without recomputation"
        );
        let health = app.handle(&request("/healthz", &[]));
        let parsed =
            caf_obs::json::parse(String::from_utf8(health.body).unwrap().trim_end()).unwrap();
        assert_eq!(parsed.get("epoch").and_then(|j| j.as_u64()), Some(1));
        let snapshot_obj = parsed.get("snapshot").expect("snapshot key");
        assert_eq!(
            snapshot_obj.get("loaded").and_then(|j| j.as_bool()),
            Some(true)
        );
        assert_eq!(snapshot_obj.get("epoch").and_then(|j| j.as_u64()), Some(1));

        // Challenges continue across the restart: the incremental audit
        // is rebuilt lazily on the restored world, and the result is
        // byte-identical to a never-restarted from-scratch rebuild.
        let delta2 = ChallengeDelta {
            correction: Correction::Availability { rate_ppm: 75_000 },
            ..delta
        };
        let accepted = app.handle(&post("/v1/challenge", &(delta_to_json(&delta2) + "\n")));
        assert_eq!(
            accepted.status,
            200,
            "{}",
            String::from_utf8_lossy(&accepted.body)
        );
        assert_eq!(app.live_epoch(), 2);
        let after2 = app.handle(&request("/v1/table2", &[("epoch", "2")]));
        assert_eq!(after2.status, 200);
        let fixture = Scenario::build(
            SynthConfig { seed, scale },
            &UsState::study_states(),
            EngineConfig::serial(),
            campaign_config(seed, EngineConfig::serial()),
            &[delta, delta2],
        )
        .unwrap();
        let expected = artifact::to_canonical_bytes(
            &ScenarioMeta::new(seed, scale)
                .at_epoch(2)
                .wrap(artifact::table2(&fixture.dataset)),
        );
        assert_eq!(after2.body, expected.into_bytes());
        wait_for_background_snapshot(&app);
        drop(app);

        // A different worker count must restore the very same bytes
        // (the snapshot is engine-independent by construction).
        let app = App::new(config(EngineConfig::with_workers(4)));
        assert!(app.snapshot_status().loaded);
        let again0 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(again0.body, before0.body);
        let again1 = app.handle(&request("/v1/table2", &[("epoch", "1")]));
        assert_eq!(again1.body, before1.body);
        assert_eq!(app.cache_stats().misses, 0);
        wait_for_background_snapshot(&app);
        drop(app);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Robustness: truncation, bit flips, unsupported versions, and
    /// scenario mismatches must all degrade to a cold build that still
    /// serves — never a panic, never wrong bytes.
    #[test]
    fn corrupt_or_mismatched_snapshots_fall_back_to_cold_build() {
        let dir = snap_temp_dir("robust");
        let config = AppConfig {
            default_scale: 2000,
            engine: EngineConfig::serial(),
            snapshot_dir: Some(dir.clone()),
            ..AppConfig::default()
        };

        // Seed a pristine epoch-0 snapshot through the API.
        {
            let app = App::new(config.clone());
            assert_eq!(app.handle(&request("/v1/table2", &[])).status, 200);
            assert_eq!(app.handle(&post("/v1/snapshot", "")).status, 200);
        }
        let path = dir.join(snapshot::file_name(config.default_seed, 2000, 0));
        let pristine = fs::read(&path).unwrap();

        // Truncated file: rejected at parse, and the server still
        // serves via a cold compute.
        fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        let app = App::new(config.clone());
        assert!(!app.snapshot_status().loaded, "truncated must be rejected");
        assert_eq!(app.handle(&request("/v1/table2", &[])).status, 200);

        // A single flipped byte: the content hash catches it.
        let mut flipped = pristine.clone();
        let mid = flipped.len() - 10;
        flipped[mid] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        let app = App::new(config.clone());
        assert!(!app.snapshot_status().loaded, "bit flip must be rejected");

        // An unsupported format version: skipped during discovery.
        let mut wrong_version = pristine.clone();
        wrong_version[8] = 0xff;
        fs::write(&path, &wrong_version).unwrap();
        let app = App::new(config.clone());
        assert!(
            !app.snapshot_status().loaded,
            "future format version must be rejected"
        );

        // A snapshot for another scenario: ignored by discovery.
        fs::write(&path, &pristine).unwrap();
        let other = App::new(AppConfig {
            default_scale: 2500,
            ..config.clone()
        });
        assert!(
            !other.snapshot_status().loaded,
            "snapshot for a different scale must be ignored"
        );

        // Sanity: the pristine file does restore.
        let app = App::new(config);
        assert!(app.snapshot_status().loaded);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot whose world is in the retired encoding that stored
    /// every Q1 truth entry (section `0x10`) is rejected whole: no views,
    /// no world, a cold build that serves the same bytes.
    #[test]
    fn retired_world_section_starts_cold() {
        starts_cold_with_world_section(SECTION_WORLD_RETIRED[0], "retired");
    }

    /// The same for the encoding that stored every Q3 block and its
    /// truth (section `0x12`).
    #[test]
    fn q3_world_section_starts_cold() {
        assert_eq!(SECTION_WORLD_RETIRED[1], 0x12);
        starts_cold_with_world_section(SECTION_WORLD_RETIRED[1], "retired-q3");
    }

    /// The same for the encoding that stored every USAC record (section
    /// `0x13`).
    #[test]
    fn usac_world_section_starts_cold() {
        assert_eq!(SECTION_WORLD_RETIRED[2], 0x13);
        starts_cold_with_world_section(SECTION_WORLD_RETIRED[2], "retired-usac");
    }

    /// Writes a snapshot at epoch 1, moves its world under `retired_tag`
    /// and checks that the next boot rejects the file and serves the
    /// same bytes from a cold build.
    fn starts_cold_with_world_section(retired_tag: u32, name: &str) {
        let dir = snap_temp_dir(name);
        let config = AppConfig {
            default_scale: 2000,
            engine: EngineConfig::serial(),
            snapshot_dir: Some(dir.clone()),
            ..AppConfig::default()
        };
        let seed = config.default_seed;
        let delta = valid_delta(seed, 2000, 60_000);
        let (before0, before1) = {
            let app = App::new(config.clone());
            let before0 = app.handle(&request("/v1/table2", &[]));
            let body = delta_to_json(&delta) + "\n";
            assert_eq!(app.handle(&post("/v1/challenge", &body)).status, 200);
            let before1 = app.handle(&request("/v1/table2", &[("epoch", "1")]));
            assert_eq!(app.handle(&post("/v1/snapshot", "")).status, 200);
            wait_for_background_snapshot(&app);
            (before0.body, before1.body)
        };
        let path = dir.join(snapshot::file_name(seed, 2000, 1));
        let current = fs::read(&path).unwrap();
        let parsed = Snapshot::parse(&current).unwrap();
        let mut retagged = SnapshotBuilder::new(seed, 2000, 1);
        for (tag, payload) in parsed.sections() {
            let tag = if tag == SECTION_WORLD {
                retired_tag
            } else {
                tag
            };
            retagged.section(tag, |w| w.put_raw(payload));
        }
        fs::write(&path, retagged.finish()).unwrap();

        let app = App::new(config.clone());
        assert!(
            !app.snapshot_status().loaded,
            "a retired world must be rejected"
        );
        let cold0 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(cold0.body, before0);
        // Nothing was restored: epoch 1 is unreached until the batch is
        // posted again, and then the cold world serves the same bytes.
        assert_eq!(
            app.handle(&request("/v1/table2", &[("epoch", "1")])).status,
            404
        );
        let body = delta_to_json(&delta) + "\n";
        assert_eq!(app.handle(&post("/v1/challenge", &body)).status, 200);
        let cold1 = app.handle(&request("/v1/table2", &[("epoch", "1")]));
        assert_eq!(cold1.body, before1);
        // Epoch 0 was a cold miss; the challenge published epoch 1.
        assert_eq!(app.cache_stats().misses, 1);
        wait_for_background_snapshot(&app);
        drop(app);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The disk tier under a capacity-1 cache: eviction spills, the
    /// next request promotes the spilled entry byte-identically instead
    /// of recomputing.
    #[test]
    fn disk_tier_promotes_evicted_scenarios_byte_identically() {
        let dir = snap_temp_dir("tier");
        let app = App::new(AppConfig {
            default_scale: 2000,
            engine: EngineConfig::serial(),
            cache_capacity: 1,
            snapshot_dir: Some(dir.clone()),
            ..AppConfig::default()
        });
        let a1 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(a1.status, 200);
        // A second scenario evicts the first from the one-slot cache,
        // spilling it to disk.
        let b = app.handle(&request("/v1/table2", &[("scale", "2500")]));
        assert_eq!(b.status, 200);
        let stats = app.cache_stats();
        assert_eq!((stats.misses, stats.spills), (2, 1), "{stats:?}");
        // The first scenario promotes from the tier: byte-identical,
        // and no third computation.
        let a2 = app.handle(&request("/v1/table2", &[]));
        assert_eq!(a2.status, 200);
        assert_eq!(a2.body, a1.body, "promoted bytes must equal computed bytes");
        let stats = app.cache_stats();
        assert_eq!((stats.misses, stats.disk_hits), (2, 1), "{stats:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_view_count_is_rejected_before_allocating() {
        let err = decode_views(&u32::MAX.to_le_bytes()).err();
        assert!(
            matches!(err, Some(SnapError::UnexpectedEof { have: 0, .. })),
            "{err:?}"
        );
        assert_eq!(decode_views(&0u32.to_le_bytes()).unwrap().len(), 0);
    }

    #[test]
    fn snapshot_route_requires_configuration() {
        let app = tiny_app();
        let denied = app.handle(&post("/v1/snapshot", ""));
        assert_eq!(denied.status, 400);
        let body = String::from_utf8(denied.body).unwrap();
        assert!(body.contains("--snapshot-dir"), "{body}");
        assert_eq!(app.handle(&request("/v1/snapshot", &[])).status, 405);
    }

    #[test]
    fn sweep_serves_cached_byte_identical_grids() {
        // The default cache holds 4 entries; this grid has 16 cells,
        // and without a disk tier an eviction means recomputation.
        let app = App::new(AppConfig {
            default_scale: 2000,
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
        let first = app.handle(&request("/v1/sweep", &grid));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let body = caf_obs::json::parse(String::from_utf8(first.body.clone()).unwrap().trim_end())
            .unwrap();
        let artifact = body.get("artifact").expect("canonical envelope");
        assert_eq!(artifact.get("count").and_then(|j| j.as_u64()), Some(16));
        let Some(Json::Arr(cells)) = artifact.get("cells") else {
            panic!("cells array missing");
        };
        assert_eq!(cells.len(), 16);
        // Cells arrive in canonical grid order with their axes inline.
        assert_eq!(cells[0].get("state").and_then(|j| j.as_str()), Some("VT"));
        assert_eq!(
            cells[15].get("subsidy_rule").and_then(|j| j.as_str()),
            Some("full_buildout")
        );

        // Every cell is now cached: the re-request hits 16 times and
        // returns byte-identical bytes.
        let misses_before = app.cache_stats().misses;
        let second = app.handle(&request("/v1/sweep", &grid));
        assert_eq!(second.status, 200);
        assert_eq!(second.body, first.body);
        let stats = app.cache_stats();
        assert_eq!(stats.misses, misses_before, "no recomputation on re-run");
        assert!(stats.hits >= 16, "{stats:?}");

        // A sub-grid of the same axes reuses the same cell entries.
        let sub = app.handle(&request(
            "/v1/sweep",
            &[("states", "VT"), ("tiers", "25_3"), ("caps", "0.75")],
        ));
        assert_eq!(sub.status, 200);
        assert_eq!(app.cache_stats().misses, misses_before);

        // Conditional GET round-trips the ETag.
        let etag = first
            .headers
            .iter()
            .find(|(name, _)| name == "ETag")
            .map(|(_, value)| value.clone())
            .expect("sweep responses carry an ETag");
        let mut conditional = request("/v1/sweep", &grid);
        conditional
            .headers
            .push(("if-none-match".to_string(), etag));
        assert_eq!(app.handle(&conditional).status, 304);
    }

    #[test]
    fn sweep_rejects_bad_grids_with_400() {
        let app = tiny_app();
        for query in [
            vec![("states", "ZZ")],
            vec![("states", "VT,VT")],
            vec![("scales", "0")],
            vec![("scales", "abc")],
            vec![("tiers", "50_5")],
            vec![("caps", "0")],
            vec![("caps", "11")],
            vec![("rules", "statusquo")],
            vec![("epoch", "1")],
            vec![("isp", "AT&T")],
            vec![("scale", "2000")],
            // 15 states x 3 tiers x 2 caps = 90 cells > the inline cap.
            vec![
                ("states", "OH,MT,NM,CA,UT,WV,VT,AL,WI,GA,IL,NC,KS,NH,MN"),
                ("tiers", "10_1,25_3,100_20"),
                ("caps", "0.9,1.0"),
            ],
        ] {
            let response = app.handle(&request("/v1/sweep", &query));
            assert_eq!(response.status, 400, "query {query:?} must be rejected");
        }
    }

    #[test]
    fn sweep_cells_round_trip_through_the_disk_tier() {
        let dir = snap_temp_dir("sweeptier");
        let app = App::new(AppConfig {
            default_scale: 2000,
            engine: EngineConfig::serial(),
            cache_capacity: 2,
            snapshot_dir: Some(dir.clone()),
            ..AppConfig::default()
        });
        // Four cells through a two-slot cache: the overflow spills.
        let grid = [("states", "VT,NH"), ("caps", "0.75,1.0")];
        let first = app.handle(&request("/v1/sweep", &grid));
        assert_eq!(first.status, 200);
        let stats = app.cache_stats();
        assert!(stats.spills >= 2, "{stats:?}");
        // The re-request promotes the spilled cells byte-identically.
        let second = app.handle(&request("/v1/sweep", &grid));
        assert_eq!(second.status, 200);
        assert_eq!(second.body, first.body, "promoted bytes must match");
        let stats = app.cache_stats();
        assert_eq!(stats.misses, 4, "no recomputation after the spill");
        assert!(stats.disk_hits >= 1, "{stats:?}");
        wait_for_background_snapshot(&app);
        drop(app);
        fs::remove_dir_all(&dir).unwrap();
    }
}
