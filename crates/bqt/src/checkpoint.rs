//! Checkpointed, resumable campaigns.
//!
//! The BQT+ line of work (PAPERS.md) is explicit that plan-collection
//! campaigns die mid-flight — proxy bans, container evictions, site
//! changes — and must resume without re-querying completed addresses.
//! This module gives [`Campaign`] that property on top of the
//! append-only [`caf_snap::Log`]: a checkpoint is one **META** frame
//! pinning everything the records depend on, followed by one **SPAN**
//! frame per completed shard (`start`, `len`, then the records). RNG
//! stream positions are *implicit*: every query's randomness is keyed
//! by `(seed, address, ISP)`, so "where the RNG was" is fully
//! determined by which tasks are done — the META frame records the
//! stream-keying version so a future keying change invalidates old
//! checkpoints instead of silently diverging.
//!
//! A SPAN record is stored relative to its task: slot `start + i` is
//! `tasks[start + i]`, whose list META pins by hash, so a record holds
//! no address and no ISP, and each plan is one byte, its index in the
//! task ISP's [`PlanCatalog`] (an escape byte and the full plan codec
//! for a plan that is no catalog tier). META also pins a fingerprint of
//! every catalog, so editing a catalog makes old checkpoints stale
//! instead of decoding them into different plans.
//!
//! A flush appends only the SPAN frames completed since the last one
//! and syncs them, so its cost follows the new bytes, not the file.
//! Every frame carries its own checksum; a crash mid-append leaves a
//! torn tail, which the next run cuts off (counted in
//! `caf.bqt.checkpoint.torn_bytes`) before it appends after the intact
//! prefix.
//!
//! Resume is byte-exact: a killed campaign reloaded from its checkpoint
//! runs only the missing task runs (via [`UnitPlan::build_subset`]) and
//! produces a [`CampaignResult`] equal — records, replayed proxy
//! telemetry, and stats — to an uninterrupted run of the same config.
//!
//! A checkpoint that does not match the campaign (different tasks,
//! retry budget, pool size, plan catalogs, or format/stream version) or
//! holds a checksummed frame that does not decode, overlaps another
//! span or falls outside the task list is *stale*: the campaign starts
//! fresh and replaces it. Only real I/O failures surface as errors.
//!
//! [`UnitPlan::build_subset`]: caf_exec::UnitPlan::build_subset

use std::borrow::Cow;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use caf_snap::{content_hash64, Log, LogReader, Reader, Writer};
use caf_synth::plans::{CatalogTier, PlanList};
use caf_synth::{BroadbandPlan, Isp, PlanCatalog, TruthTable};

use crate::campaign::{Campaign, CampaignConfig, CampaignResult, QueryTask};
use crate::outcome::{QueryOutcome, QueryRecord};

/// Checkpoint format version; bump on any layout change. A file of any
/// other version loads as stale.
const FORMAT_VERSION: u32 = 3;
/// Version of the keyed-RNG stream model the records were drawn under.
/// Queries derive their stream from `(seed, "bqt-query", address, ISP)`;
/// if that keying ever changes, bump this so stale checkpoints are
/// discarded rather than mixed with records from the new streams.
const RNG_STREAM_VERSION: u32 = 1;

/// The byte that escapes a small integer into a full `u64`, and a plan
/// that is no catalog tier into the full plan codec.
const ESCAPE: u8 = u8::MAX;
/// The fewest bytes a SPAN record takes: outcome tag, attempts, error
/// count and duration.
const MIN_RECORD_BYTES: usize = 1 + 1 + 1 + 8;

/// Completed tasks `start..start + records.len()` and their records.
type Span = (usize, Vec<QueryRecord>);

/// Where and how often a campaign checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding checkpoint files (created on demand).
    pub dir: PathBuf,
    /// Write a checkpoint after this many newly completed tasks
    /// (clamped to ≥ 1). Smaller is safer, larger is cheaper; the
    /// campaign bench reports the overhead as `checkpoint_overhead_pct`.
    pub every: usize,
}

impl CheckpointConfig {
    /// Creates a config checkpointing every `every` completed tasks.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// The checkpoint file for a campaign seed.
    pub fn file_for(&self, seed: u64) -> PathBuf {
        self.dir.join(format!("campaign-{seed:016x}.ckpt"))
    }
}

/// Everything the stored records depend on. A checkpoint whose meta
/// disagrees with the running campaign is stale and ignored. (The
/// throttle policy and worker count shape stats and wall-clock only and
/// are recomputed at assembly, so they are deliberately *not* pinned.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CheckpointMeta {
    seed: u64,
    task_count: u64,
    /// `content_hash64` over the encoded task list and the knobs that
    /// feed the retry budget.
    task_hash: u64,
    max_attempts: u32,
    adaptive_retry: bool,
    proxy_pool_size: u64,
    /// [`catalog_fingerprint`] of every ISP's plan catalog: SPAN plans
    /// are catalog indices.
    catalogs: u64,
}

impl CheckpointMeta {
    pub(crate) fn for_campaign(config: &CampaignConfig, tasks: &[QueryTask]) -> CheckpointMeta {
        let mut w = Writer::new();
        for task in tasks {
            w.put(&task.address);
            w.put(&task.isp);
        }
        w.put_u32(config.max_attempts);
        w.put_bool(config.adaptive_retry);
        CheckpointMeta {
            seed: config.seed,
            task_count: tasks.len() as u64,
            task_hash: content_hash64(&w.into_bytes()),
            max_attempts: config.max_attempts,
            adaptive_retry: config.adaptive_retry,
            proxy_pool_size: config.proxy_pool_size as u64,
            catalogs: catalog_fingerprint(Isp::all().map(|isp| PlanCatalog::for_isp(isp).tiers())),
        }
    }

    /// The META frame's payload.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(FORMAT_VERSION);
        w.put_u32(RNG_STREAM_VERSION);
        w.put_u64(self.seed);
        w.put_u64(self.task_count);
        w.put_u64(self.task_hash);
        w.put_u32(self.max_attempts);
        w.put_bool(self.adaptive_retry);
        w.put_u64(self.proxy_pool_size);
        w.put_u64(self.catalogs);
        w.into_bytes()
    }

    /// Decodes a META payload; `None` on any version or shape mismatch.
    fn decode_matching(&self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        let format = r.u32().ok()?;
        let stream = r.u32().ok()?;
        if format != FORMAT_VERSION || stream != RNG_STREAM_VERSION {
            return None;
        }
        let stored = CheckpointMeta {
            seed: r.u64().ok()?,
            task_count: r.u64().ok()?,
            task_hash: r.u64().ok()?,
            max_attempts: r.u32().ok()?,
            adaptive_retry: r.bool().ok()?,
            proxy_pool_size: r.u64().ok()?,
            catalogs: r.u64().ok()?,
        };
        r.finish().ok()?;
        (stored == *self).then_some(())
    }
}

/// `content_hash64` over plan catalogs' tiers, one catalog per ISP in
/// `Isp::all()` order: every field a SPAN plan index stands for.
fn catalog_fingerprint<'a>(catalogs: impl IntoIterator<Item = &'a [CatalogTier]>) -> u64 {
    let mut w = Writer::new();
    for tiers in catalogs {
        w.put_usize(tiers.len());
        for tier in tiers {
            w.put_str(tier.label);
            w.put(&tier.download_mbps);
            w.put(&tier.upload_mbps);
            w.put_f64(tier.monthly_usd);
            w.put_bool(tier.guaranteed);
        }
    }
    content_hash64(&w.into_bytes())
}

/// Writes `v` in one byte below [`ESCAPE`], else as [`ESCAPE`] and a
/// `u64`.
fn put_small(w: &mut Writer, v: u64) {
    match u8::try_from(v) {
        Ok(byte) if byte != ESCAPE => w.put_u8(byte),
        _ => {
            w.put_u8(ESCAPE);
            w.put_u64(v);
        }
    }
}

/// Reads a [`put_small`] integer.
fn small(r: &mut Reader<'_>) -> Option<u64> {
    match r.u8().ok()? {
        ESCAPE => r.u64().ok(),
        byte => Some(u64::from(byte)),
    }
}

/// Whether `plan` is `tier` bit for bit: what decoding its index gives.
fn is_tier(plan: &BroadbandPlan, tier: &CatalogTier) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    plan.monthly_usd.to_bits() == tier.monthly_usd.to_bits()
        && bits(plan.download_mbps) == bits(tier.download_mbps)
        && bits(plan.upload_mbps) == bits(tier.upload_mbps)
        && plan.speed_guaranteed == tier.guaranteed
        && plan.name == tier.label
}

/// Appends one SPAN record: the record's fields but its task's address
/// and ISP, with each plan as its index in the ISP's catalog.
fn put_record(w: &mut Writer, record: &QueryRecord) {
    match &record.outcome {
        QueryOutcome::Serviceable {
            plans,
            existing_subscriber,
        } => {
            w.put_u8(0);
            let tiers = PlanCatalog::for_isp(record.isp).tiers();
            put_small(w, plans.len() as u64);
            for plan in plans.iter() {
                let index = tiers.iter().position(|tier| is_tier(plan, tier));
                match index.and_then(|i| u8::try_from(i).ok()) {
                    Some(index) if index != ESCAPE => w.put_u8(index),
                    _ => {
                        w.put_u8(ESCAPE);
                        w.put(plan);
                    }
                }
            }
            w.put_bool(*existing_subscriber);
        }
        QueryOutcome::NoService => w.put_u8(1),
        QueryOutcome::AddressNotFound => w.put_u8(2),
        QueryOutcome::Unknown(category) => {
            w.put_u8(3);
            w.put(category);
        }
        QueryOutcome::CallToOrder => w.put_u8(4),
    }
    put_small(w, u64::from(record.attempts));
    put_small(w, record.errors.len() as u64);
    for category in &record.errors {
        w.put(category);
    }
    w.put_f64(record.duration_secs);
}

/// Reads one SPAN record of `task`. Every count is checked against the
/// bytes left before it sizes an allocation.
fn record(r: &mut Reader<'_>, task: QueryTask) -> Option<QueryRecord> {
    let outcome = match r.u8().ok()? {
        0 => QueryOutcome::Serviceable {
            plans: span_plans(r, &PlanCatalog::for_isp(task.isp))?,
            existing_subscriber: r.bool().ok()?,
        },
        1 => QueryOutcome::NoService,
        2 => QueryOutcome::AddressNotFound,
        3 => QueryOutcome::Unknown(r.get().ok()?),
        4 => QueryOutcome::CallToOrder,
        _ => return None,
    };
    let attempts = u32::try_from(small(r)?).ok()?;
    let count = small(r)?;
    let mut errors = Vec::with_capacity(r.check_count(count, 1).ok()?);
    for _ in 0..count {
        errors.push(r.get().ok()?);
    }
    Some(QueryRecord {
        address: task.address,
        isp: task.isp,
        outcome,
        attempts,
        errors,
        duration_secs: r.f64().ok()?,
    })
}

/// Reads a SPAN record's plan list of `catalog`: the catalog's
/// borrowed offer when the indices spell one, else an owned list.
fn span_plans(r: &mut Reader<'_>, catalog: &PlanCatalog) -> Option<PlanList> {
    let count = small(r)?;
    let tiers = catalog.tiers();
    let mut ahead = r.clone();
    let tier_at = |r: &mut Reader<'_>| tiers.get(usize::from(r.u8().ok()?));
    if let Some(offer) = tier_at(&mut ahead).map(|tier| catalog.offer(tier)) {
        if offer.len() as u64 == count
            && offer[1..]
                .iter()
                .all(|plan| tier_at(&mut ahead).is_some_and(|tier| is_tier(plan, tier)))
        {
            *r = ahead;
            return Some(Cow::Borrowed(offer));
        }
    }
    let mut plans = Vec::with_capacity(r.check_count(count, 1).ok()?);
    for _ in 0..count {
        plans.push(match r.u8().ok()? {
            ESCAPE => r.get().ok()?,
            index => catalog.plan_from_tier(tiers.get(usize::from(index))?),
        });
    }
    Some(Cow::Owned(plans))
}

/// Appends the SPAN frame of the completed tasks `start..start +
/// records.len()` to `out`.
fn span_frame(out: &mut Vec<u8>, start: usize, records: &[QueryRecord]) {
    let mut w = Writer::new();
    w.put_usize(start);
    w.put_usize(records.len());
    for record in records {
        put_record(&mut w, record);
    }
    Log::frame(out, &w.into_bytes());
}

/// Decodes a checkpoint log's intact bytes into its non-empty spans,
/// ascending by start. `None` when the log is stale: no META frame, a
/// META for another campaign, or a checksummed SPAN frame that does not
/// decode, overlaps another span, or falls outside the task list.
/// Allocates only the decoded records, each count first checked against
/// the bytes left.
fn decode_checkpoint(
    bytes: &[u8],
    meta: &CheckpointMeta,
    tasks: &[QueryTask],
) -> Option<Vec<Span>> {
    let mut frames = LogReader::new(bytes);
    meta.decode_matching(frames.next()?)?;
    let mut spans: Vec<Span> = Vec::new();
    for frame in frames {
        let mut r = Reader::new(frame);
        let start = r.usize().ok()?;
        let declared = r.u64().ok()?;
        let len = r.check_count(declared, MIN_RECORD_BYTES).ok()?;
        let span_tasks = tasks.get(start..start.checked_add(len)?)?;
        let mut records = Vec::with_capacity(len);
        for &task in span_tasks {
            records.push(record(&mut r, task)?);
        }
        r.finish().ok()?;
        if !records.is_empty() {
            spans.push((start, records));
        }
    }
    spans.sort_unstable_by_key(|&(start, _)| start);
    let disjoint = spans
        .windows(2)
        .all(|pair| pair[0].0 + pair[0].1.len() <= pair[1].0);
    disjoint.then_some(spans)
}

/// Opens the checkpoint log at `path` for a campaign: a matching log
/// resumes after its intact prefix with the spans it holds; an absent
/// or stale one is replaced by a fresh log holding only META.
fn open_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    tasks: &[QueryTask],
) -> io::Result<(Log, Vec<Span>)> {
    match Log::open_for_append(path) {
        Ok((log, bytes)) => {
            if let Some(spans) = decode_checkpoint(&bytes, meta, tasks) {
                caf_obs::count("caf.bqt.checkpoint.torn_bytes", log.torn_bytes());
                return Ok((log, spans));
            }
            caf_obs::count("caf.bqt.checkpoint.stale", 1);
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let started = Instant::now();
    let log = Log::create(path, &meta.encode())?;
    observe_sync(started);
    Ok((log, Vec::new()))
}

/// One `caf.bqt.checkpoint.sync_us` observation: the time since
/// `started` of a durable write.
fn observe_sync(started: Instant) {
    caf_obs::observe(
        "caf.bqt.checkpoint.sync_us",
        started.elapsed().as_micros() as u64,
    );
}

/// Shared sink the executor's shard closures report completions into;
/// every `every` completed tasks it appends what completed since the
/// last flush to the checkpoint log.
///
/// Each worker encodes its shard's SPAN frame before taking the lock.
/// Under the lock a completion only copies that frame onto the pending
/// buffer, and a flush appends the pending bytes and syncs them: a
/// flush costs the bytes completed since the previous one.
pub(crate) struct CheckpointSink {
    every: usize,
    state: Mutex<SinkState>,
}

struct SinkState {
    log: Log,
    /// SPAN frames completed but not yet appended.
    pending: Vec<u8>,
    since_flush: usize,
    flushes: u64,
    error: Option<io::Error>,
}

impl SinkState {
    /// Appends the pending frames. After the first write error the
    /// sink stops writing; the run reports that error.
    fn flush(&mut self) {
        if self.pending.is_empty() || self.error.is_some() {
            return;
        }
        let started = Instant::now();
        match self.log.append(&self.pending) {
            Ok(()) => {
                observe_sync(started);
                self.pending.clear();
            }
            Err(e) => self.error = Some(e),
        }
    }
}

impl CheckpointSink {
    fn new(log: Log, every: usize) -> CheckpointSink {
        CheckpointSink {
            every: every.max(1),
            state: Mutex::new(SinkState {
                log,
                pending: Vec::new(),
                since_flush: 0,
                flushes: 0,
                error: None,
            }),
        }
    }

    /// Reports one completed shard: queues its SPAN frame and, when the
    /// flush threshold is crossed, appends every queued frame to the
    /// log. Called from executor worker threads; the frame is encoded
    /// before taking the lock.
    pub(crate) fn complete(&self, range: Range<usize>, records: &[QueryRecord]) {
        let mut frame = Vec::new();
        span_frame(&mut frame, range.start, records);
        // A worker that panicked here left only whole frames queued, and
        // the executor re-raises its panic, so a poisoned lock is usable.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.pending.extend_from_slice(&frame);
        state.since_flush += range.len();
        if state.since_flush >= self.every {
            state.since_flush = 0;
            state.flush();
            if state.error.is_none() {
                state.flushes += 1;
            }
        }
    }

    /// Appends the frames still pending, so the log holds every
    /// completed shard, and returns the threshold flush count and the
    /// first write error.
    fn finish(self) -> (u64, Option<io::Error>) {
        let mut state = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        state.flush();
        (state.flushes, state.error)
    }
}

impl Campaign {
    /// Seeds `checkpoint` with the given completed `spans` of `records`
    /// — exactly the file a campaign killed right after a flush at that
    /// epoch would have left behind. Useful for importing records from a
    /// prior run, and it is how the kill/resume tests construct
    /// interrupted states deterministically.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`], writing nothing, when
    /// a record's address or ISP is not its task's: the checkpoint
    /// stores neither, so such a record would load as its task's.
    pub fn seed_checkpoint(
        &self,
        tasks: &[QueryTask],
        records: &[QueryRecord],
        spans: &[Range<usize>],
        checkpoint: &CheckpointConfig,
    ) -> io::Result<()> {
        assert_eq!(records.len(), tasks.len(), "one record per task");
        if let Some(i) = tasks
            .iter()
            .zip(records)
            .position(|(task, record)| (task.address, task.isp) != (record.address, record.isp))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record {i} is not a record of its task {:?}", tasks[i]),
            ));
        }
        fs::create_dir_all(&checkpoint.dir)?;
        let meta = CheckpointMeta::for_campaign(self.config(), tasks);
        let mut log = Log::create(&checkpoint.file_for(self.config().seed), &meta.encode())?;
        let mut frames = Vec::new();
        for span in spans {
            span_frame(&mut frames, span.start, &records[span.clone()]);
        }
        log.append(&frames)
    }

    /// Runs the campaign with periodic checkpoints, resuming from an
    /// existing matching checkpoint in `checkpoint.dir` if one exists.
    /// The returned result is byte-identical to [`Campaign::run`] on the
    /// same config — resuming, re-running a finished campaign, or never
    /// having been interrupted all converge to the same
    /// [`CampaignResult`].
    ///
    /// On success the checkpoint file holds the *complete* run, so a
    /// subsequent call loads it and runs zero queries.
    pub fn run_with_checkpoints(
        &self,
        truth: &TruthTable,
        tasks: &[QueryTask],
        checkpoint: &CheckpointConfig,
    ) -> io::Result<CampaignResult> {
        let _span = caf_obs::span("bqt.campaign.checkpointed");
        fs::create_dir_all(&checkpoint.dir)?;
        let meta = CheckpointMeta::for_campaign(self.config(), tasks);
        let path = checkpoint.file_for(self.config().seed);
        let (log, mut spans) = open_checkpoint(&path, &meta, tasks)?;
        let resumed: usize = spans.iter().map(|(_, records)| records.len()).sum();
        caf_obs::count("caf.bqt.checkpoint.resumed_tasks", resumed as u64);

        if resumed < tasks.len() {
            // A fresh run plans every task, as `Campaign::run` does; a
            // resumed one only the gaps between its loaded spans.
            let runs = (resumed > 0).then(|| {
                let mut missing = Vec::new();
                let mut next = 0;
                for (start, records) in &spans {
                    if next < *start {
                        missing.push(next..*start);
                    }
                    next = start + records.len();
                }
                if next < tasks.len() {
                    missing.push(next..tasks.len());
                }
                missing
            });
            let plan = self.plan_for(tasks, runs);
            let sink = CheckpointSink::new(log, checkpoint.every);
            let shard_results = self.execute_plan(truth, tasks, &plan, Some(&sink));
            let (flushes, error) = sink.finish();
            caf_obs::count("caf.bqt.checkpoint.flushes", flushes);
            if let Some(e) = error {
                return Err(e);
            }
            spans.extend(
                shard_results
                    .into_iter()
                    .map(|(range, records)| (range.start, records)),
            );
            // Loaded spans and shards each ascend; together they tile
            // the task list.
            spans.sort_unstable_by_key(|&(start, _)| start);
        }

        let mut records = Vec::with_capacity(tasks.len());
        for (start, span) in spans {
            debug_assert!(
                span.is_empty() || start == records.len(),
                "spans tile the tasks"
            );
            records.extend(span);
        }
        assert_eq!(
            records.len(),
            tasks.len(),
            "every task completed or resumed"
        );
        Ok(self.finish(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_exec::rng::StdRng;
    use caf_exec::{prop, ShardPolicy};
    use caf_geo::{AddressId, UsState};
    use caf_snap::SnapshotBuilder;
    use caf_synth::params::ErrorCategory;
    use caf_synth::{SynthConfig, World};

    fn world() -> World {
        World::generate_states(
            SynthConfig {
                seed: 33,
                scale: 60,
            },
            &[UsState::Vermont],
        )
    }

    fn tasks_for(world: &World) -> Vec<QueryTask> {
        let vt = world.state(UsState::Vermont).unwrap();
        vt.geography
            .certified_addresses()
            .take(300)
            .map(|(address, isp)| QueryTask { address, isp })
            .collect()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caf-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A checkpoint log holding META and one SPAN frame per span.
    fn log_of(meta: &CheckpointMeta, records: &[QueryRecord], spans: &[Range<usize>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        Log::frame(&mut bytes, &meta.encode());
        for span in spans {
            span_frame(&mut bytes, span.start, &records[span.clone()]);
        }
        bytes
    }

    /// The tasks of `records`: what a SPAN frame of them decodes against.
    fn tasks_of(records: &[QueryRecord]) -> Vec<QueryTask> {
        records
            .iter()
            .map(|r| QueryTask {
                address: r.address,
                isp: r.isp,
            })
            .collect()
    }

    /// A decoded checkpoint as one slot per task.
    fn slots(
        bytes: &[u8],
        meta: &CheckpointMeta,
        tasks: &[QueryTask],
    ) -> Option<Vec<Option<QueryRecord>>> {
        let mut slots = vec![None; tasks.len()];
        for (start, records) in decode_checkpoint(bytes, meta, tasks)? {
            for (i, record) in records.into_iter().enumerate() {
                slots[start + i] = Some(record);
            }
        }
        Some(slots)
    }

    /// A record's generic `Snap` bytes: equal bytes are equal records bit
    /// for bit, NaN durations and prices and signed zeros included.
    fn snap_bytes(records: &[QueryRecord]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_seq(records);
        w.into_bytes()
    }

    fn counter(name: &str) -> u64 {
        caf_obs::registry().counter(name).get()
    }

    fn syncs() -> u64 {
        caf_obs::registry()
            .histogram("caf.bqt.checkpoint.sync_us")
            .count()
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let plain = campaign.run(&w.truth, &tasks);
        let dir = tempdir("plain");
        let ckpt = CheckpointConfig::new(&dir, 50);
        let first = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(first, plain, "checkpointing must not perturb results");
        // The finished log already holds the whole run.
        let bytes = fs::read(ckpt.file_for(campaign.config().seed)).unwrap();
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        assert!(slots(&bytes, &meta, &tasks).unwrap().into_iter().eq(plain
            .records
            .iter()
            .cloned()
            .map(Some)));
        // Second call resumes from the complete checkpoint: zero queries,
        // same bytes.
        let second = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(second, plain);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_checkpoint_resumes_to_identical_result() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 2,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        // Simulate a kill at an arbitrary epoch: hand-write a checkpoint
        // holding two completed spans of the reference run, out of order.
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let dir = tempdir("partial");
        let ckpt = CheckpointConfig::new(&dir, 40);
        fs::write(
            ckpt.file_for(campaign.config().seed),
            log_of(&meta, &reference.records, &[150..260, 10..90]),
        )
        .unwrap();
        let resumed = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(
            resumed, reference,
            "resume must reproduce the uninterrupted run exactly"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_is_discarded_not_mixed() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        // A checkpoint for a *different* retry budget must not be loaded.
        let other = CampaignConfig {
            max_attempts: 5,
            ..*campaign.config()
        };
        let stale_meta = CheckpointMeta::for_campaign(&other, &tasks);
        let dir = tempdir("stale");
        let ckpt = CheckpointConfig::new(&dir, 40);
        let path = ckpt.file_for(campaign.config().seed);
        fs::write(
            &path,
            log_of(
                &stale_meta,
                &reference.records,
                std::slice::from_ref(&(0..tasks.len())),
            ),
        )
        .unwrap();
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        // Garbage bytes are likewise discarded, not an error.
        fs::write(&path, b"not a checkpoint").unwrap();
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_spans() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let spans = [0..40, 100..130, 250..tasks.len()];
        let mut expected = vec![None; tasks.len()];
        for i in spans.iter().cloned().flatten() {
            expected[i] = Some(reference.records[i].clone());
        }
        let dir = tempdir("roundtrip");
        let ckpt = CheckpointConfig::new(&dir, 40);
        campaign
            .seed_checkpoint(&tasks, &reference.records, &spans, &ckpt)
            .unwrap();
        let bytes = fs::read(ckpt.file_for(campaign.config().seed)).unwrap();
        assert_eq!(bytes, log_of(&meta, &reference.records, &spans));
        assert_eq!(slots(&bytes, &meta, &tasks), Some(expected));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_checkpoint_rejects_records_of_other_tasks() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks).records;
        let dir = tempdir("foreign");
        let ckpt = CheckpointConfig::new(dir.join("ckpt"), 40);
        let spans = [0..40, 60..80];
        let other_isp = if tasks[7].isp == Isp::Att {
            Isp::Frontier
        } else {
            Isp::Att
        };
        let edits: [fn(&mut QueryRecord, Isp); 3] = [
            |r, _| r.address = AddressId(r.address.0 + 1),
            |r, isp| r.isp = isp,
            |r, isp| {
                r.address = AddressId(0);
                r.isp = isp;
            },
        ];
        for edit in edits {
            let mut records = reference.clone();
            edit(&mut records[7], other_isp);
            let error = campaign
                .seed_checkpoint(&tasks, &records, &spans, &ckpt)
                .unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
            assert!(!ckpt.file_for(campaign.config().seed).exists());
        }
        // Records swapped between two tasks are each another task's.
        let mut swapped = reference.clone();
        swapped.swap(3, 4);
        assert!(campaign
            .seed_checkpoint(&tasks, &swapped, &spans, &ckpt)
            .is_err());
        campaign
            .seed_checkpoint(&tasks, &reference, &spans, &ckpt)
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_resumes_identically_and_appends_at_the_intact_prefix() {
        caf_obs::set_enabled(true);
        let w = world();
        let tasks = &tasks_for(&w)[..120];
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 2,
            shard: ShardPolicy::finest(),
            ..CampaignConfig::default()
        });
        let plain = campaign.run(&w.truth, tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), tasks);
        let dir = tempdir("torn");
        let ckpt = CheckpointConfig::new(&dir, tasks.len());
        campaign
            .run_with_checkpoints(&w.truth, tasks, &ckpt)
            .unwrap();
        let complete = fs::read(ckpt.file_for(campaign.config().seed)).unwrap();
        let mut reader = LogReader::new(&complete);
        let mut ends = vec![0];
        while reader.next().is_some() {
            ends.push(reader.intact());
        }
        assert_eq!(*ends.last().unwrap(), complete.len());
        assert!(ends.len() > 4, "META plus several SPAN frames");
        let path = ckpt.file_for(campaign.config().seed);
        for cut in ends[ends.len() - 3]..complete.len() {
            let intact = *ends.iter().rfind(|&&end| end <= cut).unwrap();
            // Tear the log in place. (Rewriting it whole would free its
            // synced blocks, and on a discard mount every later sync
            // waits for that.)
            let mut file = fs::OpenOptions::new().write(true).open(&path).unwrap();
            std::io::Write::write_all(&mut file, &complete[..cut]).unwrap();
            file.set_len(cut as u64).unwrap();
            drop(file);
            let torn_before = counter("caf.bqt.checkpoint.torn_bytes");
            let syncs_before = syncs();
            let resumed = campaign
                .run_with_checkpoints(&w.truth, tasks, &ckpt)
                .unwrap();
            assert_eq!(resumed, plain, "cut at {cut}");
            assert!(syncs() > syncs_before, "the re-run frames were synced");
            assert_eq!(
                counter("caf.bqt.checkpoint.torn_bytes") - torn_before,
                (cut - intact) as u64,
                "cut at {cut}"
            );
            let healed = fs::read(&path).unwrap();
            assert_eq!(healed[..intact], complete[..intact], "cut at {cut}");
            let mut reader = LogReader::new(&healed);
            reader.by_ref().for_each(drop);
            assert_eq!(reader.intact(), healed.len(), "cut at {cut}");
            let loaded = slots(&healed, &meta, tasks).unwrap();
            assert!(loaded.iter().all(Option::is_some), "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A format-1 checkpoint: one `caf-snap` container with META, SPANS
    /// and STATS sections, as builds before the frame log wrote it.
    fn version_one_checkpoint(meta: &CheckpointMeta, records: &[QueryRecord]) -> Vec<u8> {
        let mut builder = SnapshotBuilder::new(meta.seed, 0, records.len() as u64);
        builder.section(1, |w| w.put_raw(&version_two_meta(meta, 1)));
        builder.section(2, |w| {
            w.put_u64(1);
            w.put_u64(0);
            w.put_u64(records.len() as u64);
            for record in records {
                w.put(record);
            }
        });
        builder.section(3, |w| {
            w.put_u64(records.len() as u64);
            w.put_u64(records.iter().map(|r| u64::from(r.attempts)).sum());
            w.put_u64(records.iter().map(|r| r.errors.len() as u64).sum());
            w.put_f64(records.iter().map(|r| r.duration_secs).sum());
        });
        builder.finish()
    }

    /// The META payload of formats 1 and 2: today's fields but the
    /// catalog fingerprint.
    fn version_two_meta(meta: &CheckpointMeta, format: u32) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(format);
        w.put_u32(RNG_STREAM_VERSION);
        w.put_u64(meta.seed);
        w.put_u64(meta.task_count);
        w.put_u64(meta.task_hash);
        w.put_u32(meta.max_attempts);
        w.put_bool(meta.adaptive_retry);
        w.put_u64(meta.proxy_pool_size);
        w.into_bytes()
    }

    /// A format-2 checkpoint: the same frame log, whose SPAN records are
    /// whole `Snap`-encoded records.
    fn version_two_checkpoint(meta: &CheckpointMeta, records: &[QueryRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        Log::frame(&mut bytes, &version_two_meta(meta, 2));
        let mut w = Writer::new();
        w.put_usize(0);
        w.put_usize(records.len());
        for record in records {
            w.put(record);
        }
        Log::frame(&mut bytes, &w.into_bytes());
        bytes
    }

    #[test]
    fn version_one_checkpoint_loads_as_stale_and_is_replaced() {
        caf_obs::set_enabled(true);
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let dir = tempdir("v1");
        let ckpt = CheckpointConfig::new(&dir, 1000);
        let path = ckpt.file_for(campaign.config().seed);
        // Format 1 (a whole-file container) and format 2 (today's frame
        // log, whole records in its SPAN frames) are both stale.
        let old_files = [
            version_one_checkpoint(&meta, &reference.records),
            version_two_checkpoint(&meta, &reference.records),
        ];
        for old in old_files {
            fs::write(&path, old).unwrap();
            let stale_before = counter("caf.bqt.checkpoint.stale");
            let result = campaign
                .run_with_checkpoints(&w.truth, &tasks, &ckpt)
                .unwrap();
            assert_eq!(result, reference);
            assert!(counter("caf.bqt.checkpoint.stale") > stale_before);
            let replaced = fs::read(&path).unwrap();
            let mut frames = LogReader::new(&replaced);
            assert_eq!(frames.next(), Some(&meta.encode()[..]), "a format-3 META");
            assert!(slots(&replaced, &meta, &tasks)
                .unwrap()
                .iter()
                .all(Option::is_some));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_catalog_fingerprint_makes_a_checkpoint_stale() {
        caf_obs::set_enabled(true);
        let catalogs = Isp::all().map(|isp| PlanCatalog::for_isp(isp).tiers());
        let today = catalog_fingerprint(catalogs);
        // Any edit to any tier, or to the tier list, moves the print.
        let mut repriced = catalogs[2].to_vec();
        repriced[0].monthly_usd += 1.0;
        let mut relabeled = catalogs[5].to_vec();
        relabeled[1].label = "Renamed";
        let mut reordered = catalogs[0].to_vec();
        reordered.swap(0, 1);
        let shortened = &catalogs[3][1..];
        for (isp, tiers) in [
            (2, &repriced[..]),
            (5, &relabeled[..]),
            (0, &reordered[..]),
            (3, shortened),
        ] {
            let mut edited = catalogs;
            edited[isp] = tiers;
            assert_ne!(catalog_fingerprint(edited), today, "edit of ISP {isp}");
        }

        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        assert_eq!(meta.catalogs, today);
        let edited = CheckpointMeta {
            catalogs: today ^ 1,
            ..meta.clone()
        };
        let old = log_of(&edited, &reference.records, &[0..100, 100..tasks.len()]);
        assert!(decode_checkpoint(&old, &meta, &tasks).is_none());
        let dir = tempdir("catalog");
        let ckpt = CheckpointConfig::new(&dir, 1000);
        fs::write(ckpt.file_for(campaign.config().seed), &old).unwrap();
        let stale_before = counter("caf.bqt.checkpoint.stale");
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        assert!(counter("caf.bqt.checkpoint.stale") > stale_before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record of any shape the SPAN codec must carry, from one seed:
    /// every outcome, catalog offers (borrowed, copied, cut short or
    /// with an escaped plan), catalog plans (borrowed or owned names),
    /// plans that are no tier (another ISP's tier, edited fields, `-0.0`
    /// and NaN prices, no speeds), zero plans, `Unknown` with many
    /// errors, attempt counts past a byte, and durations of any bit
    /// pattern.
    fn arbitrary_record(seed: u64) -> QueryRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        let isp = Isp::all()[rng.gen_range(0..7usize)];
        let catalog = PlanCatalog::for_isp(isp);
        let errors_len = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => rng.gen_range(1..4usize),
            2 => rng.gen_range(250..300usize),
            _ => rng.gen_range(0..20usize),
        };
        let errors = (0..errors_len)
            .map(|_| ErrorCategory::all()[rng.gen_range(0..ErrorCategory::all().len())])
            .collect();
        let outcome = match rng.gen_range(0..6u32) {
            0 => {
                let tier = &catalog.tiers()[rng.gen_range(0..catalog.tiers().len())];
                let offer = catalog.offer(tier);
                let plans = match rng.gen_range(0..4u32) {
                    0 => Cow::Borrowed(offer),
                    1 => Cow::Owned(offer.to_vec()),
                    2 => Cow::Owned(offer[..offer.len() - 1].to_vec()),
                    _ => {
                        let mut plans = offer.to_vec();
                        let last = plans.len() - 1;
                        plans[last].monthly_usd = -0.0;
                        Cow::Owned(plans)
                    }
                };
                QueryOutcome::Serviceable {
                    plans,
                    existing_subscriber: rng.gen_bool(0.5),
                }
            }
            1 => {
                let plans = (0..rng.gen_range(0..5usize))
                    .map(|_| {
                        let tier = catalog.tiers()[rng.gen_range(0..catalog.tiers().len())];
                        let mut plan = catalog.plan_from_tier(&tier);
                        match rng.gen_range(0..9u32) {
                            0 => plan.name = Cow::Owned(tier.label.to_string()),
                            1 => plan.monthly_usd = -0.0,
                            2 => {
                                plan.monthly_usd =
                                    f64::from_bits(rng.next_u64() | 0x7FF0_0000_0000_0001)
                            }
                            3 => plan.download_mbps = None,
                            4 => plan.speed_guaranteed = !plan.speed_guaranteed,
                            5 => plan.name = Cow::Owned(format!("Promo {}", rng.next_u64())),
                            6 => {
                                let other =
                                    PlanCatalog::for_isp(Isp::all()[rng.gen_range(0..7usize)]);
                                plan = other.plan_from_tier(&other.tiers()[0]);
                            }
                            _ => {}
                        }
                        plan
                    })
                    .collect();
                QueryOutcome::Serviceable {
                    plans,
                    existing_subscriber: rng.gen_bool(0.5),
                }
            }
            2 => QueryOutcome::NoService,
            3 => QueryOutcome::AddressNotFound,
            4 => QueryOutcome::Unknown(ErrorCategory::all()[rng.gen_range(0..5usize)]),
            _ => QueryOutcome::CallToOrder,
        };
        let attempts = match rng.gen_range(0..4u32) {
            0 => 254 + rng.gen_range(0..3u32),
            1 => u32::MAX - rng.gen_range(0..2u32),
            _ => rng.gen_range(1..10u32),
        };
        QueryRecord {
            address: AddressId(rng.next_u64()),
            isp,
            outcome,
            attempts,
            errors,
            duration_secs: if rng.gen_bool(0.2) {
                f64::from_bits(rng.next_u64())
            } else {
                rng.unit_f64() * 100.0
            },
        }
    }

    /// Encodes `records` as the SPAN frame of tasks `start..` (after
    /// `start` filler tasks), decodes it, and compares bit for bit.
    fn check_span_codec_round_trips(seeds: Vec<u64>, start: usize) {
        let records: Vec<QueryRecord> = seeds.into_iter().map(arbitrary_record).collect();
        let filler = QueryTask {
            address: AddressId(0),
            isp: Isp::Att,
        };
        let mut tasks = vec![filler; start];
        tasks.extend(tasks_of(&records));
        let meta = CheckpointMeta::for_campaign(&CampaignConfig::default(), &tasks);
        let mut log = Vec::new();
        Log::frame(&mut log, &meta.encode());
        span_frame(&mut log, start, &records);
        let spans = decode_checkpoint(&log, &meta, &tasks).expect("a valid frame");
        let decoded: Vec<QueryRecord> = spans.into_iter().flat_map(|(_, span)| span).collect();
        assert_eq!(snap_bytes(&decoded), snap_bytes(&records));
        // A list that is its first plan's catalog offer decodes borrowed;
        // an escaped or other list decodes owned.
        for (record, sent) in decoded.iter().zip(&records) {
            let (
                QueryOutcome::Serviceable { plans, .. },
                QueryOutcome::Serviceable { plans: sent, .. },
            ) = (&record.outcome, &sent.outcome)
            else {
                continue;
            };
            let catalog = PlanCatalog::for_isp(record.isp);
            let offer = sent
                .first()
                .and_then(|plan| catalog.tiers().iter().find(|tier| is_tier(plan, tier)))
                .map(|tier| catalog.offer(tier));
            assert_eq!(
                matches!(plans, Cow::Borrowed(_)),
                offer.is_some_and(|offer| offer == &sent[..]),
                "{sent:?}"
            );
        }
    }

    #[test]
    fn span_codec_round_trips_every_record_shape_bit_for_bit() {
        let strategy = (prop::vec(0..u64::MAX, 0..40), 0..5usize);
        prop::check(500, strategy, |(seeds, start)| {
            check_span_codec_round_trips(seeds, start)
        });
    }

    #[test]
    fn smoke_span_codec_edge_records() {
        // Zero records, then every seed's shape in one frame.
        check_span_codec_round_trips(Vec::new(), 0);
        check_span_codec_round_trips((0..200).collect(), 3);
    }

    #[test]
    fn catalog_plans_take_one_byte() {
        let catalog = PlanCatalog::for_isp(Isp::CenturyLink);
        let plans: Vec<BroadbandPlan> = catalog
            .tiers()
            .iter()
            .take(2)
            .map(|tier| catalog.plan_from_tier(tier))
            .collect();
        let record = QueryRecord {
            address: AddressId(9),
            isp: Isp::CenturyLink,
            outcome: QueryOutcome::Serviceable {
                plans: plans.into(),
                existing_subscriber: false,
            },
            attempts: 2,
            errors: vec![ErrorCategory::Other],
            duration_secs: 12.5,
        };
        let mut w = Writer::new();
        put_record(&mut w, &record);
        // Tag, plan count, two plan indices, subscriber flag, attempts,
        // error count, one error, duration.
        assert_eq!(w.len(), 1 + 1 + 2 + 1 + 1 + 1 + 1 + 8);
        let mut generic = Writer::new();
        generic.put(&record);
        assert!(generic.len() > 3 * w.len());
    }

    #[test]
    fn overlapping_or_out_of_range_spans_load_as_stale() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let records = campaign.run(&w.truth, &tasks).records;
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let n = tasks.len();
        let decode = |bytes: &[u8]| decode_checkpoint(bytes, &meta, &tasks);
        assert!(decode(&log_of(&meta, &records, &[0..10, 20..30])).is_some());
        assert!(decode(&log_of(&meta, &records, &[0..10, 5..15])).is_none());
        assert!(decode(&log_of(&meta, &records, &[20..30, 0..10, 29..31])).is_none());
        assert!(decode(&log_of(&meta, &records, &[3..4, 3..4])).is_none());
        // An empty span overlaps nothing.
        assert!(decode(&log_of(&meta, &records, &[3..4, 3..3, 0..3])).is_some());
        // Out of range: past the task list, and a start whose end overflows.
        let mut past = log_of(&meta, &records, &[]);
        span_frame(&mut past, n - 2, &records[..3]);
        assert!(decode(&past).is_none());
        let mut overflow = log_of(&meta, &records, &[]);
        span_frame(&mut overflow, usize::MAX, &records[..1]);
        assert!(decode(&overflow).is_none());
        // A span whose records do not fill its frame, or overrun it.
        let frame_of = |len: usize, count: usize| {
            let mut bytes = log_of(&meta, &records, &[]);
            let mut payload = Writer::new();
            payload.put_usize(0);
            payload.put_usize(len);
            for record in &records[..count] {
                put_record(&mut payload, record);
            }
            Log::frame(&mut bytes, &payload.into_bytes());
            bytes
        };
        assert!(decode(&frame_of(2, 2)).is_some());
        assert!(decode(&frame_of(2, 1)).is_none());
        assert!(decode(&frame_of(1, 2)).is_none());
        // A META for a different task list, and no META at all.
        let other = CheckpointMeta::for_campaign(campaign.config(), &tasks[1..]);
        assert!(decode(&log_of(&other, &records, &[])).is_none());
        assert!(decode(&[]).is_none());
    }

    /// One edit: `(position, kind, value)`, applied by [`mutate`].
    type Edit = (usize, u8, u8);

    /// Applies `edits` to the frame payloads of a valid log and frames
    /// them again, which reseals every checksum over its mutated
    /// payload. Kinds: 0 flips one payload bit, 1 sets an aligned 8-byte
    /// payload field (SPAN `start`/`len`, META counts) to `u64::MAX`, 2
    /// moves a frame, 3 duplicates one, 4 truncates the framed bytes,
    /// 5 sets a frame's length prefix to `u64::MAX`, which no checksum
    /// covers, and 6 writes nine `0xFF` bytes at a payload position: an
    /// escaped small integer of `u64::MAX`, a forged plan or error count
    /// where one is read. Also returns whether any payload changed.
    fn mutate(frames: &[Vec<u8>], edits: &[Edit]) -> (Vec<u8>, bool) {
        let mut frames = frames.to_vec();
        let (mut changed, mut cut, mut forged) = (false, None, Vec::new());
        for &(pos, kind, value) in edits {
            let i = pos % frames.len();
            let to = usize::from(value) % frames.len();
            let frame = &mut frames[i];
            match kind {
                0 if !frame.is_empty() => {
                    let at = (pos / 8) % frame.len();
                    frame[at] ^= 1 << (value % 8);
                    changed = true;
                }
                1 if frame.len() >= 8 => {
                    let at = (pos / 8) % (frame.len() / 8) * 8;
                    frame[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                    changed = true;
                }
                2 => {
                    let moved = frames.remove(i);
                    frames.insert(to, moved);
                }
                3 => {
                    let copy = frame.clone();
                    frames.insert(to, copy);
                }
                4 => cut = Some(pos),
                5 => forged.push(pos),
                6 if frame.len() >= 9 => {
                    let at = (pos / 8) % (frame.len() - 8);
                    frame[at..at + 9].fill(0xFF);
                    changed = true;
                }
                _ => {}
            }
        }
        let mut bytes = Vec::new();
        let mut starts = Vec::new();
        for frame in &frames {
            starts.push(bytes.len());
            Log::frame(&mut bytes, frame);
        }
        for pos in forged {
            let at = starts[pos % starts.len()];
            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        if let Some(pos) = cut {
            bytes.truncate(pos % (bytes.len() + 1));
        }
        (bytes, changed)
    }

    #[test]
    fn decode_never_panics_on_resealed_mutations() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let mut records = campaign.run(&w.truth, &tasks).records;
        // One plan that is no catalog tier, so the escape path is mutated
        // too.
        let served = records
            .iter_mut()
            .find_map(|r| match &mut r.outcome {
                QueryOutcome::Serviceable { plans, .. } if !plans.is_empty() => Some(plans),
                _ => None,
            })
            .unwrap();
        served.to_mut()[0].monthly_usd = -0.0;
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let log = log_of(
            &meta,
            &records,
            &[0..37, 37..90, 140..141, 141..141, 200..300],
        );
        let frames: Vec<Vec<u8>> = LogReader::new(&log).map(<[u8]>::to_vec).collect();
        assert_eq!(frames.len(), 6);
        let edits = prop::vec((0..1usize << 20, 0..=6u8, 0..=255u8), 1..6);
        prop::check(2_000, edits, |edits| {
            let (bytes, changed) = mutate(&frames, &edits);
            let Some(spans) = decode_checkpoint(&bytes, &meta, &tasks) else {
                return;
            };
            for (start, span) in &spans {
                assert!(start + span.len() <= tasks.len());
                for (record, task) in span.iter().zip(&tasks[*start..]) {
                    assert_eq!((record.address, record.isp), (task.address, task.isp));
                }
            }
            if !changed {
                // Only whole, genuine frames were read: every loaded
                // record is the one the campaign produced.
                for (start, span) in &spans {
                    let genuine = &records[*start..start + span.len()];
                    assert_eq!(snap_bytes(span), snap_bytes(genuine));
                }
            }
        });
    }
}
