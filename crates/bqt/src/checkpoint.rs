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
//! retry budget, pool size, or format/stream version) or holds a
//! checksummed frame that does not decode, overlaps another span or
//! falls outside the task list is *stale*: the campaign starts fresh and
//! replaces it. Only real I/O failures surface as errors.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use caf_exec::{CostHint, UnitPlan};
use caf_snap::{content_hash64, Log, LogReader, Reader, Snap, Writer};
use caf_synth::TruthTable;

use crate::campaign::{Campaign, CampaignConfig, CampaignResult, QueryTask};
use crate::outcome::QueryRecord;

/// Checkpoint format version; bump on any layout change. A file of any
/// other version loads as stale.
const FORMAT_VERSION: u32 = 2;
/// Version of the keyed-RNG stream model the records were drawn under.
/// Queries derive their stream from `(seed, "bqt-query", address, ISP)`;
/// if that keying ever changes, bump this so stale checkpoints are
/// discarded rather than mixed with records from the new streams.
const RNG_STREAM_VERSION: u32 = 1;

/// The completed-task table a checkpoint loads into: one slot per task.
type Slots = Vec<Option<QueryRecord>>;

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
        };
        r.finish().ok()?;
        (stored == *self).then_some(())
    }
}

/// Appends the SPAN frame of the completed tasks `start..start +
/// records.len()` to `out`.
fn span_frame(out: &mut Vec<u8>, start: usize, records: &[QueryRecord]) {
    let mut w = Writer::new();
    w.put_usize(start);
    w.put_usize(records.len());
    for record in records {
        w.put(record);
    }
    Log::frame(out, &w.into_bytes());
}

/// Decodes a checkpoint log's intact bytes into a slot table. `None`
/// when the log is stale: no META frame, a META for another campaign,
/// or a checksummed SPAN frame that does not decode, overlaps an
/// earlier span, or falls outside the task list. Allocates the slot
/// table and the decoded records, nothing sized by a declared length.
fn decode_checkpoint(bytes: &[u8], meta: &CheckpointMeta, task_count: usize) -> Option<Slots> {
    let mut frames = LogReader::new(bytes);
    meta.decode_matching(frames.next()?)?;
    let mut slots: Slots = vec![None; task_count];
    for frame in frames {
        let mut r = Reader::new(frame);
        let start = r.usize().ok()?;
        let len = r.usize().ok()?;
        let end = start.checked_add(len).filter(|&end| end <= task_count)?;
        let span = &mut slots[start..end];
        if span.iter().any(Option::is_some) {
            return None;
        }
        for slot in span {
            *slot = Some(QueryRecord::decode(&mut r).ok()?);
        }
        r.finish().ok()?;
    }
    Some(slots)
}

/// Opens the checkpoint log at `path` for a campaign: a matching log
/// resumes after its intact prefix with the slots it holds; an absent
/// or stale one is replaced by a fresh log holding only META.
fn open_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    task_count: usize,
) -> io::Result<(Log, Slots)> {
    match Log::open_for_append(path) {
        Ok((log, bytes)) => {
            if let Some(slots) = decode_checkpoint(&bytes, meta, task_count) {
                caf_obs::count("caf.bqt.checkpoint.torn_bytes", log.torn_bytes());
                return Ok((log, slots));
            }
            caf_obs::count("caf.bqt.checkpoint.stale", 1);
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let started = Instant::now();
    let log = Log::create(path, &meta.encode())?;
    observe_sync(started);
    Ok((log, vec![None; task_count]))
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
    pub fn seed_checkpoint(
        &self,
        tasks: &[QueryTask],
        records: &[QueryRecord],
        spans: &[Range<usize>],
        checkpoint: &CheckpointConfig,
    ) -> io::Result<()> {
        assert_eq!(records.len(), tasks.len(), "one record per task");
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
        let (log, mut slots) = open_checkpoint(&path, &meta, tasks.len())?;
        let resumed = slots.iter().filter(|s| s.is_some()).count();
        caf_obs::count("caf.bqt.checkpoint.resumed_tasks", resumed as u64);

        // The complement of the completed spans, in unit coordinates.
        let mut missing: Vec<Range<usize>> = Vec::new();
        let mut i = 0;
        while i < slots.len() {
            if slots[i].is_none() {
                let start = i;
                while i < slots.len() && slots[i].is_none() {
                    i += 1;
                }
                missing.push(start..i);
            } else {
                i += 1;
            }
        }

        if !missing.is_empty() {
            let hints = CostHint::PerElement(self.cost_hints(tasks));
            let plan = UnitPlan::build_subset(
                self.config().workers,
                &[hints],
                self.config().shard,
                &[missing],
            );
            let sink = CheckpointSink::new(log, checkpoint.every);
            let shard_results = self.execute_plan(truth, tasks, &plan, Some(&sink));
            let (flushes, error) = sink.finish();
            caf_obs::count("caf.bqt.checkpoint.flushes", flushes);
            if let Some(e) = error {
                return Err(e);
            }
            for (range, records) in shard_results {
                for (i, record) in range.zip(records) {
                    slots[i] = Some(record);
                }
            }
        }

        let records: Vec<QueryRecord> = slots
            .into_iter()
            .map(|slot| slot.expect("every task completed or resumed"))
            .collect();
        Ok(self.finish(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_exec::{prop, ShardPolicy};
    use caf_geo::UsState;
    use caf_snap::SnapshotBuilder;
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
        vt.usac
            .records
            .iter()
            .take(300)
            .map(|r| QueryTask {
                address: r.address.id,
                isp: r.isp,
            })
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
        let slots = decode_checkpoint(&bytes, &meta, tasks.len()).unwrap();
        assert!(slots
            .into_iter()
            .eq(plain.records.iter().cloned().map(Some)));
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
        let mut slots: Slots = vec![None; tasks.len()];
        for i in spans.iter().cloned().flatten() {
            slots[i] = Some(reference.records[i].clone());
        }
        let dir = tempdir("roundtrip");
        let ckpt = CheckpointConfig::new(&dir, 40);
        campaign
            .seed_checkpoint(&tasks, &reference.records, &spans, &ckpt)
            .unwrap();
        let bytes = fs::read(ckpt.file_for(campaign.config().seed)).unwrap();
        assert_eq!(bytes, log_of(&meta, &reference.records, &spans));
        assert_eq!(decode_checkpoint(&bytes, &meta, tasks.len()), Some(slots));
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
            let slots = decode_checkpoint(&healed, &meta, tasks.len()).unwrap();
            assert!(slots.iter().all(Option::is_some), "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A format-1 checkpoint: one `caf-snap` container with META, SPANS
    /// and STATS sections, as builds before the frame log wrote it.
    fn version_one_checkpoint(meta: &CheckpointMeta, records: &[QueryRecord]) -> Vec<u8> {
        let mut builder = SnapshotBuilder::new(meta.seed, 0, records.len() as u64);
        builder.section(1, |w| {
            let mut payload = meta.encode();
            payload[..4].copy_from_slice(&1u32.to_le_bytes());
            w.put_raw(&payload);
        });
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
        fs::write(&path, version_one_checkpoint(&meta, &reference.records)).unwrap();
        let stale_before = counter("caf.bqt.checkpoint.stale");
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        assert!(counter("caf.bqt.checkpoint.stale") > stale_before);
        let replaced = fs::read(&path).unwrap();
        let mut frames = LogReader::new(&replaced);
        assert_eq!(frames.next(), Some(&meta.encode()[..]), "a format-2 META");
        assert!(decode_checkpoint(&replaced, &meta, tasks.len())
            .unwrap()
            .iter()
            .all(Option::is_some));
        let _ = fs::remove_dir_all(&dir);
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
        let decode = |bytes: &[u8]| decode_checkpoint(bytes, &meta, n);
        assert!(decode(&log_of(&meta, &records, &[0..10, 20..30])).is_some());
        assert!(decode(&log_of(&meta, &records, &[0..10, 5..15])).is_none());
        assert!(decode(&log_of(&meta, &records, &[20..30, 0..10, 29..31])).is_none());
        assert!(decode(&log_of(&meta, &records, &[3..4, 3..4])).is_none());
        // Out of range: past the task list, and a start whose end overflows.
        let mut past = log_of(&meta, &records, &[]);
        span_frame(&mut past, n - 2, &records[..3]);
        assert!(decode(&past).is_none());
        let mut overflow = log_of(&meta, &records, &[]);
        span_frame(&mut overflow, usize::MAX, &records[..1]);
        assert!(decode(&overflow).is_none());
        // A span whose records do not fill its frame, or overrun it.
        let mut short = log_of(&meta, &records, &[]);
        let mut payload = Writer::new();
        payload.put_usize(0);
        payload.put_usize(2);
        payload.put(&records[0]);
        Log::frame(&mut short, &payload.into_bytes());
        assert!(decode(&short).is_none());
        let mut long = log_of(&meta, &records, &[]);
        let mut payload = Writer::new();
        payload.put_usize(0);
        payload.put_usize(1);
        payload.put(&records[0]);
        payload.put(&records[1]);
        Log::frame(&mut long, &payload.into_bytes());
        assert!(decode(&long).is_none());
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
    /// and 5 sets a frame's length prefix to `u64::MAX`, which no
    /// checksum covers. Also returns whether any payload changed.
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
        let records = campaign.run(&w.truth, &tasks).records;
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let log = log_of(
            &meta,
            &records,
            &[0..37, 37..90, 140..141, 141..141, 200..300],
        );
        let frames: Vec<Vec<u8>> = LogReader::new(&log).map(<[u8]>::to_vec).collect();
        assert_eq!(frames.len(), 6);
        let edits = prop::vec((0..1usize << 20, 0..=5u8, 0..=255u8), 1..6);
        prop::check(2_000, edits, |edits| {
            let (bytes, changed) = mutate(&frames, &edits);
            let Some(slots) = decode_checkpoint(&bytes, &meta, tasks.len()) else {
                return;
            };
            assert_eq!(slots.len(), tasks.len());
            if !changed {
                // Only whole, genuine frames were read: every loaded
                // record is the one the campaign produced.
                for (slot, record) in slots.iter().zip(&records) {
                    assert!(slot.as_ref().is_none_or(|loaded| loaded == record));
                }
            }
        });
    }
}
