//! The disk LRU tier: a second-chance store for evicted cache entries.
//!
//! The in-memory [`ScenarioCache`](crate::cache::ScenarioCache) bounds
//! RAM; this tier bounds *recomputation*. When the LRU cap pushes a
//! ready entry out, its payload — the entry's rendered artifact bodies,
//! a few kilobytes — lands here as a `caf-snap` container file keyed
//! by scenario + epoch; the next request for that scenario promotes the
//! file back into memory instead of rebuilding the world. The tier has
//! its own LRU cap (in entries), so disk usage stays bounded too.
//!
//! Durability is best-effort by design: files are written by temp file
//! and rename but never synced, every file is checksummed and
//! header-validated on load, and *any* anomaly — truncation, bit flip,
//! version or scenario mismatch, an older payload format, a payload
//! the caller cannot decode — deletes the file and reports a miss, so
//! the caller falls back to recomputing. A tier can never serve wrong
//! bytes; at worst it serves none.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

use caf_snap::{write_replace, Snapshot, SnapshotBuilder};

/// Section tag for the payload inside a tier file; tier files hold
/// exactly this one section. (Snapshot files use `0x10`..`0x21`. Tag
/// `0x30` held a decoded-view payload format that is no longer read:
/// such a file is a miss and is removed.)
pub const SECTION_TIER: u32 = 0x31;

struct TierEntry {
    path: PathBuf,
    bytes: u64,
    /// Monotonic recency stamp; smallest = least recently used.
    seq: u64,
}

struct TierInner {
    entries: HashMap<String, TierEntry>,
    next_seq: u64,
}

/// Occupancy of the tier, surfaced in `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Files currently held.
    pub entries: usize,
    /// Total payload bytes on disk.
    pub bytes: u64,
    /// Maximum number of files before LRU deletion.
    pub capacity: usize,
}

/// A bounded, validating, LRU-evicting directory of spilled bundles.
pub struct DiskTier {
    dir: PathBuf,
    capacity: usize,
    inner: Mutex<TierInner>,
}

impl DiskTier {
    /// Opens (creating if needed) the tier directory and adopts any
    /// existing `*.tier` files, seeding LRU order from file mtimes so
    /// a restarted server keeps its spilled working set.
    pub fn open(dir: &Path, capacity: usize) -> io::Result<DiskTier> {
        fs::create_dir_all(dir)?;
        let mut found: Vec<(String, PathBuf, u64, SystemTime)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(key) = name.strip_suffix(".tier") else {
                continue;
            };
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((key.to_string(), path, meta.len(), mtime));
        }
        found.sort_by_key(|(_, _, _, mtime)| *mtime);
        let mut inner = TierInner {
            entries: HashMap::new(),
            next_seq: 0,
        };
        for (key, path, bytes, _) in found {
            inner.next_seq += 1;
            let seq = inner.next_seq;
            inner.entries.insert(key, TierEntry { path, bytes, seq });
        }
        let tier = DiskTier {
            dir: dir.to_path_buf(),
            capacity: capacity.max(1),
            inner: Mutex::new(inner),
        };
        tier.publish_gauges(&tier.inner.lock().unwrap());
        Ok(tier)
    }

    /// Stores `payload` under `key`, stamped with the scenario identity
    /// `(seed, scale, epoch)` that [`DiskTier::load`] will verify. The
    /// write replaces the file by tmp + rename without syncing (a crash
    /// can only cost a miss); failures are counted and swallowed — a
    /// tier that cannot write degrades to recomputation, never to an
    /// error on the serving path.
    pub fn put(&self, key: &str, seed: u64, scale: u32, epoch: u64, payload: &[u8]) {
        let mut builder = SnapshotBuilder::new(seed, scale, epoch);
        builder.section(SECTION_TIER, |w| w.put_raw(payload));
        let bytes = builder.finish();
        let path = self.file_path(key);
        if let Err(error) = write_replace(&path, &bytes) {
            caf_obs::count("caf.snap.tier.write_errors", 1);
            eprintln!("caf-serve: disk tier write failed for {key}: {error}");
            return;
        }
        caf_obs::count("caf.snap.tier.spills", 1);
        let mut inner = self.inner.lock().unwrap();
        inner.next_seq += 1;
        let seq = inner.next_seq;
        inner.entries.insert(
            key.to_string(),
            TierEntry {
                path,
                bytes: bytes.len() as u64,
                seq,
            },
        );
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.seq)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            let entry = inner.entries.remove(&oldest).expect("oldest key present");
            let _ = fs::remove_file(&entry.path);
            caf_obs::count("caf.snap.tier.evictions", 1);
        }
        self.publish_gauges(&inner);
    }

    /// Loads, validates and decodes the payload for `key`. Returns
    /// `None` — and removes the file, counting it in
    /// `caf.snap.tier.invalid` — on any mismatch between the stored
    /// container and the expected `(seed, scale, epoch)`, on any
    /// corruption the `caf-snap` checksums catch, on a missing payload
    /// section, and when `decode` rejects the payload. A successful
    /// load refreshes the entry's recency.
    pub fn load<T>(
        &self,
        key: &str,
        seed: u64,
        scale: u32,
        epoch: u64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let path = {
            let inner = self.inner.lock().unwrap();
            inner.entries.get(key)?.path.clone()
        };
        // Read + validate outside the lock: tier files are written
        // atomically and only removed under the lock, so a concurrent
        // eviction at worst turns this into a miss.
        let result = fs::read(&path).ok().and_then(|bytes| {
            let snapshot = Snapshot::parse(&bytes).ok()?;
            let header = snapshot.header;
            if header.seed != seed || header.scale != scale || header.epoch != epoch {
                return None;
            }
            decode(snapshot.section(SECTION_TIER)?)
        });
        let mut inner = self.inner.lock().unwrap();
        match result {
            Some(payload) => {
                inner.next_seq += 1;
                let seq = inner.next_seq;
                if let Some(entry) = inner.entries.get_mut(key) {
                    entry.seq = seq;
                }
                caf_obs::count("caf.snap.tier.hits", 1);
                Some(payload)
            }
            None => {
                if let Some(entry) = inner.entries.remove(key) {
                    let _ = fs::remove_file(&entry.path);
                }
                caf_obs::count("caf.snap.tier.invalid", 1);
                self.publish_gauges(&inner);
                None
            }
        }
    }

    /// Current occupancy (entries, bytes, capacity).
    pub fn stats(&self) -> TierStats {
        let inner = self.inner.lock().unwrap();
        TierStats {
            entries: inner.entries.len(),
            bytes: inner.entries.values().map(|entry| entry.bytes).sum(),
            capacity: self.capacity,
        }
    }

    /// True if `key` currently has a tier file (does not touch recency).
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().unwrap().entries.contains_key(key)
    }

    /// The directory this tier writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.tier"))
    }

    fn publish_gauges(&self, inner: &TierInner) {
        caf_obs::gauge("caf.snap.tier.entries", inner.entries.len() as u64);
        caf_obs::gauge(
            "caf.snap.tier.bytes",
            inner.entries.values().map(|entry| entry.bytes).sum(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity decoder: the payload bytes as stored.
    fn bytes(payload: &[u8]) -> Option<Vec<u8>> {
        Some(payload.to_vec())
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "caf-tier-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn payloads_round_trip_byte_identically() {
        let dir = temp_dir("roundtrip");
        let tier = DiskTier::open(&dir, 4).unwrap();
        let payload = b"canonical bundle bytes \x00\x01\x02".to_vec();
        tier.put("q12-2a-150-0", 42, 150, 0, &payload);
        assert_eq!(tier.load("q12-2a-150-0", 42, 150, 0, bytes), Some(payload));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identity_mismatch_is_a_miss_and_removes_the_file() {
        let dir = temp_dir("mismatch");
        let tier = DiskTier::open(&dir, 4).unwrap();
        tier.put("k", 42, 150, 3, b"payload");
        // Wrong epoch: the stored container does not match what the
        // caller expects, so the entry must be dropped, not served.
        assert_eq!(tier.load("k", 42, 150, 4, bytes), None);
        assert!(!tier.contains("k"));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_miss_not_a_panic() {
        let dir = temp_dir("corrupt");
        let tier = DiskTier::open(&dir, 4).unwrap();
        tier.put("k", 7, 30, 0, b"payload");
        let path = dir.join("k.tier");
        let mut flipped = fs::read(&path).unwrap();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(tier.load("k", 7, 30, 0, bytes), None);
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_deletes_oldest_file() {
        let dir = temp_dir("evict");
        let tier = DiskTier::open(&dir, 2).unwrap();
        tier.put("a", 1, 1, 0, b"a");
        tier.put("b", 1, 1, 0, b"b");
        // Touch "a" so "b" becomes the LRU entry.
        assert!(tier.load("a", 1, 1, 0, bytes).is_some());
        tier.put("c", 1, 1, 0, b"c");
        assert!(tier.contains("a") && tier.contains("c") && !tier.contains("b"));
        assert!(!dir.join("b.tier").exists());
        assert_eq!(tier.stats().entries, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_adopts_existing_files() {
        let dir = temp_dir("reopen");
        {
            let tier = DiskTier::open(&dir, 4).unwrap();
            tier.put("persisted", 9, 5, 2, b"still here");
        }
        let tier = DiskTier::open(&dir, 4).unwrap();
        assert!(tier.contains("persisted"));
        assert_eq!(
            tier.load("persisted", 9, 5, 2, bytes),
            Some(b"still here".to_vec())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_empty_files_are_misses_and_are_removed() {
        let dir = temp_dir("short");
        let tier = DiskTier::open(&dir, 4).unwrap();
        tier.put("half", 7, 30, 0, b"payload bytes");
        tier.put("empty", 7, 30, 0, b"payload bytes");
        let half = dir.join("half.tier");
        let full = fs::read(&half).unwrap();
        fs::write(&half, &full[..full.len() / 2]).unwrap();
        fs::write(dir.join("empty.tier"), b"").unwrap();
        for key in ["half", "empty"] {
            assert_eq!(tier.load(key, 7, 30, 0, bytes), None, "{key}");
            assert!(!tier.contains(key), "{key}");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_format_and_undecodable_payloads_are_misses_and_are_removed() {
        let dir = temp_dir("format");
        {
            // A file from the retired payload format: a valid container
            // whose payload sits under the old section tag.
            fs::create_dir_all(&dir).unwrap();
            let mut builder = SnapshotBuilder::new(7, 30, 0);
            builder.section(0x30, |w| w.put_raw(b"decoded view"));
            fs::write(dir.join("old.tier"), builder.finish()).unwrap();
        }
        let tier = DiskTier::open(&dir, 4).unwrap();
        assert!(tier.contains("old"));
        assert_eq!(tier.load("old", 7, 30, 0, bytes), None);
        assert!(!dir.join("old.tier").exists());

        // A container that validates but whose payload the caller
        // rejects: removed, so later misses do not re-read it.
        tier.put("bad", 7, 30, 0, b"not what the caller expects");
        assert_eq!(tier.load("bad", 7, 30, 0, |_| None::<()>), None);
        assert!(!tier.contains("bad"));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
