//! World snapshot files: naming, discovery, and status reporting.
//!
//! A snapshot is a `caf-snap` container holding everything the server
//! needs to answer its default scenario without rebuilding the world:
//!
//! * [`SECTION_WORLD`] — the [`World`](caf_synth::World): geography,
//!   challenge state and epoch. Nothing derivable is stored: Q1 truth
//!   is re-derived on decode, each state's USAC records (a function of
//!   the seed, the geography and its certified-tier corrections) are
//!   built on first read, and the Q3 analysis draws its blocks with
//!   their truth (of the seed, the scale and the state) as it runs.
//! * [`SECTION_LOG`] — the accepted challenge-delta log, so a restored
//!   server can keep serving per-epoch delta prefixes.
//! * [`SECTION_VIEWS`] — the warm contents of the scenario cache: per
//!   entry, its identity and its rendered artifact bodies (13 per Q1/Q2
//!   epoch, one per Q3 world or sweep cell). Restoring these is what
//!   makes restart-to-first-200 a copy of a few kilobytes instead of a
//!   recomputation.
//!
//! Files are named `world-<seed>-<scale>-<epoch>.snap`; the header
//! carries the same identity, and [`find_newest`] trusts only the
//! header (a renamed file cannot lie its way into a restore). Stale or
//! corrupt snapshots are rejected at parse time by `caf-snap`'s
//! checksums and the loader falls back to a cold build — a snapshot
//! can buy time, never wrongness.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use caf_snap::peek_header;

/// Section tag for the serialized [`World`](caf_synth::World).
pub const SECTION_WORLD: u32 = 0x14;
/// Section tags of retired world encodings: `0x10` stored every Q1
/// truth entry, `0x12` every Q3 block and its truth, `0x13` every USAC
/// record. A snapshot carrying one is rejected whole, so the server
/// builds cold.
pub const SECTION_WORLD_RETIRED: [u32; 3] = [0x10, 0x12, 0x13];
/// Section tag for the accepted challenge-delta log.
pub const SECTION_LOG: u32 = 0x11;
/// Section tag for the warm scenario-cache entries (rendered bodies).
/// Tag `0x20` held them as decoded audit datasets and indexes; a
/// snapshot carrying that section still restores its world, and the
/// old section is ignored.
pub const SECTION_VIEWS: u32 = 0x21;

/// How the server started, surfaced in `/healthz` under `"snapshot"`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotStatus {
    /// True when startup restored a snapshot (vs a cold build).
    pub loaded: bool,
    /// Epoch of the restored snapshot (0 when cold).
    pub epoch: u64,
    /// Microseconds spent restoring the serving views.
    pub restore_us: u64,
    /// File name of the restored snapshot, when any.
    pub file: Option<String>,
    /// Modification time of the restored file (for the `/healthz`
    /// snapshot age).
    pub mtime: Option<std::time::SystemTime>,
}

/// Canonical file name for a snapshot of the given scenario identity.
pub fn file_name(seed: u64, scale: u32, epoch: u64) -> String {
    format!("world-{seed:016x}-{scale}-{epoch}.snap")
}

/// Scans `dir` for the newest snapshot compatible with `(seed, scale)`:
/// every `*.snap` file's header is peeked (magic + format version +
/// identity — no full parse), incompatible or unreadable candidates are
/// skipped, and the highest-epoch match wins. Returns the path and its
/// header epoch.
pub fn find_newest(dir: &Path, seed: u64, scale: u32) -> Option<(PathBuf, u64)> {
    let mut best: Option<(PathBuf, u64)> = None;
    for entry in fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        let is_snap = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".snap"));
        if !is_snap || !entry.metadata().is_ok_and(|m| m.is_file()) {
            continue;
        }
        // The fixed-width header prefix is 32 bytes; reading just that
        // keeps the scan cheap no matter how large the snapshots are.
        let mut prefix = [0u8; 32];
        let header = fs::File::open(&path)
            .ok()
            .and_then(|mut file| file.read_exact(&mut prefix).ok())
            .and_then(|()| peek_header(&prefix).ok());
        let Some(header) = header else { continue };
        if header.seed != seed || header.scale != scale {
            continue;
        }
        let better = match &best {
            Some((best_path, best_epoch)) => {
                header.epoch > *best_epoch
                    // Deterministic tie-break so repeated scans agree.
                    || (header.epoch == *best_epoch && path < *best_path)
            }
            None => true,
        };
        if better {
            best = Some((path, header.epoch));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_snap::{write_atomic, SnapshotBuilder};

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "caf-snapdir-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_snap(dir: &Path, seed: u64, scale: u32, epoch: u64) {
        let mut builder = SnapshotBuilder::new(seed, scale, epoch);
        builder.section(SECTION_WORLD, |w| w.put_u8(1));
        write_atomic(&dir.join(file_name(seed, scale, epoch)), &builder.finish()).unwrap();
    }

    #[test]
    fn newest_compatible_snapshot_wins() {
        let dir = temp_dir("newest");
        write_snap(&dir, 42, 150, 0);
        write_snap(&dir, 42, 150, 3);
        write_snap(&dir, 42, 150, 1);
        write_snap(&dir, 42, 99, 7); // wrong scale
        write_snap(&dir, 7, 150, 9); // wrong seed
        let (path, epoch) = find_newest(&dir, 42, 150).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(path, dir.join(file_name(42, 150, 3)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_and_foreign_files_are_skipped() {
        let dir = temp_dir("garbage");
        fs::write(dir.join("not-a-snapshot.snap"), b"short").unwrap();
        fs::write(dir.join("junk.snap"), vec![0xaa; 64]).unwrap();
        fs::write(dir.join("readme.txt"), b"ignored").unwrap();
        assert!(find_newest(&dir, 42, 150).is_none());
        write_snap(&dir, 42, 150, 2);
        assert_eq!(find_newest(&dir, 42, 150).unwrap().1, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_a_clean_none() {
        let dir = std::env::temp_dir().join("caf-snapdir-definitely-missing");
        assert!(find_newest(&dir, 1, 1).is_none());
    }
}
