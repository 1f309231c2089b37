//! A versioned, checksummed binary snapshot container.
//!
//! `caf-snap` is the serialization substrate for persistent server
//! snapshots, campaign checkpoints and the disk cache tier: a
//! deliberately boring, dependency-free binary format that favors
//! *verifiability* over compactness. Every value is fixed-width little-endian or
//! length-prefixed, every section carries its own checksum, and
//! the header carries a content hash over the whole section region —
//! a snapshot is either provably intact or it is rejected. Nothing in
//! this crate knows about worlds or audits; domain crates implement
//! [`Snap`] for their own types.
//!
//! ## Container layout
//!
//! ```text
//! magic            8 bytes   "CAFSNAP1"
//! format_version   u32       rejected unless == FORMAT_VERSION
//! seed             u64       scenario identity…
//! scale            u32       …rejected on mismatch by the loader
//! epoch            u64       challenge epoch the snapshot captures
//! section_count    u32
//! content_hash     u64       content_hash64 over the whole file minus this field
//! section*         repeated  tag u32 · len u64 · payload · content_hash64(payload) u64
//! ```
//!
//! Decoding is fully bounds-checked: a truncated or bit-flipped file
//! yields a [`SnapError`], never a panic and never silently wrong
//! bytes. That property is what lets `caf-serve` treat a bad snapshot
//! as "fall back to a cold build" instead of a crash loop.
//!
//! ## Frame log
//!
//! For state that grows by appends, [`Log`] is a headerless run of
//! `len u64 · payload · content_hash64(payload) u64` frames, made
//! durable by `write_all` plus `sync_data` of the new frames only.
//! [`LogReader`] yields the verified frames and stops at the first torn
//! or corrupt one; reopening a log cuts that tail before appending.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes every snapshot file starts with.
pub const MAGIC: [u8; 8] = *b"CAFSNAP1";

/// The container format version this crate reads and writes. Bumped on
/// any layout change; old files are rejected (cold rebuild), never
/// migrated in place.
pub const FORMAT_VERSION: u32 = 1;

/// The smallest section frame: tag, payload length, empty payload,
/// checksum.
const SECTION_FRAME_BYTES: usize = 4 + 8 + 8;

/// Why a snapshot (or one of its sections) failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before a fixed-width read completed.
    UnexpectedEof {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Tag of the corrupt section.
        tag: u32,
    },
    /// The header's content hash does not match the section region.
    ContentHashMismatch,
    /// Bytes remained after the last declared section.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A decoded value violated a domain invariant (bad enum
    /// discriminant, out-of-range index, invalid UTF-8, …).
    Malformed(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { need, have } => {
                write!(
                    f,
                    "unexpected end of snapshot: needed {need} bytes, had {have}"
                )
            }
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapError::ChecksumMismatch { tag } => {
                write!(f, "section {tag:#x} failed its checksum")
            }
            SnapError::ContentHashMismatch => write!(f, "snapshot content hash mismatch"),
            SnapError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the last section")
            }
            SnapError::Malformed(message) => write!(f, "malformed snapshot value: {message}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// 64-bit FNV-1a, byte-at-a-time (the serving layer uses the same
/// function for ETags). The container itself checksums with
/// [`content_hash64`], which is an order of magnitude faster on the
/// megabyte-scale payloads snapshots carry.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The container's content hash: 8-byte little-endian chunks through an
/// xor-rotate-multiply mix. Checksum verification sits on the restore
/// hot path — a byte-at-a-time FNV walk over a megabyte snapshot costs
/// milliseconds where this costs hundreds of microseconds. Every step
/// of the chain is invertible (xor, rotate, multiply by an odd
/// constant), so any single-bit flip anywhere in the input changes the
/// final value; a trailing length mix keeps payloads that differ only
/// in trailing zero bytes from colliding through tail padding.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    content_hash64_seeded(0x9e37_79b9_7f4a_7c15, bytes)
}

/// Continues a content hash over more bytes (for hashing disjoint
/// regions as one logical stream). A container's header hash is
/// `content_hash64_seeded(content_hash64(prefix), region)`.
pub fn content_hash64_seeded(mut hash: u64, bytes: &[u8]) -> u64 {
    const M: u64 = 0x517c_c1b7_2722_0a95;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = (hash.rotate_left(5) ^ v).wrapping_mul(M);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut v = [0u8; 8];
        v[..tail.len()].copy_from_slice(tail);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(v)).wrapping_mul(M);
    }
    (hash.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(M)
}

/// An append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern (byte-exact
    /// round-trips, including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64` (lossless on every supported
    /// target).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (caller-framed).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Encodes any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Encodes a slice as a length-prefixed sequence.
    pub fn put_seq<T: Snap>(&mut self, items: &[T]) {
        self.put_u64(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }
}

/// A bounds-checked decoder over a byte slice. Every read returns
/// `Err(SnapError::UnexpectedEof)` rather than panicking when the
/// stream is short. A clone reads ahead without moving the original.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                need: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let bytes = self.take(2)?;
        Ok(u16::from_le_bytes(bytes.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Malformed(format!("bool byte {other}"))),
        }
    }

    /// Reads a `usize`, rejecting values that do not fit the target.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize overflow: {v}")))
    }

    /// Reads a length prefix that must be coverable by the remaining
    /// bytes — the cheap way to reject absurd lengths from corrupt
    /// streams before allocating for them.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::UnexpectedEof {
                need: len,
                have: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Checks a declared element count against the remaining input:
    /// `count` elements of at least `min_frame` bytes each must fit, or
    /// the count is rejected before it can size an allocation — the
    /// counted analogue of [`Reader::len_prefix`].
    pub fn check_count(&self, count: u64, min_frame: usize) -> Result<usize, SnapError> {
        let n = usize::try_from(count).unwrap_or(usize::MAX);
        let need = n.saturating_mul(min_frame);
        if need > self.remaining() {
            return Err(SnapError::UnexpectedEof {
                need,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Malformed("invalid UTF-8 in string".to_string()))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Decodes any [`Snap`] value.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::decode(self)
    }

    /// Decodes a length-prefixed sequence. Each element costs at least
    /// one byte, so the length prefix is validated against the
    /// remaining input before any allocation, and the up-front
    /// reservation is capped at the remaining input's size in bytes: a
    /// forged count never reserves more memory than the input holds.
    pub fn get_seq<T: Snap>(&mut self) -> Result<Vec<T>, SnapError> {
        let len = self.len_prefix()?;
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            items.push(T::decode(self)?);
        }
        Ok(items)
    }

    /// Fails unless every byte was consumed — the guard against a
    /// decoder that silently ignores half a corrupt payload.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// A type with a canonical binary encoding. Implementations must
/// round-trip exactly: `decode(encode(v)) == v`, bit-for-bit for
/// floats. Decoders validate domain invariants and return
/// [`SnapError::Malformed`] instead of constructing invalid values.
pub trait Snap: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly the bytes `encode` wrote.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.u16()
    }
}

impl Snap for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.usize()
    }
}

impl Snap for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl Snap for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(SnapError::Malformed(format!("Option tag {other}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.get_seq()
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Snap for std::ops::Range<usize> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.start);
        w.put_usize(self.end);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let start = r.usize()?;
        let end = r.usize()?;
        if start > end {
            return Err(SnapError::Malformed(format!(
                "inverted range {start}..{end}"
            )));
        }
        Ok(start..end)
    }
}

/// The scenario identity a snapshot was taken for. A loader compares
/// `seed`/`scale` against its own configuration and treats a mismatch
/// exactly like corruption: the snapshot is not for this world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Container format version ([`FORMAT_VERSION`] when written by
    /// this build).
    pub format_version: u32,
    /// World seed the snapshot captures.
    pub seed: u64,
    /// World downscale factor the snapshot captures.
    pub scale: u32,
    /// Challenge epoch of the snapshotted world.
    pub epoch: u64,
}

/// Builds a snapshot container: header + tagged, checksummed sections.
pub struct SnapshotBuilder {
    seed: u64,
    scale: u32,
    epoch: u64,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// A builder for the given scenario identity.
    pub fn new(seed: u64, scale: u32, epoch: u64) -> SnapshotBuilder {
        SnapshotBuilder {
            seed,
            scale,
            epoch,
            sections: Vec::new(),
        }
    }

    /// Appends a section; `fill` encodes the payload. Section order is
    /// preserved and hashed — two snapshots of identical state are
    /// byte-identical files.
    pub fn section(&mut self, tag: u32, fill: impl FnOnce(&mut Writer)) {
        let mut w = Writer::new();
        fill(&mut w);
        self.sections.push((tag, w.into_bytes()));
    }

    /// Serializes the container.
    pub fn finish(self) -> Vec<u8> {
        let mut region = Writer::new();
        for (tag, payload) in &self.sections {
            region.put_u32(*tag);
            region.put_u64(payload.len() as u64);
            region.put_raw(payload);
            region.put_u64(content_hash64(payload));
        }
        let region = region.into_bytes();

        let mut prefix = Writer::new();
        prefix.put_raw(&MAGIC);
        prefix.put_u32(FORMAT_VERSION);
        prefix.put_u64(self.seed);
        prefix.put_u32(self.scale);
        prefix.put_u64(self.epoch);
        prefix.put_u32(self.sections.len() as u32);
        let prefix = prefix.into_bytes();
        // The content hash covers everything except itself: header
        // identity fields included, so a bit flip in `seed` is as
        // detectable as one in a payload.
        let hash = content_hash64_seeded(content_hash64(&prefix), &region);

        let mut out = Writer::new();
        out.put_raw(&prefix);
        out.put_u64(hash);
        out.put_raw(&region);
        out.into_bytes()
    }
}

/// A parsed, fully verified snapshot container, borrowing its sections
/// from the buffer handed to [`Snapshot::parse`].
pub struct Snapshot<'a> {
    /// The verified header.
    pub header: SnapshotHeader,
    sections: Vec<(u32, &'a [u8])>,
}

/// Reads just the header, verifying magic and version but not the
/// content hash — cheap enough to run on every candidate file when
/// picking the newest compatible snapshot in a directory.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapError> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let format_version = r.u32()?;
    if format_version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion {
            found: format_version,
        });
    }
    Ok(SnapshotHeader {
        format_version,
        seed: r.u64()?,
        scale: r.u32()?,
        epoch: r.u64()?,
    })
}

impl<'a> Snapshot<'a> {
    /// Parses and verifies a container: magic, version, content hash,
    /// per-section checksums, and exact framing (no trailing bytes).
    pub fn parse(bytes: &'a [u8]) -> Result<Snapshot<'a>, SnapError> {
        let header = peek_header(bytes)?;
        let mut r = Reader::new(bytes);
        // The hashed prefix: magic through section_count inclusive.
        let prefix = r.take(MAGIC.len() + 4 + 8 + 4 + 8 + 4)?;
        let section_count =
            u32::from_le_bytes(prefix[prefix.len() - 4..].try_into().expect("len 4"));
        let content_hash = r.u64()?;
        let region = r.take(r.remaining())?;
        if content_hash64_seeded(content_hash64(prefix), region) != content_hash {
            return Err(SnapError::ContentHashMismatch);
        }

        let mut r = Reader::new(region);
        let section_count = r.check_count(section_count.into(), SECTION_FRAME_BYTES)?;
        let mut sections = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let tag = r.u32()?;
            let len = r.usize()?;
            let payload = r.take(len)?;
            let checksum = r.u64()?;
            if content_hash64(payload) != checksum {
                return Err(SnapError::ChecksumMismatch { tag });
            }
            sections.push((tag, payload));
        }
        r.finish()?;
        Ok(Snapshot { header, sections })
    }

    /// The payload of the first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|&(_, payload)| payload)
    }

    /// All section tags in file order.
    pub fn sections(&self) -> impl Iterator<Item = (u32, &'a [u8])> + '_ {
        self.sections.iter().copied()
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the target, and the directory
/// synced so the new name is as durable as the bytes. Readers never see
/// a partial file; a crash leaves at worst a `.tmp` that directory
/// scans ignore. The temp name is unique per call (pid plus a
/// process-wide counter), so concurrent writers of one target never
/// share a temp file: each rename lands one writer's complete bytes.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_via_temp(path, bytes, true)
}

/// [`write_atomic`] without the flushes to stable storage: readers still
/// never see a partial file, but a crash may lose the new contents or
/// leave a short one. For files whose loss costs a recomputation and
/// whose loader rejects what a crash can leave (checksummed caches).
pub fn write_replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_via_temp(path, bytes, false)
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Syncs a directory, making the names created or renamed in it
/// durable. Only Unix can open a directory for syncing.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn write_via_temp(path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let dir = parent_dir(path);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        name,
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        if sync {
            file.sync_all()?;
        }
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Bytes a log frame adds around its payload: the `u64` length prefix
/// and the trailing `u64` checksum.
const LOG_FRAME_OVERHEAD: usize = 8 + 8;

/// An append-only log of checksummed frames, open for appending.
///
/// ```text
/// frame*   repeated  len u64 · payload · content_hash64(payload) u64
/// ```
///
/// There is no header; what the frames mean is the caller's business.
/// A frame becomes durable through [`Log::append`]: one `write_all` of
/// whole frames, then `sync_data`. So a flush costs the new bytes, not
/// the file. A crash mid-append leaves a torn tail: [`LogReader`] stops
/// before it, and [`Log::open_for_append`] cuts it off before writing.
pub struct Log {
    file: File,
    torn: u64,
}

impl Log {
    /// Appends one frame around `payload` to `out`. Frames can be built
    /// anywhere (outside a lock, on a worker) and handed to
    /// [`Log::append`] in batches.
    pub fn frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.reserve(payload.len() + LOG_FRAME_OVERHEAD);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&content_hash64(payload).to_le_bytes());
    }

    /// Creates the log at `path`, replacing any file there, with
    /// `first` as its only frame. The frame is synced, and so is the
    /// parent directory, once, so the file's name is as durable as its
    /// bytes.
    pub fn create(path: &Path, first: &[u8]) -> io::Result<Log> {
        let mut log = Log {
            file: File::create(path)?,
            torn: 0,
        };
        let mut framed = Vec::new();
        Log::frame(&mut framed, first);
        log.append(&framed)?;
        sync_dir(parent_dir(path))?;
        Ok(log)
    }

    /// Opens the existing log at `path` for appending. Returns the log
    /// and the file's intact prefix: every byte up to the first torn or
    /// corrupt frame (read it with [`LogReader`]). Anything after that
    /// prefix is cut from the file, and [`Log::torn_bytes`] says how
    /// much, so the next append lands right after the last good frame.
    pub fn open_for_append(path: &Path) -> io::Result<(Log, Vec<u8>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut reader = LogReader::new(&bytes);
        reader.by_ref().for_each(drop);
        let intact = reader.intact();
        let torn = (bytes.len() - intact) as u64;
        if torn > 0 {
            file.set_len(intact as u64)?;
            bytes.truncate(intact);
        }
        file.seek(SeekFrom::Start(intact as u64))?;
        Ok((Log { file, torn }, bytes))
    }

    /// Bytes [`Log::open_for_append`] cut from a torn or corrupt tail
    /// (0 for a created log).
    pub fn torn_bytes(&self) -> u64 {
        self.torn
    }

    /// Appends whole frames (built with [`Log::frame`]) and syncs them
    /// to disk with `sync_data`.
    pub fn append(&mut self, frames: &[u8]) -> io::Result<()> {
        self.file.write_all(frames)?;
        self.file.sync_data()
    }
}

/// Reads a [`Log`]'s bytes: yields each verified frame's payload in
/// order and stops, without panicking, at the first frame that is torn
/// (runs past the end) or corrupt (fails its checksum). It never
/// allocates; a forged length is checked against the bytes left.
pub struct LogReader<'a> {
    bytes: &'a [u8],
    intact: usize,
}

impl<'a> LogReader<'a> {
    /// A reader over a log's bytes, positioned at the first frame.
    pub fn new(bytes: &'a [u8]) -> LogReader<'a> {
        LogReader { bytes, intact: 0 }
    }

    /// Length of the intact prefix: the bytes of every frame yielded
    /// so far. After the reader is exhausted, this is where a writer
    /// must resume appending.
    pub fn intact(&self) -> usize {
        self.intact
    }
}

impl<'a> Iterator for LogReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let mut r = Reader::new(&self.bytes[self.intact..]);
        let len = r.len_prefix().ok()?;
        let payload = r.take(len).ok()?;
        if r.u64().ok()? != content_hash64(payload) {
            return None;
        }
        self.intact += len + LOG_FRAME_OVERHEAD;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put(&0xabu8);
        w.put(&0xbeefu16);
        w.put(&0xdead_beefu32);
        w.put(&0x0123_4567_89ab_cdefu64);
        w.put(&usize::MAX);
        w.put(&f64::NEG_INFINITY);
        w.put(&-0.0f64);
        w.put(&true);
        w.put(&"hé llo".to_string());
        w.put(&Some(7u32));
        w.put(&None::<u32>);
        w.put(&vec![1u64, 2, 3]);
        w.put(&(4u8, "x".to_string()));
        w.put(&(3usize..9));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 0xab);
        assert_eq!(r.get::<u16>().unwrap(), 0xbeef);
        assert_eq!(r.get::<u32>().unwrap(), 0xdead_beef);
        assert_eq!(r.get::<u64>().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get::<usize>().unwrap(), usize::MAX);
        assert_eq!(r.get::<f64>().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<String>().unwrap(), "hé llo");
        assert_eq!(r.get::<Option<u32>>().unwrap(), Some(7));
        assert_eq!(r.get::<Option<u32>>().unwrap(), None);
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get::<(u8, String)>().unwrap(), (4, "x".to_string()));
        assert_eq!(r.get::<std::ops::Range<usize>>().unwrap(), 3..9);
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let mut w = Writer::new();
        w.put(&weird);
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes).get::<f64>().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(SnapError::UnexpectedEof { need: 8, have: 3 })
        ));
        // A corrupt length prefix (huge) is rejected before allocation.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get_seq::<u8>(),
            Err(SnapError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(matches!(
            Reader::new(&[2]).bool(),
            Err(SnapError::Malformed(_))
        ));
        assert!(matches!(
            Reader::new(&[3, 0]).get::<Option<u8>>(),
            Err(SnapError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_raw(&[0xff]); // invalid UTF-8
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).str(),
            Err(SnapError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.put_usize(9);
        w.put_usize(3);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<std::ops::Range<usize>>(),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let r = Reader::new(&[0; 4]);
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { count: 4 }));
    }

    /// A header whose hash is re-sealed over a forged section count.
    fn forged_header(section_count: u32) -> Vec<u8> {
        let mut prefix = Writer::new();
        prefix.put_raw(&MAGIC);
        prefix.put_u32(FORMAT_VERSION);
        prefix.put_u64(0xCAF);
        prefix.put_u32(150);
        prefix.put_u64(0);
        prefix.put_u32(section_count);
        let prefix = prefix.into_bytes();
        let mut out = Writer::new();
        out.put_raw(&prefix);
        out.put_u64(content_hash64_seeded(content_hash64(&prefix), &[]));
        out.into_bytes()
    }

    #[test]
    fn forged_section_count_is_rejected_before_allocating() {
        let bytes = forged_header(u32::MAX);
        assert_eq!(bytes.len(), 44);
        assert_eq!(
            Snapshot::parse(&bytes).err(),
            Some(SnapError::UnexpectedEof {
                need: u32::MAX as usize * SECTION_FRAME_BYTES,
                have: 0,
            })
        );
        assert_eq!(
            Snapshot::parse(&forged_header(0))
                .unwrap()
                .sections()
                .count(),
            0
        );
    }

    fn sample_container() -> Vec<u8> {
        let mut b = SnapshotBuilder::new(0xCAF, 150, 3);
        b.section(0x10, |w| w.put_str("world"));
        b.section(0x20, |w| w.put_seq(&[1u64, 2, 3]));
        b.finish()
    }

    #[test]
    fn container_round_trips_and_is_deterministic() {
        let bytes = sample_container();
        assert_eq!(bytes, sample_container(), "same state, same file bytes");
        let snap = Snapshot::parse(&bytes).unwrap();
        assert_eq!(
            snap.header,
            SnapshotHeader {
                format_version: FORMAT_VERSION,
                seed: 0xCAF,
                scale: 150,
                epoch: 3,
            }
        );
        assert_eq!(snap.sections().count(), 2);
        let mut r = Reader::new(snap.section(0x10).unwrap());
        assert_eq!(r.str().unwrap(), "world");
        let mut r = Reader::new(snap.section(0x20).unwrap());
        assert_eq!(r.get_seq::<u64>().unwrap(), vec![1, 2, 3]);
        assert!(snap.section(0x99).is_none());
    }

    #[test]
    fn header_peek_matches_full_parse() {
        let bytes = sample_container();
        let header = peek_header(&bytes).unwrap();
        assert_eq!(header, Snapshot::parse(&bytes).unwrap().header);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample_container();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::parse(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let bytes = sample_container();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                Snapshot::parse(&corrupt).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_specific_errors() {
        let bytes = sample_container();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(peek_header(&bad_magic), Err(SnapError::BadMagic)));
        assert!(matches!(
            Snapshot::parse(&bad_magic),
            Err(SnapError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            peek_header(&bad_version),
            Err(SnapError::UnsupportedVersion { found }) if found != FORMAT_VERSION
        ));
        assert!(matches!(
            Snapshot::parse(&bad_version),
            Err(SnapError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn flipped_section_byte_reports_checksum_mismatch() {
        let bytes = sample_container();
        // Locate the "world" payload and flip a byte inside it — but
        // that also breaks the content hash, which is checked first.
        let pos = bytes
            .windows(5)
            .position(|w| w == b"world")
            .expect("payload present");
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        assert!(matches!(
            Snapshot::parse(&corrupt),
            Err(SnapError::ContentHashMismatch)
        ));
    }

    #[test]
    fn atomic_write_lands_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("caf-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.snap");
        let bytes = sample_container();
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files after a clean write");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_an_existing_target() {
        let dir = test_dir("replace");
        let path = dir.join("world.snap");
        std::fs::write(&path, b"the old bytes").unwrap();
        let bytes = sample_container();
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["world.snap"], "the target alone, no temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bare_file_names_resolve_to_the_current_directory() {
        assert_eq!(parent_dir(Path::new("a.snap")), Path::new("."));
        assert_eq!(parent_dir(Path::new("d/a.snap")), Path::new("d"));
        sync_dir(parent_dir(Path::new("a.snap"))).unwrap();
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("caf-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_atomic_writes_of_one_target_land_one_whole_payload() {
        let dir = test_dir("race");
        let path = dir.join("shared.snap");
        let big = vec![0xA5u8; 1 << 20];
        let small = vec![0x5Au8; 1 << 19];
        let start = std::sync::Barrier::new(2);
        for round in 0..20 {
            std::thread::scope(|scope| {
                let writers = [&big, &small].map(|payload| {
                    let (path, start) = (&path, &start);
                    scope.spawn(move || {
                        start.wait();
                        write_atomic(path, payload)
                    })
                });
                for writer in writers {
                    writer.join().unwrap().unwrap_or_else(|e| {
                        panic!("round {round}: a concurrent write failed: {e}")
                    });
                }
            });
            let landed = std::fs::read(&path).unwrap();
            assert!(
                landed == big || landed == small,
                "round {round}: the file equals neither payload"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_log() -> (Vec<Vec<u8>>, Vec<u8>) {
        let payloads = vec![
            b"meta".to_vec(),
            Vec::new(),
            vec![7u8; 21],
            b"span".to_vec(),
        ];
        let mut bytes = Vec::new();
        for payload in &payloads {
            Log::frame(&mut bytes, payload);
        }
        (payloads, bytes)
    }

    #[test]
    fn log_reader_yields_the_frames_before_any_cut() {
        let (payloads, bytes) = sample_log();
        let mut ends = vec![0];
        for payload in &payloads {
            ends.push(ends.last().unwrap() + payload.len() + LOG_FRAME_OVERHEAD);
        }
        assert_eq!(*ends.last().unwrap(), bytes.len());
        for cut in 0..=bytes.len() {
            let whole = ends.iter().rposition(|&end| end <= cut).unwrap();
            let mut reader = LogReader::new(&bytes[..cut]);
            let frames: Vec<&[u8]> = reader.by_ref().collect();
            assert_eq!(frames, payloads[..whole], "cut at {cut}");
            assert_eq!(reader.intact(), ends[whole], "cut at {cut}");
        }
    }

    #[test]
    fn log_reader_stops_at_a_corrupt_or_forged_frame() {
        let (payloads, bytes) = sample_log();
        let third = 2 * LOG_FRAME_OVERHEAD + payloads[0].len();
        let mut flipped = bytes.clone();
        flipped[third + 8] ^= 0x10;
        let mut reader = LogReader::new(&flipped);
        assert_eq!(reader.by_ref().count(), 2);
        assert_eq!(reader.intact(), third);
        let mut forged = bytes.clone();
        forged[third..third + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut reader = LogReader::new(&forged);
        assert_eq!(reader.by_ref().count(), 2);
        assert_eq!(reader.intact(), third);
        assert_eq!(LogReader::new(&sample_container()).count(), 0);
    }

    #[test]
    fn log_reopen_cuts_a_torn_tail_and_appends_after_the_intact_prefix() {
        let dir = test_dir("log");
        let path = dir.join("a.log");
        let (payloads, bytes) = sample_log();
        let mut log = Log::create(&path, &payloads[0]).unwrap();
        let mut rest = Vec::new();
        for payload in &payloads[1..] {
            Log::frame(&mut rest, payload);
        }
        log.append(&rest).unwrap();
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        let (_, intact) = Log::open_for_append(&path).unwrap();
        assert_eq!(intact, bytes);
        // A torn append: half a frame after the intact prefix.
        let mut torn = bytes.clone();
        Log::frame(&mut torn, b"lost");
        torn.truncate(bytes.len() + 9);
        std::fs::write(&path, &torn).unwrap();
        let (mut log, intact) = Log::open_for_append(&path).unwrap();
        assert_eq!(log.torn_bytes(), 9);
        assert_eq!(intact, bytes);
        let mut next = Vec::new();
        Log::frame(&mut next, b"next");
        log.append(&next).unwrap();
        drop(log);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, [bytes, next].concat());
        let mut reader = LogReader::new(&on_disk);
        assert_eq!(reader.by_ref().last(), Some(&b"next"[..]));
        assert_eq!(reader.intact(), on_disk.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
