//! Stream containers — `STRM` versions 2 and 3, and version 1 read-only.
//!
//! A time-series compression loop (the paper's Fig. 16 redshift-series
//! workflow) produces one set of per-partition [`Container`]s per
//! snapshot, and in the paper's deployment mode the simulation emits
//! those sets over hours of wall clock and can die at any instant. A
//! `STRM` stream frames the series so every (snapshot, partition) pair is
//! addressable in O(1) without scanning prior frames, and lays it out
//! **data first, manifest last**, so each frame appends to disk as it
//! lands and a crash loses at most the frame in flight. Version 3 is the
//! same layout plus a **cold tier**: a prefix of frames the compactor
//! (below) has re-compressed at a relaxed bound or colder codec, marked by
//! `FTR3` footers digested with the interleaved
//! [`fnv1a64_quad`] checksum.
//!
//! One writer, [`StreamFileWriter`], encodes every frame: appends,
//! compaction's cold and rebased hot frames, and the in-memory
//! [`stream_file_bytes_tiered`] builder. It writes to any [`StreamStore`]
//! — a [`File`], or an in-memory buffer for streams built and recovered in
//! memory. One routine recovers a crashed stream, and one reader,
//! [`StreamFileReader`], serves every version from any `Read + Seek`
//! source.
//!
//! ## Layout
//!
//! ```text
//! offset  size       field
//! 0       4          magic "STRM"
//! 4       1          version (= 2 append-only, 3 tiered)
//! 5       3          reserved (zero)
//! 8       4          partitions per frame P, little-endian u32
//! 12      4          v2: reserved (zero; the frame count lives in the
//!                    trailer). v3: cold frame count C, little-endian u32
//!                    — frames 0..C are the cold tier.
//!
//! per frame (appended as the snapshot lands):
//!         ...        P concatenated v2 partition containers
//!         4          footer magic ("FTR2" hot, "FTR3" cold)
//!         4          frame index, little-endian u32
//!         8·(P+1)    absolute offsets: start of each container, then the
//!                    footer's own start (= end of the frame's data)
//!         8          checksum of the footer bytes above — FNV-1a-64 for
//!                    hot frames, fnv1a64_quad for cold frames
//!
//! trailer (appended once, by `finish`):
//!         4          trailer magic "TLR2"
//!         4          frame count F, little-endian u32
//!         8·F        absolute offset of each frame's footer
//!         8          FNV-1a-64 of the trailer bytes above
//!         8          absolute offset of the trailer start (the file's
//!                    last 8 bytes — how a reader finds the trailer)
//! ```
//!
//! Version 1 (read-only) is the manifest-*first* packaging form earlier
//! revisions wrote. It can be neither appended to nor recovered, so
//! nothing writes it any more, but the reader serves it forever:
//!
//! ```text
//! 0       4          magic "STRM"
//! 4       1          version (= 1)
//! 5       3          reserved (zero)
//! 8       4          partitions per frame P, little-endian u32
//! 12      4          frame count F, little-endian u32
//! 16      8          FNV-1a-64 of the offset table
//! 24      8·(F·P+1)  offset table: absolute start of container (f, p) at
//!                    entry f·P+p; the final entry is the stream length
//! ...                concatenated v2 partition containers, frame-major
//! ```
//!
//! ## Crash-loss guarantee & recovery semantics
//!
//! Every frame is flushed (data, then footer) before `append_frame`
//! returns, so a crash at any instant loses **at most the in-flight
//! frame** — never a frame that was already acknowledged. How far that
//! guarantee extends depends on the writer's [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Flush`] (the default) writes through to the OS page
//!   cache only. Acknowledged frames survive **process death** (the
//!   kernel owns the bytes once `write(2)` returns) but a kernel panic
//!   or power loss may drop any suffix of frames still sitting dirty in
//!   the page cache.
//! * [`SyncPolicy::SyncPerFrame`] issues `sync_data` (fdatasync) after
//!   each frame's footer, so an acknowledged frame survives **power
//!   loss** too — the strongest guarantee, at one device round-trip of
//!   latency per append. (As always, a storage device that acknowledges
//!   flushes from a volatile write cache can still lie; that is below
//!   this layer.)
//! * [`SyncPolicy::SyncOnFinish`] behaves like `Flush` per frame and
//!   issues a single `sync_data` before `finish` returns: the whole
//!   stream is power-loss durable once finished, while mid-stream power
//!   loss has `Flush` semantics. The right trade when only completed
//!   streams matter.
//!
//! Under every policy the on-disk **bytes** are identical — the policy
//! changes when they are durable, not what they are — and recovery
//! (below) applies unchanged: whatever prefix physically survived is
//! re-derived by scanning, never trusted from a trailer. A crashed file
//! has no trailer (or a torn one); [`recover`]/[`StreamFileWriter::recover`]
//! re-derive the valid prefix by scanning frames forward from the header:
//! a frame survives iff every container wrapper parses, its footer is
//! present with the right index and offsets, and the footer checksum
//! verifies. Everything after the last intact footer is truncated, and the
//! result is **byte-identical to a fresh write of the surviving frames**
//! (the crash-recovery equivalence property suite pins this). On a v3
//! stream a truncation that reaches into the cold tier also patches the
//! header's cold count down to the frames kept, so the recovered file is
//! byte-identical to [`stream_file_bytes_tiered`] over the survivors.
//! Payload integrity stays with each v2 container's own checksum, verified
//! on decode, so a bit-flipped region that survives recovery still fails
//! loudly instead of reconstructing garbage.
//!
//! ## Cold-frame compaction & its power-loss row
//!
//! [`CompactionTask`] re-tiers every frame older than a configurable
//! horizon: each is decoded and re-compressed at a relaxed bound (and
//! optionally a colder codec) into a fresh v3 file next to the stream
//! (`<path>.compact`), the still-hot tail is rebased behind it, and an
//! atomic rename publishes the result. Its power-loss semantics extend
//! the [`SyncPolicy`] table: the original stream stays untouched until
//! the rename, so a crash or power cut mid-compaction loses **no frames**
//! — the next writer recovers the original file and simply re-runs the
//! compaction (a stale `.compact` temp file is truncated by the next
//! attempt). Under [`SyncPolicy::SyncPerFrame`] the compacted file is
//! `sync_data`'d before the rename; under the laxer policies the rename
//! follows the same page-cache rules as ordinary appends.
//!
//! ## Out-of-core guarantees
//!
//! Every path here is O(frame) resident, never O(stream): the recovery
//! scan is a bounded forward window over the store (peak memory is one
//! container plus one footer, whatever the file length);
//! [`StreamFileReader`] validates per-frame manifests lazily and keeps
//! only a bounded window of them resident ([`DEFAULT_MANIFEST_WINDOW`]
//! frames), so open cost is the header plus a chunked checksum of the
//! trailer (or of the v1 offset table) and the resident set is
//! O(frames-in-window); the compactor streams frame-by-frame through the
//! same bounded reads. The writer and scanner do keep the footer-offset
//! list (8 bytes per frame — the manifest itself, dwarfed by any single
//! frame's containers); that is the one intrinsically per-frame cost.
//!
//! [`recover`]: recover_stream

use crate::codec::{CodecError, CodecId};
use crate::container::{fnv1a64, fnv1a64_quad, fnv1a64_update, Container, FNV1A64_SEED};
use gridlab::{Decomposition, Field3, Scalar};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"STRM";
/// The manifest-first version earlier revisions wrote; read-only now.
const LEGACY_VERSION: u8 = 1;
/// Durable (append-to-disk) stream-container version.
pub const STREAM_FILE_VERSION: u8 = 2;
/// Tiered stream version: same layout with the leading `cold` frames
/// re-compressed by the compactor and marked with `FTR3` footers.
pub const STREAM_FILE_TIERED_VERSION: u8 = 3;
const FOOTER_MAGIC: &[u8; 4] = b"FTR2";
const COLD_FOOTER_MAGIC: &[u8; 4] = b"FTR3";
const TRAILER_MAGIC: &[u8; 4] = b"TLR2";
/// Fixed header bytes preceding the first frame (v2/v3).
const FILE_HEADER_LEN: usize = 16;
/// Fixed v1 header bytes preceding the offset table: the v2 header's
/// fields plus the table checksum.
const LEGACY_HEADER_LEN: u64 = 24;

/// Byte length of one frame footer in a stream of `partitions`-wide
/// frames: magic + index + (P+1) offsets + checksum.
pub fn footer_len(partitions: usize) -> usize {
    4 + 4 + 8 * (partitions + 1) + 8
}

/// Byte length of the trailer of a finished `frames`-frame stream: magic
/// + count + F footer offsets + checksum + back-pointer.
pub fn trailer_len(frames: usize) -> usize {
    4 + 4 + 8 * frames + 8 + 8
}

/// Header of a fresh stream: v2, or v3 declaring `cold` cold frames.
fn encode_header(partitions: usize, cold: Option<usize>) -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[..4].copy_from_slice(MAGIC);
    h[4] = STREAM_FILE_VERSION;
    h[8..12].copy_from_slice(&(partitions as u32).to_le_bytes());
    if let Some(cold) = cold {
        h[4] = STREAM_FILE_TIERED_VERSION;
        h[12..16].copy_from_slice(&(cold as u32).to_le_bytes());
    }
    h
}

/// The footer frame `index` carries in a stream whose first `cold_frames`
/// frames are the cold tier: magic, index, container offsets + footer
/// start, then a digest of all of the above — `FTR2` with FNV-1a-64 for a
/// hot frame, `FTR3` with the interleaved quad digest for a cold one. The
/// two are the same length, so `footer_len` is tier-independent.
fn encode_footer(index: usize, cold_frames: usize, offsets: &[u64]) -> Vec<u8> {
    let cold = index < cold_frames;
    let mut f = Vec::with_capacity(footer_len(offsets.len() - 1));
    f.extend_from_slice(if cold { COLD_FOOTER_MAGIC } else { FOOTER_MAGIC });
    f.extend_from_slice(&(index as u32).to_le_bytes());
    for &o in offsets {
        f.extend_from_slice(&o.to_le_bytes());
    }
    let digest = if cold { fnv1a64_quad(&f) } else { fnv1a64(&f) };
    f.extend_from_slice(&digest.to_le_bytes());
    f
}

fn encode_trailer(footer_offsets: &[u64], trailer_start: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(trailer_len(footer_offsets.len()));
    t.extend_from_slice(TRAILER_MAGIC);
    t.extend_from_slice(&(footer_offsets.len() as u32).to_le_bytes());
    for &o in footer_offsets {
        t.extend_from_slice(&o.to_le_bytes());
    }
    let fnv = fnv1a64(&t);
    t.extend_from_slice(&fnv.to_le_bytes());
    t.extend_from_slice(&trailer_start.to_le_bytes());
    t
}

/// Little-endian u64 offsets packed back to back (footer and table bodies).
fn le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

fn io_err(context: &str, e: std::io::Error) -> CodecError {
    CodecError::Io(format!("{context}: {e}"))
}

/// Checked u64 → usize conversion for offsets/lengths decoded from stream
/// bytes: on 32-bit targets a >4 GiB value must surface as a typed error,
/// not truncate silently.
fn to_usize(v: u64, what: &str) -> Result<usize, CodecError> {
    usize::try_from(v)
        .map_err(|_| CodecError::Format(format!("{what} {v} exceeds this platform's usize")))
}

/// A frame needs at least one partition, and the header stores the count
/// as a u32: anything else is a typed error, never a panic or a silently
/// truncated header.
fn check_partitions(partitions: usize) -> Result<(), CodecError> {
    if partitions == 0 || u32::try_from(partitions).is_err() {
        return Err(CodecError::Format(format!(
            "a stream frame needs 1..=u32::MAX partitions, got {partitions}"
        )));
    }
    Ok(())
}

/// Where a [`StreamFileWriter`] keeps its bytes: a [`File`] for durable
/// streams, or an in-memory buffer (`Cursor<&mut Vec<u8>>`) for streams
/// built or recovered in memory. Beyond `Read + Write + Seek`, recovery
/// cuts a torn tail off the store and [`SyncPolicy`] makes its bytes
/// durable.
pub trait StreamStore: Read + Write + Seek {
    /// Cut (or zero-extend) the store to exactly `len` bytes.
    fn truncate(&mut self, len: u64) -> std::io::Result<()>;

    /// Make every written byte durable: `fdatasync` for a file, nothing
    /// for memory.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl StreamStore for File {
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.set_len(len)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

impl StreamStore for Cursor<&mut Vec<u8>> {
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        let len = usize::try_from(len).map_err(|_| std::io::ErrorKind::InvalidInput)?;
        self.get_mut().resize(len, 0);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// When a [`StreamFileWriter`]'s bytes become durable. See the module
/// docs' crash-loss section for the full power-loss semantics of each
/// level; in short: `Flush` survives process death, `SyncPerFrame`
/// survives power loss per acknowledged frame, `SyncOnFinish` survives
/// power loss once `finish` has returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the OS page cache after every frame (the default — the
    /// original writer behaviour).
    #[default]
    Flush,
    /// `sync_data` after every frame footer: each acknowledged frame is
    /// power-loss durable before `append_frame` returns.
    SyncPerFrame,
    /// Flush per frame, one `sync_data` in `finish`: the finished stream
    /// is power-loss durable as a unit.
    SyncOnFinish,
}

/// What a recovery pass found and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Partitions per frame, from the surviving header.
    pub partitions: usize,
    /// Complete frames that survived (intact data + footer).
    pub frames_kept: usize,
    /// Bytes of the valid prefix (header + surviving frames).
    pub bytes_kept: u64,
    /// Bytes discarded past the last intact footer (torn frame, torn or
    /// stale trailer).
    pub bytes_dropped: u64,
}

/// Seek to `pos` and fill `buf` exactly. Callers bounds-check against the
/// source length first, so a short read here is a genuine I/O failure.
fn read_exact_at<R: Read + Seek>(src: &mut R, pos: u64, buf: &mut [u8]) -> Result<(), CodecError> {
    src.seek(SeekFrom::Start(pos)).map_err(|e| io_err("seek stream", e))?;
    src.read_exact(buf).map_err(|e| io_err("read stream", e))
}

fn read_u64_at<R: Read + Seek>(src: &mut R, pos: u64) -> Result<u64, CodecError> {
    let mut b = [0u8; 8];
    read_exact_at(src, pos, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// FNV-1a-64 of `src[start..end)`, streamed through a fixed 4 KiB window
/// so an index that grows with the stream (the v2 trailer body, the v1
/// offset table) is verified without ever becoming resident.
fn checksum_range<R: Read + Seek>(src: &mut R, start: u64, end: u64) -> Result<u64, CodecError> {
    src.seek(SeekFrom::Start(start)).map_err(|e| io_err("seek stream", e))?;
    let mut h = FNV1A64_SEED;
    let mut chunk = [0u8; 4096];
    let mut pos = start;
    while pos < end {
        let n = (end - pos).min(chunk.len() as u64) as usize;
        src.read_exact(&mut chunk[..n]).map_err(|e| io_err("read stream", e))?;
        h = fnv1a64_update(h, &chunk[..n]);
        pos += n as u64;
    }
    Ok(h)
}

/// What the streaming recovery scan established about a stream.
struct ScanOutcome {
    partitions: usize,
    /// Cold frames the header declared (0 for v2).
    cold_declared: usize,
    /// Cold frames among the intact survivors.
    cold_kept: usize,
    /// Footer offset of every intact frame.
    footers: Vec<u64>,
    /// End of the valid prefix (header + surviving frames).
    valid_end: u64,
}

/// Scan a durable stream's frames forward from the header over any
/// `Read + Seek` source of `len` bytes — the first half of
/// [`StreamFileWriter::resume`].
///
/// It never trusts a trailer and treats the first structural violation as
/// end-of-stream. The scan is a bounded forward window — resident memory
/// peaks at one container plus one footer regardless of stream length
/// (plus the 8-byte-per-frame footer list it returns, which *is* the
/// manifest). Nothing is reserved from the header's partition count: a
/// hostile header may declare 2³²−1 partitions in a 16-byte file.
fn scan_frames_streaming<R: Read + Seek>(src: &mut R, len: u64) -> Result<ScanOutcome, CodecError> {
    if len < FILE_HEADER_LEN as u64 {
        return Err(CodecError::Format("stream file shorter than header".into()));
    }
    let mut header = [0u8; FILE_HEADER_LEN];
    read_exact_at(src, 0, &mut header)?;
    if &header[..4] != MAGIC {
        return Err(CodecError::Format("bad stream-file magic".into()));
    }
    let version = header[4];
    if version != STREAM_FILE_VERSION && version != STREAM_FILE_TIERED_VERSION {
        return Err(CodecError::Format(format!(
            "unsupported stream-file version {version} (expected {STREAM_FILE_VERSION} or \
             {STREAM_FILE_TIERED_VERSION}; version {LEGACY_VERSION} streams are read-only)"
        )));
    }
    let partitions = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if partitions == 0 {
        return Err(CodecError::Format("stream file declares zero partitions".into()));
    }
    let cold_declared = if version == STREAM_FILE_TIERED_VERSION {
        u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize
    } else {
        0
    };
    let flen = footer_len(partitions) as u64;
    let mut footers: Vec<u64> = Vec::new();
    let mut cursor = FILE_HEADER_LEN as u64;
    let mut wrapper = [0u8; crate::container::WRAPPER_LEN];
    let mut buf: Vec<u8> = Vec::new();
    let mut offsets: Vec<u64> = Vec::new();
    'frames: loop {
        offsets.clear();
        let mut c = cursor;
        for _ in 0..partitions {
            // A container survives iff its wrapper parses structurally and
            // the declared payload fits — the wrapper peek (owned by
            // `container.rs`, the layout's home) decides how far to skip,
            // and `Container::from_bytes` re-checks everything including
            // the codec header.
            if c.checked_add(wrapper.len() as u64).is_none_or(|e| e > len) {
                break 'frames;
            }
            read_exact_at(src, c, &mut wrapper)?;
            let Some(total) = crate::container::peek_total_len(&wrapper) else {
                break 'frames;
            };
            let Some(end) = c.checked_add(total as u64) else {
                break 'frames;
            };
            if end > len {
                break 'frames;
            }
            buf.clear();
            buf.extend_from_slice(&wrapper);
            buf.resize(total, 0);
            // The source is already positioned just past the wrapper.
            src.read_exact(&mut buf[wrapper.len()..]).map_err(|e| io_err("read stream", e))?;
            if Container::from_bytes(std::mem::take(&mut buf)).is_err() {
                break 'frames;
            }
            offsets.push(c);
            c = end;
        }
        offsets.push(c); // footer start = end of the frame's data
        if c.checked_add(flen).is_none_or(|e| e > len) {
            break;
        }
        buf.clear();
        buf.resize(flen as usize, 0);
        read_exact_at(src, c, &mut buf)?;
        if buf != encode_footer(footers.len(), cold_declared, &offsets) {
            // Covers magic, tier, index, offset mismatches and checksum at
            // once: the footer is a pure function of (tier, index, offsets).
            break;
        }
        footers.push(c);
        cursor = c + flen;
    }
    let cold_kept = footers.len().min(cold_declared);
    Ok(ScanOutcome { partitions, cold_declared, cold_kept, footers, valid_end: cursor })
}

/// Serialise a tiered series into durable v3 stream bytes in one go — the
/// byte-exact in-memory equivalent of what a [`CompactionTask`] publishes:
/// `cold` frames first under `FTR3` footers, then `hot` frames under
/// ordinary `FTR2` footers. It exists for fixtures and the property
/// suites; production streams become tiered only through compaction.
pub fn stream_file_bytes_tiered(
    partitions: usize,
    cold: &[Vec<Container>],
    hot: &[Vec<Container>],
) -> Result<Vec<u8>, CodecError> {
    let mut bytes = Vec::new();
    let store = Cursor::new(&mut bytes);
    let mut w = StreamFileWriter::start(store, partitions, Some(cold.len()), SyncPolicy::Flush)?;
    for frame in cold.iter().chain(hot) {
        w.write_frame(frame.iter().map(Container::as_bytes))?;
    }
    w.finish()?;
    Ok(bytes)
}

/// Recover the valid prefix of (possibly crashed) durable-stream bytes.
///
/// Returns finished stream bytes — the surviving frames re-trailered,
/// byte-identical to a fresh write of those frames (for a v3 stream, to
/// [`stream_file_bytes_tiered`] with the header's cold count patched down
/// if the truncation reached into the cold tier) — plus the
/// [`RecoveryReport`]. Fails only when the header itself did not survive
/// (nothing is recoverable without the partition count).
pub fn recover_stream(bytes: &[u8]) -> Result<(Vec<u8>, RecoveryReport), CodecError> {
    let mut out = bytes.to_vec();
    let (w, report) = StreamFileWriter::resume(Cursor::new(&mut out), SyncPolicy::Flush)?;
    w.finish()?;
    Ok((out, report))
}

/// Appends each snapshot's containers to a stream as the simulation
/// produces them.
///
/// Data-first, manifest-last: the header goes out at `create`, every
/// `append_frame` writes containers then the frame footer and flushes, and
/// `finish` appends the trailer that gives readers O(1) access. A process
/// killed between frames loses nothing; killed mid-frame it loses only
/// that frame, and [`StreamFileWriter::recover`] truncates the torn tail
/// and returns a writer ready to append the re-run snapshot. The store is
/// a [`File`] by default; [`create_in`](StreamFileWriter::create_in)
/// writes the same bytes to any other [`StreamStore`].
#[derive(Debug)]
pub struct StreamFileWriter<S = File> {
    store: S,
    /// Path of a file-backed stream (empty for other stores).
    path: PathBuf,
    partitions: usize,
    sync: SyncPolicy,
    /// Footer offset of every completed frame.
    footers: Vec<u64>,
    /// Current end-of-data offset (next frame starts here).
    cursor: u64,
    /// Frames in the cold tier: the frames below this index carry `FTR3`
    /// footers. 0 until a compaction ran; appends are always hot.
    cold: usize,
}

impl StreamFileWriter<File> {
    /// Create (truncating) a durable stream at `path` for frames of
    /// `partitions` containers each, writing the header immediately.
    /// Durability is [`SyncPolicy::Flush`]; use
    /// [`create_with`](StreamFileWriter::create_with) to choose another.
    pub fn create(path: impl AsRef<Path>, partitions: usize) -> Result<Self, CodecError> {
        Self::create_with(path, partitions, SyncPolicy::default())
    }

    /// [`create`](StreamFileWriter::create) with an explicit durability
    /// level — see [`SyncPolicy`] and the module docs' power-loss table.
    pub fn create_with(
        path: impl AsRef<Path>,
        partitions: usize,
        sync: SyncPolicy,
    ) -> Result<Self, CodecError> {
        // Checked before the file exists: a rejected stream leaves nothing
        // on disk.
        check_partitions(partitions)?;
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create stream file", e))?;
        let mut w = Self::create_in(file, partitions, sync)?;
        w.path = path;
        Ok(w)
    }

    /// Re-open a crashed (or merely unfinished) stream: scan for the valid
    /// prefix, truncate everything past the last intact footer, and return
    /// a writer positioned to append the next frame, plus what was kept
    /// and dropped. `finish` afterwards yields bytes identical to an
    /// uninterrupted write of the surviving + appended frames. Durability
    /// is [`SyncPolicy::Flush`]; use
    /// [`recover_with`](StreamFileWriter::recover_with) to choose another.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport), CodecError> {
        Self::recover_with(path, SyncPolicy::default())
    }

    /// [`recover`](StreamFileWriter::recover) with an explicit durability
    /// level for the appends that follow.
    pub fn recover_with(
        path: impl AsRef<Path>,
        sync: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), CodecError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open stream file", e))?;
        let (mut w, report) = Self::resume(file, sync)?;
        w.path = path;
        Ok((w, report))
    }

    /// Re-tier every frame older than `cfg.horizon` in one blocking pass —
    /// [`CompactionTask::begin`] + every `step` + `finalize`. Returns
    /// `None` when no frame is old enough. Servers that must stay
    /// responsive drive the task form instead, one frame per idle slot.
    pub fn compact<T: Scalar>(
        &mut self,
        cfg: CompactionConfig,
    ) -> Result<Option<CompactionReport>, CodecError> {
        let Some(mut task) = CompactionTask::begin(self, cfg)? else {
            return Ok(None);
        };
        while !task.step::<T>()? {}
        Ok(Some(task.finalize(self)?))
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl<S: StreamStore> StreamFileWriter<S> {
    /// Start a fresh `STRM` v2 stream in `store`, replacing whatever it
    /// held: [`create_with`](StreamFileWriter::create_with) for any store.
    /// Over `Cursor::new(&mut bytes)` it builds in memory exactly the bytes
    /// a file-backed writer puts on disk.
    pub fn create_in(store: S, partitions: usize, sync: SyncPolicy) -> Result<Self, CodecError> {
        Self::start(store, partitions, None, sync)
    }

    /// Empty `store`, write a v2 header (v3 when `cold` declares a cold
    /// tier), and return a writer positioned after it.
    fn start(
        mut store: S,
        partitions: usize,
        cold: Option<usize>,
        sync: SyncPolicy,
    ) -> Result<Self, CodecError> {
        check_partitions(partitions)?;
        store.truncate(0).map_err(|e| io_err("truncate stream", e))?;
        store.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek stream", e))?;
        store.write_all(&encode_header(partitions, cold)).map_err(|e| io_err("write header", e))?;
        store.flush().map_err(|e| io_err("flush header", e))?;
        Ok(Self {
            store,
            path: PathBuf::new(),
            partitions,
            sync,
            footers: Vec::new(),
            cursor: FILE_HEADER_LEN as u64,
            cold: cold.unwrap_or(0),
        })
    }

    /// The one recovery routine behind [`recover_stream`] and
    /// [`StreamFileWriter::recover_with`]: scan the frames forward from the
    /// header (never trusting a trailer), decide whether data was lost,
    /// patch a v3 header's cold count down to the cold frames kept, cut the
    /// store to the valid prefix, and report.
    fn resume(mut store: S, sync: SyncPolicy) -> Result<(Self, RecoveryReport), CodecError> {
        let len = store.seek(SeekFrom::End(0)).map_err(|e| io_err("seek stream", e))?;
        // The scan streams straight off the store: recovery of a stream
        // far larger than RAM peaks at one container resident.
        let scan = scan_frames_streaming(&mut store, len)?;
        // Decide "truncated" before touching the store: data was lost
        // unless the bytes past the prefix are exactly the trailer a
        // finished stream would carry (and no declared cold frame died).
        let rebuilt = encode_trailer(&scan.footers, scan.valid_end);
        let mut truncated =
            scan.cold_kept < scan.cold_declared || len - scan.valid_end != rebuilt.len() as u64;
        if !truncated {
            let mut tail = vec![0u8; rebuilt.len()];
            read_exact_at(&mut store, scan.valid_end, &mut tail)?;
            truncated = tail != rebuilt;
        }
        if scan.cold_kept < scan.cold_declared {
            // The truncation reached into a v3 cold tier: patch the
            // header's cold count so the stream stays self-consistent.
            store.seek(SeekFrom::Start(12)).map_err(|e| io_err("seek to header", e))?;
            store
                .write_all(&(scan.cold_kept as u32).to_le_bytes())
                .map_err(|e| io_err("patch cold frame count", e))?;
        }
        store.truncate(scan.valid_end).map_err(|e| io_err("truncate to valid prefix", e))?;
        store.seek(SeekFrom::End(0)).map_err(|e| io_err("seek to end", e))?;
        let report = RecoveryReport {
            partitions: scan.partitions,
            frames_kept: scan.footers.len(),
            bytes_kept: scan.valid_end,
            bytes_dropped: len - scan.valid_end,
        };
        crate::obs::record_recovery(report.frames_kept, truncated);
        let w = Self {
            store,
            path: PathBuf::new(),
            partitions: scan.partitions,
            sync,
            footers: scan.footers,
            cursor: scan.valid_end,
            cold: scan.cold_kept,
        };
        Ok((w, report))
    }

    /// The one frame encoder: write `containers` (partition-id order) at
    /// the cursor, then the frame's footer — `FTR3` inside the declared
    /// cold tier, `FTR2` past it — and record the frame in the manifest.
    /// Returns the bytes written. Appends, compaction's cold and rebased
    /// hot frames, and the in-memory tiered builder all write through here.
    fn write_frame<'a>(
        &mut self,
        containers: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> Result<u64, CodecError> {
        if containers.len() != self.partitions {
            return Err(CodecError::Format(format!(
                "frame has {} partitions, stream expects {}",
                containers.len(),
                self.partitions
            )));
        }
        let mut offsets = Vec::with_capacity(self.partitions + 1);
        let mut end = self.cursor;
        for c in containers {
            offsets.push(end);
            self.store.write_all(c).map_err(|e| io_err("write container", e))?;
            end += c.len() as u64;
        }
        offsets.push(end);
        let footer = encode_footer(self.footers.len(), self.cold, &offsets);
        self.store.write_all(&footer).map_err(|e| io_err("write frame footer", e))?;
        let written = end + footer.len() as u64 - self.cursor;
        self.footers.push(end);
        self.cursor = end + footer.len() as u64;
        Ok(written)
    }

    /// Append one snapshot's containers (partition-id order) and flush.
    /// After this returns, the frame survives any crash. A frame whose
    /// partition count differs from the stream's is a typed error and
    /// writes nothing.
    pub fn append_frame(&mut self, containers: &[Container]) -> Result<(), CodecError> {
        let obs = crate::obs::stream_file_metrics();
        let _span = telemetry::span(&obs.append_ns);
        let written = self.write_frame(containers.iter().map(Container::as_bytes))?;
        let sync_started = std::time::Instant::now();
        self.store.flush().map_err(|e| io_err("flush frame", e))?;
        if self.sync == SyncPolicy::SyncPerFrame {
            // sync_data covers every dirty byte of the file, so the header
            // (and any earlier frame) rides along with the first sync.
            self.store.sync().map_err(|e| io_err("sync frame", e))?;
        }
        obs.sync_ns.record(sync_started.elapsed().as_nanos() as u64);
        obs.append_bytes.add(written);
        obs.frames.inc();
        Ok(())
    }

    /// The durability level this writer was created with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Frames written so far (including recovered ones).
    pub fn frames(&self) -> usize {
        self.footers.len()
    }

    /// Frames in the cold tier (re-compressed by a past compaction).
    pub fn cold_frames(&self) -> usize {
        self.cold
    }

    /// Partitions per frame.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Append the trailer and flush, completing the stream. Returns the
    /// total stream length. The stream stays recoverable (and thus
    /// readable after a [`recover`](StreamFileWriter::recover) pass) even
    /// if this is never called — the trailer only buys trailer-based O(1)
    /// opens.
    pub fn finish(mut self) -> Result<u64, CodecError> {
        let trailer = encode_trailer(&self.footers, self.cursor);
        self.store.write_all(&trailer).map_err(|e| io_err("write trailer", e))?;
        self.store.flush().map_err(|e| io_err("flush trailer", e))?;
        if self.sync != SyncPolicy::Flush {
            // SyncPerFrame syncs here too so the trailer itself is as
            // durable as the frames it indexes.
            self.store.sync().map_err(|e| io_err("sync trailer", e))?;
        }
        Ok(self.cursor + trailer.len() as u64)
    }
}

/// What a [`CompactionTask`] does to cold frames: every frame older than
/// `horizon` (counted from the stream's end) is decoded and re-compressed
/// at the absolute bound `eb` — with `codec` if set, else each
/// container's original codec. `eb` is absolute because the container
/// wrapper does not record the bound a payload was written at; the caller
/// owns the bound schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionConfig {
    /// Frames at the end of the stream that stay hot.
    pub horizon: usize,
    /// Absolute error bound cold frames are re-compressed at.
    pub eb: f64,
    /// Optional colder codec for the re-tiered frames.
    pub codec: Option<CodecId>,
}

impl CompactionConfig {
    /// Re-tier under each container's original codec at bound `eb`.
    pub fn new(horizon: usize, eb: f64) -> Self {
        Self { horizon, eb, codec: None }
    }

    /// Re-tier everything cold with one explicit codec.
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = Some(codec);
        self
    }
}

/// What a finished compaction accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Frames re-tiered by this run.
    pub frames_compacted: usize,
    /// Total cold frames after the run (including previously cold ones).
    pub cold_frames: usize,
    /// Stream data bytes before compaction (header + frames, no trailer).
    pub bytes_before: u64,
    /// Stream data bytes after compaction.
    pub bytes_after: u64,
}

/// A sliced cold-frame compaction over a live [`StreamFileWriter`].
///
/// `begin` opens a `<path>.compact` temp file with a v3 header and copies
/// any already-cold prefix verbatim; each `step` re-tiers one frame
/// (decode → re-compress at the relaxed bound → `FTR3` footer); `finalize`
/// rebases the hot tail behind the cold tier (footers hold absolute
/// offsets, so every hot footer is rewritten with shifted offsets),
/// publishes the temp file over the stream with an atomic rename, and
/// rewires the writer onto it. The original stream is never modified
/// before the rename, and the writer may keep appending between steps —
/// appends only extend the original file, and `finalize` picks the new
/// frames up during the rebase. Dropping an unfinalised task removes the
/// temp file and leaves the stream untouched.
///
/// One task per stream at a time: the caller (e.g. a server worker that
/// owns the tenant) serialises `begin`/`step`/`finalize` against appends.
#[derive(Debug)]
pub struct CompactionTask {
    cfg: CompactionConfig,
    /// Independent read handle on the original stream.
    src: File,
    /// Writer over the temp file. Its header declares the cold tier this
    /// run produces, so its frames below `cold_end` get `FTR3` footers.
    out: StreamFileWriter,
    /// Frames that were already cold (copied verbatim by `begin`).
    cold_start: usize,
    /// First frame that stays hot after this run.
    cold_end: usize,
    /// Next frame to re-tier.
    next: usize,
    /// Footer offsets in the original file for frames `0..cold_end`,
    /// captured at `begin` time.
    orig_footers: Vec<u64>,
    /// Reused per-partition buffers for the hot-frame rebase.
    scratch: Vec<Vec<u8>>,
    finalized: bool,
}

impl CompactionTask {
    /// Start compacting `writer`'s stream under `cfg`. Returns `None`
    /// when no frame is old enough (nothing strictly colder than the
    /// already-cold prefix).
    pub fn begin(
        writer: &StreamFileWriter,
        cfg: CompactionConfig,
    ) -> Result<Option<Self>, CodecError> {
        if !(cfg.eb.is_finite() && cfg.eb > 0.0) {
            return Err(CodecError::Format(format!(
                "compaction bound {} must be finite and positive",
                cfg.eb
            )));
        }
        let cold_end = writer.footers.len().saturating_sub(cfg.horizon);
        if cold_end <= writer.cold {
            return Ok(None);
        }
        let mut src =
            File::open(&writer.path).map_err(|e| io_err("open stream for compaction", e))?;
        let mut tmp_os = writer.path.clone().into_os_string();
        tmp_os.push(".compact");
        let tmp_path = PathBuf::from(tmp_os);
        let tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| io_err("create compaction temp file", e))?;
        let mut out = StreamFileWriter::start(tmp, writer.partitions, Some(cold_end), writer.sync)?;
        out.path = tmp_path;
        // The already-cold prefix is re-used byte-for-byte: the header is
        // the same length, so its absolute offsets still hold.
        let prefix_end = match writer.cold {
            0 => FILE_HEADER_LEN as u64,
            cold => writer.footers[cold - 1] + footer_len(writer.partitions) as u64,
        };
        let prefix_len = prefix_end - FILE_HEADER_LEN as u64;
        src.seek(SeekFrom::Start(FILE_HEADER_LEN as u64)).map_err(|e| io_err("seek stream", e))?;
        let copied = std::io::copy(&mut (&mut src).take(prefix_len), &mut out.store)
            .map_err(|e| io_err("copy cold prefix", e))?;
        if copied != prefix_len {
            return Err(CodecError::Io(format!(
                "stream ended {copied} bytes into a {prefix_len}-byte cold prefix"
            )));
        }
        out.footers = writer.footers[..writer.cold].to_vec();
        out.cursor = prefix_end;
        crate::obs::record_compaction_started(cold_end - writer.cold);
        Ok(Some(Self {
            cfg,
            src,
            out,
            cold_start: writer.cold,
            cold_end,
            next: writer.cold,
            orig_footers: writer.footers[..cold_end].to_vec(),
            scratch: Vec::new(),
            finalized: false,
        }))
    }

    /// Frames still awaiting a re-tiering step.
    pub fn remaining(&self) -> usize {
        self.cold_end - self.next
    }

    /// True once every cold frame has been re-tiered ([`finalize`] next).
    ///
    /// [`finalize`]: CompactionTask::finalize
    pub fn is_done(&self) -> bool {
        self.next >= self.cold_end
    }

    /// Read and verify the hot footer of frame `index` at offset `fo` in
    /// the original file, returning its container offsets.
    fn read_frame_offsets(&mut self, index: usize, fo: u64) -> Result<Vec<u64>, CodecError> {
        let mut footer = vec![0u8; footer_len(self.out.partitions)];
        read_exact_at(&mut self.src, fo, &mut footer)?;
        let offsets = le_u64s(&footer[8..footer.len() - 8]);
        if footer != encode_footer(index, 0, &offsets) {
            return Err(CodecError::Format(format!(
                "frame {index} footer is corrupt (magic, index, or checksum)"
            )));
        }
        Ok(offsets)
    }

    /// Length of the container span `offsets[p]..offsets[p+1]`.
    fn span_len(index: usize, offsets: &[u64], p: usize) -> Result<usize, CodecError> {
        let span = offsets[p + 1].checked_sub(offsets[p]).ok_or_else(|| {
            CodecError::Format(format!(
                "frame {index} container offsets do not tile the data region"
            ))
        })?;
        to_usize(span, "container length")
    }

    /// Re-tier one frame: decode every container, re-compress at the
    /// relaxed bound, append under an `FTR3` footer. Returns `true` once
    /// the cold phase is complete. O(frame) resident.
    pub fn step<T: Scalar>(&mut self) -> Result<bool, CodecError> {
        if self.next >= self.cold_end {
            return Ok(true);
        }
        let i = self.next;
        let offsets = self.read_frame_offsets(i, self.orig_footers[i])?;
        let mut frame = Vec::with_capacity(offsets.len() - 1);
        for p in 0..offsets.len() - 1 {
            let mut buf = vec![0u8; Self::span_len(i, &offsets, p)?];
            read_exact_at(&mut self.src, offsets[p], &mut buf)?;
            let c = Container::from_bytes(buf)?;
            let brick = c.decode_field::<T>()?;
            let codec = self.cfg.codec.unwrap_or(c.codec());
            frame.push(Container::compress(codec, brick.as_slice(), brick.dims(), self.cfg.eb));
        }
        self.out.write_frame(frame.iter().map(Container::as_bytes))?;
        self.next += 1;
        Ok(self.next == self.cold_end)
    }

    /// Rebase the hot tail (including frames appended since `begin`),
    /// publish the compacted file with an atomic rename, and rewire
    /// `writer` onto it. Errors if cold steps remain.
    pub fn finalize(
        mut self,
        writer: &mut StreamFileWriter,
    ) -> Result<CompactionReport, CodecError> {
        if self.next < self.cold_end {
            return Err(CodecError::Format(
                "compaction finalised before every cold frame was re-tiered".into(),
            ));
        }
        let bytes_before = writer.cursor;
        let frames_compacted = self.cold_end - self.cold_start;
        // Hot frames cannot be copied verbatim: their footers hold
        // absolute offsets, which the shrunken cold tier shifted.
        for f in self.cold_end..writer.footers.len() {
            let offsets = self.read_frame_offsets(f, writer.footers[f])?;
            self.scratch.resize_with(offsets.len() - 1, Vec::new);
            for (p, buf) in self.scratch.iter_mut().enumerate() {
                buf.clear();
                buf.resize(Self::span_len(f, &offsets, p)?, 0);
                read_exact_at(&mut self.src, offsets[p], buf)?;
            }
            self.out.write_frame(self.scratch.iter().map(Vec::as_slice))?;
        }
        self.out.store.flush().map_err(|e| io_err("flush compacted stream", e))?;
        if self.out.sync == SyncPolicy::SyncPerFrame {
            // Frames were power-loss durable before; they must still be
            // after the rename, so the compacted bytes sync first.
            self.out.store.sync().map_err(|e| io_err("sync compacted stream", e))?;
        }
        std::fs::rename(&self.out.path, &writer.path)
            .map_err(|e| io_err("publish compacted stream", e))?;
        self.finalized = true;
        // The temp writer now describes the published stream: its handle
        // (positioned at the end) and manifest become the writer's.
        std::mem::swap(&mut writer.store, &mut self.out.store);
        writer.footers = std::mem::take(&mut self.out.footers);
        writer.cursor = self.out.cursor;
        writer.cold = self.cold_end;
        let report = CompactionReport {
            frames_compacted,
            cold_frames: self.cold_end,
            bytes_before,
            bytes_after: writer.cursor,
        };
        crate::obs::record_compaction_completed(frames_compacted, bytes_before, writer.cursor);
        Ok(report)
    }
}

impl Drop for CompactionTask {
    fn drop(&mut self) {
        if !self.finalized {
            // Abandoned mid-run (error or shutdown): the temp file is
            // garbage, the original stream was never touched.
            let _ = std::fs::remove_file(&self.out.path);
        }
    }
}

/// Compact a finished stream file on disk: recover (drops the trailer),
/// re-tier under `cfg`, finish (rewrites the trailer). Returns `None`
/// when no frame was old enough — the file is still re-finished
/// byte-identically in that case.
pub fn compact_stream_file<T: Scalar>(
    path: impl AsRef<Path>,
    cfg: CompactionConfig,
) -> Result<Option<CompactionReport>, CodecError> {
    let (mut w, _) = StreamFileWriter::recover(&path)?;
    let report = w.compact::<T>(cfg)?;
    w.finish()?;
    Ok(report)
}

/// The source type [`StreamFileReader::open`] reads a stream file through.
pub type FileSource = File;

/// Frames whose validated manifests a [`StreamFileReader`] keeps resident
/// by default. Sized so a sequential scan re-validates nothing and a
/// parallel per-frame decode still hits, while the resident set stays a
/// few hundred bytes per frame.
pub const DEFAULT_MANIFEST_WINDOW: usize = 16;

/// Bounded LRU of validated per-frame manifests: `(frame, P+1 offsets)`.
/// Linear scans are fine at window sizes (tens of entries).
#[derive(Debug)]
struct ManifestWindow {
    capacity: usize,
    entries: VecDeque<(usize, Arc<Vec<u64>>)>,
}

impl ManifestWindow {
    fn get(&mut self, frame: usize) -> Option<Arc<Vec<u64>>> {
        let pos = self.entries.iter().position(|(f, _)| *f == frame)?;
        let entry = self.entries.remove(pos).expect("position just found");
        let offsets = entry.1.clone();
        self.entries.push_back(entry);
        Some(offsets)
    }

    fn insert(&mut self, frame: usize, offsets: Arc<Vec<u64>>) {
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((frame, offsets));
    }
}

/// Where a reader finds each frame's manifest.
#[derive(Debug, Clone, Copy)]
enum Index {
    /// `STRM` v1: the checksummed offset table right after the header.
    Table,
    /// `STRM` v2/v3: per-frame footers, located through the trailer that
    /// starts at this offset.
    Trailer(u64),
}

/// Verify a v1 stream's offset table — bounds, checksum, and its first
/// and last entries — without loading it. The entries in between are
/// checked per frame as the reader touches them.
fn open_table<R: Read + Seek>(
    src: &mut R,
    len: u64,
    partitions: usize,
    frames: usize,
) -> Result<(), CodecError> {
    if len < LEGACY_HEADER_LEN {
        return Err(CodecError::Format("stream shorter than header".into()));
    }
    let table_end = (frames as u64)
        .checked_mul(partitions as u64)
        .and_then(|n| n.checked_add(1))
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(LEGACY_HEADER_LEN))
        .filter(|&end| end <= len)
        .ok_or_else(|| CodecError::Format("offset table truncated".into()))?;
    let stored = read_u64_at(src, 16)?;
    let actual = checksum_range(src, LEGACY_HEADER_LEN, table_end)?;
    if actual != stored {
        return Err(CodecError::Format(format!(
            "offset-table checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let first = read_u64_at(src, LEGACY_HEADER_LEN)?;
    if first != table_end {
        return Err(CodecError::Format(format!(
            "first offset {first} does not start at the payload region {table_end}"
        )));
    }
    let last = read_u64_at(src, table_end - 8)?;
    if last != len {
        return Err(CodecError::Format(format!(
            "final offset {last} does not match stream length {len}"
        )));
    }
    Ok(())
}

/// Locate a v2/v3 trailer through the back-pointer in the last 8 bytes
/// and verify it, returning `(frames, trailer_start)`. The trailer body is
/// 8 bytes per frame — the one O(stream) structure — so it is checksummed
/// in bounded chunks and never becomes resident.
fn open_trailer<R: Read + Seek>(src: &mut R, len: u64) -> Result<(usize, u64), CodecError> {
    if len < (FILE_HEADER_LEN + trailer_len(0)) as u64 {
        return Err(CodecError::Format("stream file shorter than header + trailer".into()));
    }
    let trailer_start = read_u64_at(src, len - 8)?;
    if trailer_start < FILE_HEADER_LEN as u64 || trailer_start >= len {
        return Err(CodecError::Format(format!(
            "trailer back-pointer {trailer_start} outside stream of {len} bytes"
        )));
    }
    let tlen = to_usize(len - trailer_start, "trailer length")?;
    let mut head8 = [0u8; 8];
    if tlen < trailer_len(0) {
        return Err(CodecError::Format("bad stream trailer magic".into()));
    }
    read_exact_at(src, trailer_start, &mut head8)?;
    if &head8[..4] != TRAILER_MAGIC {
        return Err(CodecError::Format("bad stream trailer magic".into()));
    }
    let frames = u32::from_le_bytes(head8[4..8].try_into().expect("4 bytes")) as usize;
    if trailer_len(frames) != tlen {
        return Err(CodecError::Format(format!(
            "trailer declares {frames} frames but spans {tlen} bytes"
        )));
    }
    let body_end = trailer_start + (tlen - 16) as u64;
    let computed = checksum_range(src, trailer_start, body_end)?;
    let stored = read_u64_at(src, body_end)?;
    if stored != computed {
        return Err(CodecError::Format(format!(
            "trailer checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok((frames, trailer_start))
}

/// O(1) random access over a finished stream of any version without
/// loading the payload region — or the manifest. Open cost is the header
/// plus a chunked checksum of the trailer (v2/v3) or offset table (v1);
/// per-frame manifests are validated lazily on first touch and cached in a
/// bounded window, so the resident set is O(frames-in-window) however long
/// the stream. Each container access reads exactly its own bytes from the
/// source.
#[derive(Debug)]
pub struct StreamFileReader<R = File> {
    /// The mutex serialises each seek+read pair, so `&self` reads (and a
    /// parallel per-frame decode) share one handle.
    source: Mutex<R>,
    len: u64,
    partitions: usize,
    frames: usize,
    /// Frames `0..cold_frames` are the cold tier (v3 streams; 0 otherwise).
    cold_frames: usize,
    index: Index,
    window: Mutex<ManifestWindow>,
}

impl StreamFileReader<File> {
    /// Open a finished stream file. Crashed files (no trailer) must go
    /// through [`StreamFileWriter::recover`] first.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        Self::from_source(File::open(path).map_err(|e| io_err("open stream file", e))?)
    }
}

impl<R: Read + Seek> StreamFileReader<R> {
    /// Validate the header and the trailer (or v1 offset table) of the
    /// stream in `source` with the default manifest window. Per-frame
    /// manifests are validated lazily per access; call
    /// [`validate_all`](StreamFileReader::validate_all) to force the eager
    /// whole-stream walk up front.
    pub fn from_source(source: R) -> Result<Self, CodecError> {
        Self::from_source_with(source, DEFAULT_MANIFEST_WINDOW)
    }

    /// [`from_source`](StreamFileReader::from_source) with an explicit
    /// manifest-window capacity (clamped to at least one frame).
    pub fn from_source_with(mut source: R, window: usize) -> Result<Self, CodecError> {
        let len = source.seek(SeekFrom::End(0)).map_err(|e| io_err("seek stream", e))?;
        if len < FILE_HEADER_LEN as u64 {
            return Err(CodecError::Format("stream shorter than header".into()));
        }
        let mut header = [0u8; FILE_HEADER_LEN];
        read_exact_at(&mut source, 0, &mut header)?;
        if &header[..4] != MAGIC {
            return Err(CodecError::Format("bad stream magic".into()));
        }
        let version = header[4];
        let partitions = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        if partitions == 0 {
            return Err(CodecError::Format("stream declares zero partitions".into()));
        }
        // v1: the frame count; v3: the cold frame count; v2: reserved.
        let word = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        let (frames, cold_frames, index) = match version {
            LEGACY_VERSION => {
                open_table(&mut source, len, partitions, word)?;
                (word, 0, Index::Table)
            }
            STREAM_FILE_VERSION | STREAM_FILE_TIERED_VERSION => {
                let (frames, trailer_start) = open_trailer(&mut source, len)?;
                let cold = if version == STREAM_FILE_TIERED_VERSION { word } else { 0 };
                if cold > frames {
                    return Err(CodecError::Format(format!(
                        "tiered header declares {cold} cold frames but the stream holds {frames}"
                    )));
                }
                if frames == 0 && trailer_start != FILE_HEADER_LEN as u64 {
                    return Err(CodecError::Format(format!(
                        "data region ends at {FILE_HEADER_LEN} but the trailer starts at \
                         {trailer_start}"
                    )));
                }
                (frames, cold, Index::Trailer(trailer_start))
            }
            v => return Err(CodecError::Format(format!("unsupported stream version {v}"))),
        };
        Ok(Self {
            source: Mutex::new(source),
            len,
            partitions,
            frames,
            cold_frames,
            index,
            window: Mutex::new(ManifestWindow {
                capacity: window.max(1),
                entries: VecDeque::new(),
            }),
        })
    }

    /// Fill `buf` from `pos`, refusing reads past the end of the stream.
    fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<(), CodecError> {
        if pos.checked_add(buf.len() as u64).is_none_or(|end| end > self.len) {
            return Err(CodecError::Format("read past end of stream".into()));
        }
        let mut source = self.source.lock().expect("stream source lock poisoned by a panic");
        read_exact_at(&mut *source, pos, buf)
    }

    fn u64_at(&self, pos: u64) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        self.read_at(pos, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// The validated manifest of one frame: `partitions` container starts
    /// plus the end of the frame's data. Window hit, or one read of the v1
    /// table slice or the v2/v3 footer, validated.
    fn frame_offsets(&self, frame: usize) -> Result<Arc<Vec<u64>>, CodecError> {
        if let Some(hit) = self.window.lock().expect("manifest window lock").get(frame) {
            return Ok(hit);
        }
        let offsets = Arc::new(match self.index {
            Index::Table => self.table_manifest(frame)?,
            Index::Trailer(trailer_start) => self.footer_manifest(frame, trailer_start)?,
        });
        self.window.lock().expect("manifest window lock").insert(frame, offsets.clone());
        Ok(offsets)
    }

    /// v1: the P+1 table entries from the frame's first container to the
    /// next frame's (or the stream end). Open checked the table's bounds
    /// and checksum; the entries must not decrease.
    fn table_manifest(&self, frame: usize) -> Result<Vec<u64>, CodecError> {
        let mut raw = vec![0u8; 8 * (self.partitions + 1)];
        self.read_at(LEGACY_HEADER_LEN + 8 * (frame * self.partitions) as u64, &mut raw)?;
        let offsets = le_u64s(&raw);
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(CodecError::Format("offset table is not monotone".into()));
        }
        Ok(offsets)
    }

    /// v2/v3: one footer read + validation (magic, tier, index, checksum,
    /// contiguous tiling against the previous frame's footer).
    fn footer_manifest(&self, frame: usize, trailer_start: u64) -> Result<Vec<u64>, CodecError> {
        let footer_offset = |f: usize| self.u64_at(trailer_start + 8 + 8 * f as u64);
        let fo = footer_offset(frame)?;
        let flen = footer_len(self.partitions) as u64;
        let expected_start = if frame == 0 {
            FILE_HEADER_LEN as u64
        } else {
            footer_offset(frame - 1)?.checked_add(flen).ok_or_else(|| {
                CodecError::Format(format!("frame {} footer offset overflows", frame - 1))
            })?
        };
        if fo.checked_add(flen).is_none_or(|end| end > trailer_start) || fo < expected_start {
            return Err(CodecError::Format(format!(
                "frame {frame} footer offset {fo} outside the data region"
            )));
        }
        let mut footer = vec![0u8; flen as usize];
        self.read_at(fo, &mut footer)?;
        let offsets = le_u64s(&footer[8..footer.len() - 8]);
        if footer != encode_footer(frame, self.cold_frames, &offsets) {
            return Err(CodecError::Format(format!(
                "frame {frame} footer is corrupt (magic, index, or checksum)"
            )));
        }
        // Offsets must tile the data region contiguously from the
        // previous footer's end to this footer.
        if offsets[0] != expected_start
            || *offsets.last().expect("P+1 entries") != fo
            || offsets.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(CodecError::Format(format!(
                "frame {frame} container offsets do not tile the data region"
            )));
        }
        if frame + 1 == self.frames && fo + flen != trailer_start {
            return Err(CodecError::Format(format!(
                "data region ends at {} but the trailer starts at {trailer_start}",
                fo + flen
            )));
        }
        Ok(offsets)
    }

    /// Eagerly validate every frame's manifest — the pre-out-of-core open
    /// behaviour, for callers that want whole-stream integrity up front
    /// and accept the O(stream) walk (still O(window) resident).
    pub fn validate_all(&self) -> Result<(), CodecError> {
        for f in 0..self.frames {
            self.frame_offsets(f)?;
        }
        Ok(())
    }

    /// Snapshot frames in the stream.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Partitions per frame.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Frames in the cold (compacted) tier — 0 for v1 and v2 streams.
    pub fn cold_frames(&self) -> usize {
        self.cold_frames
    }

    /// Raw v2-container bytes of one (frame, partition) — one bounded read
    /// from the source.
    pub fn container_bytes(&self, frame: usize, partition: usize) -> Result<Vec<u8>, CodecError> {
        let mut buf = Vec::new();
        self.read_container_into(frame, partition, &mut buf)?;
        Ok(buf)
    }

    /// [`container_bytes`](StreamFileReader::container_bytes) into a
    /// caller-owned scratch buffer (cleared and resized), so per-frame
    /// loops — sequential scans, the compactor, server read paths —
    /// allocate once instead of once per access.
    pub fn read_container_into(
        &self,
        frame: usize,
        partition: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if frame >= self.frames || partition >= self.partitions {
            return Err(CodecError::Format(format!(
                "(frame {frame}, partition {partition}) outside stream of {}x{}",
                self.frames, self.partitions
            )));
        }
        let offsets = self.frame_offsets(frame)?;
        let (start, end) = (offsets[partition], offsets[partition + 1]);
        buf.clear();
        buf.resize(to_usize(end - start, "container length")?, 0);
        self.read_at(start, buf)
    }

    /// Parse one (frame, partition) container — O(1) in the number of
    /// preceding frames/partitions, reading only that container's bytes.
    pub fn container(&self, frame: usize, partition: usize) -> Result<Container, CodecError> {
        Container::from_bytes(self.container_bytes(frame, partition)?)
    }

    /// All containers of one frame, partition-id order.
    pub fn frame(&self, frame: usize) -> Result<Vec<Container>, CodecError> {
        (0..self.partitions).map(|p| self.container(frame, p)).collect()
    }

    /// Decode one frame's partitions (in parallel, after a serial read
    /// pass) and reassemble the full field.
    pub fn reconstruct_frame<T: Scalar>(
        &self,
        frame: usize,
        dec: &Decomposition,
    ) -> Result<Field3<T>, CodecError> {
        let containers = self.frame(frame)?;
        let bricks: Vec<Field3<T>> =
            containers.par_iter().map(|c| c.decode_field::<T>()).collect::<Result<_, _>>()?;
        dec.assemble(&bricks).map_err(|e| CodecError::Format(e.to_string()))
    }

    /// Decode exactly one (frame, partition) brick without reading any
    /// other container's bytes.
    pub fn reconstruct_partition<T: Scalar>(
        &self,
        frame: usize,
        partition: usize,
    ) -> Result<Field3<T>, CodecError> {
        self.container(frame, partition)?.decode_field::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecId;
    use gridlab::Dim3;

    fn lcg_field(dims: Dim3, seed: u64, amp: f32) -> Field3<f32> {
        let mut state = seed;
        Field3::from_fn(dims, |_, _, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * amp
        })
    }

    fn sample_frames(frames: usize) -> (Decomposition, Vec<Vec<Container>>, Vec<Field3<f32>>) {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let mut out = Vec::new();
        let mut fields = Vec::new();
        for frame in 0..frames as u64 {
            let field = lcg_field(Dim3::cube(8), 97 + frame, 110.0 + 30.0 * frame as f32);
            let containers: Vec<Container> = dec
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let brick = field.extract(p.origin, p.dims);
                    let codec = if i % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
                    Container::compress(codec, brick.as_slice(), brick.dims(), 0.25)
                })
                .collect();
            out.push(containers);
            fields.push(field);
        }
        (dec, out, fields)
    }

    /// A finished v2 stream built in memory through the writer.
    fn v2_bytes(partitions: usize, frames: &[Vec<Container>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w =
            StreamFileWriter::create_in(Cursor::new(&mut bytes), partitions, SyncPolicy::Flush)
                .unwrap();
        for f in frames {
            w.append_frame(f).unwrap();
        }
        w.finish().unwrap();
        bytes
    }

    fn reader(bytes: &[u8]) -> Result<StreamFileReader<Cursor<&[u8]>>, CodecError> {
        StreamFileReader::from_source(Cursor::new(bytes))
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("codec_core_{}_{tag}.strm", std::process::id()))
    }

    #[test]
    fn file_writer_matches_in_memory_encoding_and_reads_back() {
        let (dec, frames, fields) = sample_frames(3);
        let path = temp_path("roundtrip");
        let mut w = StreamFileWriter::create(&path, dec.num_partitions()).unwrap();
        for f in &frames {
            w.append_frame(f).unwrap();
        }
        assert_eq!(w.frames(), 3);
        let total = w.finish().unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, total);
        assert_eq!(on_disk, v2_bytes(dec.num_partitions(), &frames));

        let r = StreamFileReader::open(&path).unwrap();
        assert_eq!(r.frames(), 3);
        assert_eq!(r.partitions(), 8);
        for (f, field) in fields.iter().enumerate() {
            let recon: Field3<f32> = r.reconstruct_frame(f, &dec).unwrap();
            assert!(field.max_abs_diff(&recon) <= 0.25 + 1e-9);
        }
        // Random access matches the direct container bytes.
        let direct = r.container_bytes(2, 5).unwrap();
        assert_eq!(direct, frames[2][5].as_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_file_recovers_to_the_surviving_prefix_and_appends() {
        let (dec, frames, _) = sample_frames(3);
        let p = dec.num_partitions();
        let path = temp_path("recover");
        let mut w = StreamFileWriter::create(&path, p).unwrap();
        for f in &frames {
            w.append_frame(f).unwrap();
        }
        drop(w); // crash: no trailer was ever written
                 // Tear the last frame's footer.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();

        let (mut w, report) = StreamFileWriter::recover(&path).unwrap();
        assert_eq!(report.frames_kept, 2);
        assert_eq!(report.partitions, p);
        assert!(report.bytes_dropped > 0);
        // Re-append the lost frame; the result is byte-identical to an
        // uninterrupted write.
        w.append_frame(&frames[2]).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), v2_bytes(p, &frames));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_bytes_equals_fresh_write_at_every_truncation() {
        let (dec, frames, _) = sample_frames(2);
        let p = dec.num_partitions();
        let full = v2_bytes(p, &frames);
        let frame0_end = {
            let one = v2_bytes(p, &frames[..1]);
            one.len() - trailer_len(1)
        };
        for cut in [
            FILE_HEADER_LEN,             // nothing written yet
            FILE_HEADER_LEN + 10,        // mid first container
            frame0_end - 3,              // mid first footer
            frame0_end,                  // clean frame boundary
            frame0_end + 40,             // mid second frame
            full.len() - trailer_len(2), // both frames, no trailer
        ] {
            let (rec, report) = recover_stream(&full[..cut]).unwrap();
            let kept = report.frames_kept;
            assert_eq!(rec, v2_bytes(p, &frames[..kept]), "cut at {cut}");
            let r = reader(&rec).unwrap();
            assert_eq!(r.frames(), kept);
        }
        // Recovery of a finished stream is the identity.
        let (rec, report) = recover_stream(&full).unwrap();
        assert_eq!(rec, full);
        assert_eq!(report.frames_kept, 2);
        assert_eq!(report.bytes_dropped, trailer_len(2) as u64);
    }

    #[test]
    fn recovery_without_a_surviving_header_is_a_typed_error() {
        let (dec, frames, _) = sample_frames(1);
        let full = v2_bytes(dec.num_partitions(), &frames);
        assert!(recover_stream(&full[..7]).is_err());
        let mut bad = full.clone();
        bad[0] = b'X';
        assert!(recover_stream(&bad).is_err());
        let mut bad = full;
        bad[4] = LEGACY_VERSION; // v1 streams are read-only: nothing to recover
        assert!(recover_stream(&bad).is_err());
    }

    #[test]
    fn reader_rejects_crashed_and_corrupt_streams() {
        let (dec, frames, _) = sample_frames(2);
        let full = v2_bytes(dec.num_partitions(), &frames);
        // No trailer: the reader refuses (recover first).
        let torn = &full[..full.len() - trailer_len(2)];
        assert!(reader(torn).is_err());
        // Flipped trailer byte: checksum catches it.
        let mut bad = full.clone();
        let tstart = full.len() - trailer_len(2);
        bad[tstart + 9] ^= 0x04;
        let err = reader(&bad).expect_err("trailer corrupt");
        assert!(
            err.to_string().contains("checksum") || err.to_string().contains("footer"),
            "{err}"
        );
        // Flipped footer byte inside the data region: the lazy open
        // succeeds (footers are validated per access), but touching the
        // poisoned frame — or the eager walk — fails.
        let mut bad = full.clone();
        let footer0 = {
            let one = v2_bytes(dec.num_partitions(), &frames[..1]);
            one.len() - trailer_len(1) - footer_len(8)
        };
        bad[footer0 + 5] ^= 0x01;
        let r = reader(&bad).expect("open is lazy");
        assert!(r.container(0, 0).is_err());
        assert!(r.validate_all().is_err());
        // Out-of-range access on a healthy stream.
        let r = reader(&full).unwrap();
        assert!(r.container(2, 0).is_err());
        assert!(r.container(0, 8).is_err());
    }

    #[test]
    fn sync_policies_change_durability_not_bytes() {
        let (dec, frames, _) = sample_frames(2);
        let p = dec.num_partitions();
        let expected = v2_bytes(p, &frames);
        for sync in [SyncPolicy::Flush, SyncPolicy::SyncPerFrame, SyncPolicy::SyncOnFinish] {
            let path = temp_path(&format!("sync_{sync:?}"));
            let mut w = StreamFileWriter::create_with(&path, p, sync).unwrap();
            assert_eq!(w.sync_policy(), sync);
            w.append_frame(&frames[0]).unwrap();
            w.append_frame(&frames[1]).unwrap();
            w.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{sync:?}");
            // Recovery under the same policy appends identically.
            std::fs::write(&path, &expected[..expected.len() - trailer_len(2) - 1]).unwrap();
            let (mut w, report) = StreamFileWriter::recover_with(&path, sync).unwrap();
            assert_eq!(report.frames_kept, 1);
            assert_eq!(w.sync_policy(), sync);
            w.append_frame(&frames[1]).unwrap();
            w.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{sync:?} after recover");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn default_sync_policy_is_flush() {
        assert_eq!(SyncPolicy::default(), SyncPolicy::Flush);
    }

    #[test]
    fn zero_partition_stream_is_a_typed_error_not_a_panic() {
        let path = temp_path("zero_p");
        let err = StreamFileWriter::create(&path, 0).expect_err("zero partitions");
        assert!(matches!(err, CodecError::Format(_)), "{err}");
        assert!(!path.exists(), "no file may be created for a rejected stream");
    }

    #[test]
    fn read_container_into_reuses_one_scratch_buffer() {
        let (dec, frames, _) = sample_frames(2);
        let full = v2_bytes(dec.num_partitions(), &frames);
        let r = reader(&full).unwrap();
        let mut buf = Vec::new();
        for (f, frame) in frames.iter().enumerate() {
            for (p, c) in frame.iter().enumerate() {
                r.read_container_into(f, p, &mut buf).unwrap();
                assert_eq!(buf, c.as_bytes());
                assert_eq!(buf, r.container_bytes(f, p).unwrap());
            }
        }
        assert!(r.read_container_into(2, 0, &mut buf).is_err());
    }

    #[test]
    fn manifest_window_changes_residency_not_results() {
        let (dec, frames, _) = sample_frames(3);
        let full = v2_bytes(dec.num_partitions(), &frames);
        // A one-frame window forces eviction on every frame switch; reads
        // must still validate and match a full-window reader.
        let tight = StreamFileReader::from_source_with(Cursor::new(&full[..]), 1).unwrap();
        let wide = reader(&full).unwrap();
        for f in (0..3).chain((0..3).rev()) {
            for p in 0..dec.num_partitions() {
                assert_eq!(
                    tight.container_bytes(f, p).unwrap(),
                    wide.container_bytes(f, p).unwrap()
                );
            }
        }
        tight.validate_all().unwrap();
    }

    /// Re-compress one frame's containers the way a compaction step does,
    /// for byte-canonical expectations.
    fn recompress(frame: &[Container], eb: f64) -> Vec<Container> {
        frame
            .iter()
            .map(|c| {
                let brick = c.decode_field::<f32>().unwrap();
                Container::compress(c.codec(), brick.as_slice(), brick.dims(), eb)
            })
            .collect()
    }

    #[test]
    fn compaction_retiers_cold_frames_and_appends_continue() {
        let (dec, frames, fields) = sample_frames(5);
        let p = dec.num_partitions();
        let path = temp_path("compact");
        let mut w = StreamFileWriter::create(&path, p).unwrap();
        for f in &frames[..4] {
            w.append_frame(f).unwrap();
        }
        let report = w.compact::<f32>(CompactionConfig::new(2, 1.0)).unwrap().expect("2 eligible");
        assert_eq!(report.frames_compacted, 2);
        assert_eq!(report.cold_frames, 2);
        assert_eq!(w.cold_frames(), 2);
        assert_eq!(report.bytes_after, w.cursor);
        // Appends after compaction stay hot and keep working.
        w.append_frame(&frames[4]).unwrap();
        let total = w.finish().unwrap();
        // Byte-canonical: the on-disk file equals the in-memory tiered
        // encoder over independently re-compressed cold frames.
        let cold: Vec<Vec<Container>> = frames[..2].iter().map(|f| recompress(f, 1.0)).collect();
        let expected = stream_file_bytes_tiered(p, &cold, &frames[2..]).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, total);
        assert_eq!(on_disk, expected);
        assert_eq!(on_disk[4], STREAM_FILE_TIERED_VERSION);
        assert_eq!(&on_disk[12..16], &2u32.to_le_bytes());
        // Reads back: cold frames within the relaxed bound, hot frames at
        // the original bound.
        let r = StreamFileReader::open(&path).unwrap();
        assert_eq!((r.frames(), r.cold_frames()), (5, 2));
        r.validate_all().unwrap();
        for (f, field) in fields.iter().enumerate() {
            let recon: Field3<f32> = r.reconstruct_frame(f, &dec).unwrap();
            let bound = if f < 2 { 0.25 + 1.0 } else { 0.25 };
            assert!(field.max_abs_diff(&recon) <= bound + 1e-6, "frame {f}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_a_noop_below_the_horizon_and_idempotent() {
        let (dec, frames, _) = sample_frames(4);
        let p = dec.num_partitions();
        let path = temp_path("compact_noop");
        let mut w = StreamFileWriter::create(&path, p).unwrap();
        for f in &frames[..3] {
            w.append_frame(f).unwrap();
        }
        // Horizon covers every frame: nothing is cold.
        assert!(w.compact::<f32>(CompactionConfig::new(3, 1.0)).unwrap().is_none());
        // Compact, then compact again at the same horizon: the second run
        // finds nothing new.
        assert!(w.compact::<f32>(CompactionConfig::new(1, 1.0)).unwrap().is_some());
        assert_eq!(w.cold_frames(), 2);
        assert!(w.compact::<f32>(CompactionConfig::new(1, 1.0)).unwrap().is_none());
        // Invalid bound is a typed error.
        assert!(w.compact::<f32>(CompactionConfig::new(0, f64::NAN)).is_err());
        // Once another frame ages past the horizon, the next run copies the
        // cold prefix verbatim and re-tiers only the newly aged frame.
        w.append_frame(&frames[3]).unwrap();
        let report = w.compact::<f32>(CompactionConfig::new(1, 1.0)).unwrap().expect("frame 2");
        assert_eq!((report.frames_compacted, report.cold_frames), (1, 3));
        w.finish().unwrap();
        let cold: Vec<Vec<Container>> = frames[..3].iter().map(|f| recompress(f, 1.0)).collect();
        let expected = stream_file_bytes_tiered(p, &cold, &frames[3..]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn abandoned_compaction_leaves_the_stream_untouched() {
        let (dec, frames, _) = sample_frames(3);
        let p = dec.num_partitions();
        let path = temp_path("compact_abort");
        let mut w = StreamFileWriter::create(&path, p).unwrap();
        for f in &frames {
            w.append_frame(f).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let mut task = CompactionTask::begin(&w, CompactionConfig::new(1, 1.0)).unwrap().unwrap();
        assert_eq!(task.remaining(), 2);
        task.step::<f32>().unwrap();
        assert!(!task.is_done());
        let tmp_path = {
            let mut os = path.clone().into_os_string();
            os.push(".compact");
            PathBuf::from(os)
        };
        assert!(tmp_path.exists());
        drop(task); // crash/shutdown mid-run
        assert!(!tmp_path.exists(), "abandoned temp file must be removed");
        assert_eq!(std::fs::read(&path).unwrap(), before, "original stream untouched");
        // The stream still compacts fine afterwards.
        assert!(w.compact::<f32>(CompactionConfig::new(1, 1.0)).unwrap().is_some());
        w.finish().unwrap();
        StreamFileReader::open(&path).unwrap().validate_all().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiered_recovery_equals_fresh_tiered_write_at_every_truncation() {
        let (dec, frames, _) = sample_frames(4);
        let p = dec.num_partitions();
        let cold: Vec<Vec<Container>> = frames[..2].iter().map(|f| recompress(f, 1.0)).collect();
        let hot: Vec<Vec<Container>> = frames[2..].to_vec();
        let full = stream_file_bytes_tiered(p, &cold, &hot).unwrap();
        // End of the data region once `k` frames survive.
        let prefix_len = |k: usize| {
            let ck = k.min(2);
            stream_file_bytes_tiered(p, &cold[..ck], &hot[..k - ck]).unwrap().len() - trailer_len(k)
        };
        for cut in [
            FILE_HEADER_LEN,
            FILE_HEADER_LEN + 9,         // mid first cold container
            prefix_len(1) - 3,           // mid first cold footer
            prefix_len(1),               // after one cold frame
            prefix_len(2) - 1,           // mid second cold footer
            prefix_len(2),               // whole cold tier
            prefix_len(3) - 5,           // mid first hot frame
            prefix_len(3),               // cold tier + one hot frame
            full.len() - trailer_len(4), // all frames, no trailer
        ] {
            let (rec, report) = recover_stream(&full[..cut]).unwrap();
            let k = report.frames_kept;
            let ck = k.min(2);
            // Recovered bytes ≡ a fresh tiered write of the survivors —
            // including the patched cold count when the cut reached into
            // the cold tier.
            assert_eq!(
                rec,
                stream_file_bytes_tiered(p, &cold[..ck], &hot[..k - ck]).unwrap(),
                "cut {cut}"
            );
            let r = reader(&rec).unwrap();
            assert_eq!((r.frames(), r.cold_frames()), (k, ck), "cut {cut}");
            r.validate_all().unwrap();
        }
        // Identity on the finished tiered stream.
        let (rec, report) = recover_stream(&full).unwrap();
        assert_eq!(rec, full);
        assert_eq!(report.frames_kept, 4);

        // The on-disk variant patches the header in place and appends on.
        let path = temp_path("tiered_recover");
        std::fs::write(&path, &full[..prefix_len(1) + 5]).unwrap();
        let (mut w, report) = StreamFileWriter::recover(&path).unwrap();
        assert_eq!(report.frames_kept, 1);
        assert_eq!(w.cold_frames(), 1);
        w.append_frame(&hot[0]).unwrap();
        w.finish().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            stream_file_bytes_tiered(p, &cold[..1], &hot[..1]).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_stream_file_retiers_a_finished_stream_in_place() {
        let (dec, frames, _) = sample_frames(3);
        let p = dec.num_partitions();
        let path = temp_path("compact_finished");
        let mut w = StreamFileWriter::create(&path, p).unwrap();
        for f in &frames {
            w.append_frame(f).unwrap();
        }
        w.finish().unwrap();
        let report = compact_stream_file::<f32>(&path, CompactionConfig::new(1, 0.75))
            .unwrap()
            .expect("2 eligible");
        assert_eq!(report.frames_compacted, 2);
        let cold: Vec<Vec<Container>> = frames[..2].iter().map(|f| recompress(f, 0.75)).collect();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            stream_file_bytes_tiered(p, &cold, &frames[2..]).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_stream_finishes_and_reads_back() {
        let path = temp_path("empty");
        let w = StreamFileWriter::create(&path, 4).unwrap();
        w.finish().unwrap();
        let r = StreamFileReader::open(&path).unwrap();
        assert_eq!(r.frames(), 0);
        assert_eq!(r.partitions(), 4);
        assert!(r.container(0, 0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_wrong_partition_count() {
        let (_, frames, _) = sample_frames(1);
        let mut bytes = Vec::new();
        let mut w =
            StreamFileWriter::create_in(Cursor::new(&mut bytes), 3, SyncPolicy::Flush).unwrap();
        let err = w.append_frame(&frames[0]).expect_err("8 containers into a 3-wide stream");
        assert!(matches!(err, CodecError::Format(_)), "{err}");
        assert_eq!(w.frames(), 0);
        // Nothing was written: the next well-formed frame lands as frame 0.
        w.append_frame(&frames[0][..3]).unwrap();
        w.finish().unwrap();
        assert_eq!(bytes, v2_bytes(3, &[frames[0][..3].to_vec()]));
    }

    #[test]
    fn hostile_partition_count_is_a_typed_result_on_both_recovery_paths() {
        // A 16-byte header declaring 2³²−1 partitions: recovery must not
        // reserve memory from the declared count.
        let header = encode_header(u32::MAX as usize, None);
        let (rec, report) = recover_stream(&header).expect("an empty stream recovers");
        assert_eq!((report.partitions, report.frames_kept), (u32::MAX as usize, 0));
        assert_eq!(rec.len(), FILE_HEADER_LEN + trailer_len(0));
        let path = temp_path("hostile_header");
        std::fs::write(&path, header).unwrap();
        let (w, report) = StreamFileWriter::recover(&path).expect("an empty stream recovers");
        assert_eq!((w.frames(), report.bytes_dropped), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    /// `STRM` v1 is read-only; the golden fixture and the fault-injection
    /// matrix cover real streams, these hand-built manifests the edges.
    mod v1 {
        use super::*;

        fn v1_stream(partitions: u32, frames: u32, table: &[u64]) -> Vec<u8> {
            let table: Vec<u8> = table.iter().flat_map(|o| o.to_le_bytes()).collect();
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&[LEGACY_VERSION, 0, 0, 0]);
            b.extend_from_slice(&partitions.to_le_bytes());
            b.extend_from_slice(&frames.to_le_bytes());
            b.extend_from_slice(&fnv1a64(&table).to_le_bytes());
            b.extend_from_slice(&table);
            b
        }

        #[test]
        fn huge_declared_counts_are_rejected_not_panicked_on() {
            // A frames × partitions table whose byte size overflows must
            // fail the parse (truncated table), not wrap around, sneak past
            // the size check, and panic on first access.
            let b = v1_stream(0x8000_0000, 0x8000_0000, &[0]);
            let err = reader(&b).expect_err("oversized table rejected");
            assert!(err.to_string().contains("truncated"), "{err}");
        }

        #[test]
        fn empty_stream_has_valid_manifest() {
            let b = v1_stream(4, 0, &[LEGACY_HEADER_LEN + 8]);
            let r = reader(&b).expect("parses");
            assert_eq!((r.frames(), r.partitions(), r.cold_frames()), (0, 4, 0));
            assert!(r.container(0, 0).is_err());
            r.validate_all().unwrap();
        }

        #[test]
        fn a_checksummed_but_disordered_table_fails_on_access() {
            // First and last entries pass the open-time checks; the lazy
            // per-frame checks catch the rest.
            let b = v1_stream(1, 2, &[48, 60, 48]);
            let r = reader(&b).expect("open checks only the table's ends");
            assert!(r.container(0, 0).unwrap_err().to_string().contains("past end"));
            assert!(r.container(1, 0).unwrap_err().to_string().contains("monotone"));
        }
    }
}
