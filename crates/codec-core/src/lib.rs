//! # codec-core — the multi-codec backend abstraction
//!
//! The paper's adaptive-configuration idea is codec-agnostic: pick, per
//! partition, the compressor *configuration* that meets a global quality
//! target at the best ratio. This crate opens the pipeline's codec
//! dimension: the [`LossyCodec`] trait is the error-bounded contract every
//! backend implements, [`RszCodec`]/[`ZfpCodec`] adapt the two in-tree
//! compressors (SZ-style prediction+quantisation and ZFP-style block
//! transform), and [`Container`] is the versioned per-partition wire format
//! that tags each payload with its codec so mixed-codec snapshots decode
//! without out-of-band metadata.
//!
//! ## The `LossyCodec` contract
//!
//! * `compress_slice_with(values, dims, eb, scratch)` encodes a partition
//!   brick (row-major, z fastest) under the **absolute** error bound `eb`
//!   and returns a self-describing byte payload. Compression is total.
//! * `decompress_slice_with(bytes, scratch)` inverts it exactly: same
//!   values a serial reference walk would produce, independent of thread
//!   count or call history (the pipeline's byte-determinism contract
//!   builds on this).
//! * The bound semantics are advertised by [`CodecCaps`]:
//!   [`CodecCaps::bound_guaranteed`] backends (rsz) honour `|x′ − x| ≤ eb`
//!   point-wise by construction for every finite input; best-effort
//!   backends (zfplite accuracy mode) verify the bound per block and only
//!   fall short below their fixed-point noise floor (`eb ≲ 2^(e_block−44)`)
//!   or on non-finite inputs — see each adapter's docs.
//! * Implementations must be deterministic: identical `(values, dims, eb)`
//!   must produce identical bytes regardless of scratch reuse.
//! * Non-finite input is **quarantined, never an error** at this layer:
//!   [`CodecCaps::preserves_non_finite`] backends (rsz) store NaN/∞ cells
//!   verbatim and return them bit-exactly; others (zfplite accuracy mode)
//!   store the containing 4³ block empty and decode it as zeros. Callers
//!   that must refuse poisoned fields screen upstream — the streaming
//!   session's ingestion check turns them into a typed error before any
//!   codec runs.
//!
//! Scratch buffers ([`CodecScratch`]) bundle every backend's reusable
//! working memory; [`with_scratch`] hands out a thread-local instance so a
//! per-partition parallel loop performs no allocation beyond the output
//! containers, whichever codec each partition picked.
//!
//! ## Container format (v2)
//!
//! See [`container`] for the byte-level layout. In short: a 22-byte wrapper
//! (`magic "ACC2" | version | codec tag | FNV-1a-64 payload checksum |
//! payload length`) around the codec's own container. Version 1 containers
//! — bare `rsz` `RSZ1` bytes, the only format earlier pipeline revisions
//! emitted — are still recognised by [`Container::from_bytes`] and decode
//! through the same API.
//!
//! ## Stream containers
//!
//! [`stream_file`] frames a whole snapshot *series* as a `STRM` stream:
//! data-first/manifest-last, so frames append straight to disk as the
//! streaming session emits them ([`StreamFileWriter`]), and a per-frame
//! footer plus a trailer index make any (snapshot, partition) pair
//! decodable in O(1) without scanning prior frames. A crash loses at most
//! the in-flight frame ([`recover_stream`]/[`StreamFileWriter::recover`]
//! re-derive the valid prefix through one recovery routine), and
//! [`StreamFileReader`] serves random access from any `Read + Seek` source
//! without loading the payload region — or the manifest, which it
//! validates lazily through a bounded window so long streams never have
//! to fit in memory on any path. [`CompactionTask`] re-tiers frames older
//! than a horizon into the `STRM` v3 cold tier (re-compressed at a relaxed
//! bound, `FTR3`/quad-digest footers) behind an atomic rename. The writer
//! appends to any [`StreamStore`] — a file, or an in-memory buffer — and
//! the one reader also serves the manifest-first `STRM` v1 streams earlier
//! revisions wrote, read-only.

pub mod codec;
pub mod container;
mod obs;
pub mod stream_file;

pub use codec::{
    codec_counts, with_scratch, CodecCaps, CodecError, CodecId, CodecScratch, LossyCodec, RszCodec,
    ZfpCodec,
};
pub use container::{fnv1a64, fnv1a64_quad, fnv1a64_quad_scalar, Container, CONTAINER_VERSION};
pub use obs::{record_kernel_backends, KERNELS};
pub use stream_file::{
    compact_stream_file, footer_len, recover_stream, stream_file_bytes_tiered, trailer_len,
    CompactionConfig, CompactionReport, CompactionTask, FileSource, RecoveryReport,
    StreamFileReader, StreamFileWriter, StreamStore, SyncPolicy, DEFAULT_MANIFEST_WINDOW,
    STREAM_FILE_TIERED_VERSION, STREAM_FILE_VERSION,
};
