//! Durable-format compatibility: golden fixtures pin the `STRM` v2
//! stream-file layout, the `STRM` v3 tiered layout a compaction
//! publishes, and the `CKPT` v1 session-checkpoint blob, so on-disk
//! series and checkpoints written today stay readable (and recoverable)
//! forever — any drift must be a conscious, versioned change.
//!
//! Regenerated (never casually!) by
//! `cargo run --release -p bench --bin diag_strm_file_fixture`,
//! `cargo run --release -p bench --bin diag_strm_v3_fixture` and
//! `cargo run --release -p bench --bin diag_ckpt_fixture`.

use adaptive_config::ratio_model::{CodecModelBank, RatioModel};
use adaptive_config::session::{
    QualityPolicy, SessionCheckpoint, SessionConfig, StreamSession, CHECKPOINT_VERSION,
};
use codec_core::{
    compact_stream_file, fnv1a64, footer_len, recover_stream, trailer_len, CodecId,
    CompactionConfig, Container, StreamFileReader, StreamFileWriter, SyncPolicy,
    STREAM_FILE_TIERED_VERSION, STREAM_FILE_VERSION,
};
use gridlab::{Decomposition, Dim3, Field3};
use std::io::Cursor;

const FIXTURE_EB: f64 = 0.25;

fn fixture_path(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

// --- STRM v2 stream file ------------------------------------------------

/// Must match `diag_strm_file_fixture`.
fn strm_fixture_field(frame: u64) -> Field3<f32> {
    let mut state = 0xD0C5ED ^ (frame << 32);
    Field3::from_fn(Dim3::cube(16), |_, _, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * (140.0 + 20.0 * frame as f32)
    })
}

fn strm_fixture_dec() -> Decomposition {
    Decomposition::cubic(16, 2).expect("2 divides 16")
}

/// Must match `diag_strm_file_fixture`.
fn strm_fixture_frames() -> Vec<Vec<Container>> {
    let dec = strm_fixture_dec();
    (0..2u64)
        .map(|frame| {
            let field = strm_fixture_field(frame);
            dec.iter()
                .enumerate()
                .map(|(i, p)| {
                    let brick = field.extract(p.origin, p.dims);
                    let codec = if i % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
                    Container::compress(codec, brick.as_slice(), brick.dims(), FIXTURE_EB)
                })
                .collect()
        })
        .collect()
}

/// Must match `diag_strm_file_fixture`: a fresh in-memory write of `frames`.
fn fresh_write(frames: &[Vec<Container>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = StreamFileWriter::create_in(Cursor::new(&mut bytes), 8, SyncPolicy::Flush)
        .expect("in-memory stream");
    for frame in frames {
        w.append_frame(frame).expect("append frame");
    }
    w.finish().expect("finish stream");
    bytes
}

fn strm_fixture_bytes() -> Vec<u8> {
    std::fs::read(fixture_path("strm_v2_file_2x8.bin"))
        .expect("golden fixture present in tests/fixtures/")
}

#[test]
fn golden_stream_file_layout_is_pinned() {
    let bytes = strm_fixture_bytes();
    // Header promises (see codec_core::stream_file docs).
    assert_eq!(&bytes[..4], b"STRM");
    assert_eq!(bytes[4], STREAM_FILE_VERSION);
    assert_eq!(&bytes[5..8], &[0, 0, 0]);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 8, "partitions");
    assert_eq!(&bytes[12..16], &[0, 0, 0, 0]);
    // The last 8 bytes point at the trailer; the trailer declares 2 frames.
    let tstart = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
    assert!(tstart < bytes.len());
    assert_eq!(&bytes[tstart..tstart + 4], b"TLR2");
    assert_eq!(u32::from_le_bytes(bytes[tstart + 4..tstart + 8].try_into().unwrap()), 2, "frames");
    // Trailer size: magic + count + 2 footer offsets + fnv + back-pointer.
    assert_eq!(bytes.len() - tstart, trailer_len(2));
    assert_eq!(trailer_len(2), 4 + 4 + 16 + 8 + 8, "trailer arithmetic is part of the promise");
    // Footer size: magic + index + 9 offsets + fnv.
    assert_eq!(footer_len(8), 4 + 4 + 72 + 8, "footer arithmetic is part of the promise");
}

#[test]
fn golden_stream_file_still_decodes_with_random_access() {
    let r =
        StreamFileReader::open(fixture_path("strm_v2_file_2x8.bin")).expect("stream recognised");
    assert_eq!(r.frames(), 2);
    assert_eq!(r.partitions(), 8);
    let dec = strm_fixture_dec();
    for frame in 0..2u64 {
        let field = strm_fixture_field(frame);
        let recon: Field3<f32> = r.reconstruct_frame(frame as usize, &dec).expect("decodes");
        let err = field.max_abs_diff(&recon);
        assert!(err <= FIXTURE_EB * (1.0 + 1e-9), "frame {frame}: bound violated: {err}");
    }
    // The codec mix is part of the promise: even partitions rsz, odd zfp.
    for p in 0..8 {
        let c = r.container(1, p).expect("parses");
        let expect = if p % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
        assert_eq!(c.codec(), expect, "partition {p}");
    }
    // Random access matches the sequential decode.
    let whole: Field3<f32> = r.reconstruct_frame(1, &dec).unwrap();
    let part = dec.partition(5).unwrap();
    let direct: Field3<f32> = r.reconstruct_partition(1, 5).unwrap();
    assert_eq!(direct.as_slice(), whole.extract(part.origin, part.dims).as_slice());
}

#[test]
fn stream_file_format_is_byte_stable() {
    let golden = strm_fixture_bytes();
    let now = fresh_write(&strm_fixture_frames());
    assert_eq!(
        fnv1a64(&now),
        fnv1a64(&golden),
        "stream-file bytes drifted from the golden STRM v2 fixture"
    );
    assert_eq!(now, golden);
}

#[test]
fn golden_stream_file_recovers_as_the_identity_and_truncated() {
    let golden = strm_fixture_bytes();
    // Recovery of the intact fixture reproduces it byte-for-byte.
    let (rec, report) = recover_stream(&golden).expect("recovers");
    assert_eq!(rec, golden);
    assert_eq!(report.frames_kept, 2);
    // Chopping into frame 1 recovers exactly the 1-frame fresh write.
    let one_frame = fresh_write(&strm_fixture_frames()[..1]);
    let cut = one_frame.len() - trailer_len(1) + 100; // past frame 0's footer
    let (rec, report) = recover_stream(&golden[..cut]).expect("recovers");
    assert_eq!(report.frames_kept, 1);
    assert_eq!(rec, one_frame);
}

// --- STRM v3 tiered stream file ----------------------------------------

/// Must match `diag_strm_v3_fixture`: the bound frame 0 is re-tiered at.
const V3_COLD_EB: f64 = 2.0;

/// Must match `diag_strm_v3_fixture`: the v2 fixture series appended to a
/// durable file, finished, then compacted in place with horizon 1.
fn strm_v3_fixture_stream() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("durable_compat_v3_{}.strm", std::process::id()));
    let mut w = StreamFileWriter::create(&path, 8).expect("create stream");
    for frame in strm_fixture_frames() {
        w.append_frame(&frame).expect("append frame");
    }
    w.finish().expect("finish stream");
    compact_stream_file::<f32>(&path, CompactionConfig::new(1, V3_COLD_EB))
        .expect("compaction runs")
        .expect("frame 0 is past the horizon");
    let bytes = std::fs::read(&path).expect("read compacted stream");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn golden_tiered_stream_file_is_pinned_decodes_and_recovers_unchanged() {
    let golden = std::fs::read(fixture_path("strm_v3_tiered_2x8.bin"))
        .expect("golden fixture present in tests/fixtures/");
    // Layout: v3 header with one cold frame, FTR3 footer on frame 0, FTR2
    // on frame 1, and a 2-frame trailer behind the back-pointer.
    assert_eq!(&golden[..4], b"STRM");
    assert_eq!(golden[4], STREAM_FILE_TIERED_VERSION);
    assert_eq!(&golden[5..8], &[0, 0, 0]);
    assert_eq!(u32::from_le_bytes(golden[8..12].try_into().unwrap()), 8, "partitions");
    assert_eq!(u32::from_le_bytes(golden[12..16].try_into().unwrap()), 1, "cold frames");
    let tstart = u64::from_le_bytes(golden[golden.len() - 8..].try_into().unwrap()) as usize;
    assert_eq!(&golden[tstart..tstart + 4], b"TLR2");
    assert_eq!(u32::from_le_bytes(golden[tstart + 4..tstart + 8].try_into().unwrap()), 2);
    assert_eq!(golden.len() - tstart, trailer_len(2));
    for (frame, magic) in [(0usize, b"FTR3"), (1, b"FTR2")] {
        let at = tstart + 8 + 8 * frame;
        let fo = u64::from_le_bytes(golden[at..at + 8].try_into().unwrap()) as usize;
        assert_eq!(&golden[fo..fo + 4], magic, "frame {frame} footer magic");
        let index = u32::from_le_bytes(golden[fo + 4..fo + 8].try_into().unwrap());
        assert_eq!(index as usize, frame, "frame {frame} footer index");
    }
    let last_footer = u64::from_le_bytes(golden[tstart + 16..tstart + 24].try_into().unwrap());
    assert_eq!(last_footer as usize + footer_len(8), tstart, "frames end at the trailer");

    // Decodes within bound: the cold frame within the write bound plus the
    // relaxed re-tiering bound, the hot frame at the write bound, and the
    // codec mix survives re-tiering.
    let r = StreamFileReader::from_source(Cursor::new(&golden[..])).expect("stream recognised");
    assert_eq!((r.frames(), r.partitions(), r.cold_frames()), (2, 8, 1));
    r.validate_all().expect("every footer verifies");
    let dec = strm_fixture_dec();
    for frame in 0..2u64 {
        let field = strm_fixture_field(frame);
        let recon: Field3<f32> = r.reconstruct_frame(frame as usize, &dec).expect("decodes");
        let bound = if frame == 0 { FIXTURE_EB + V3_COLD_EB } else { FIXTURE_EB };
        let err = field.max_abs_diff(&recon);
        assert!(err <= bound * (1.0 + 1e-9), "frame {frame}: bound {bound} violated: {err}");
        for p in 0..8 {
            let expect = if p % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
            assert_eq!(r.container(frame as usize, p).unwrap().codec(), expect, "({frame}, {p})");
        }
    }

    // Recovery of the intact fixture returns it unchanged.
    let (rec, report) = recover_stream(&golden).expect("recovers");
    assert_eq!(report.frames_kept, 2);
    assert_eq!(rec, golden);

    // And the production path still writes exactly these bytes.
    let now = strm_v3_fixture_stream();
    assert_eq!(fnv1a64(&now), fnv1a64(&golden), "tiered bytes drifted from the v3 fixture");
    assert_eq!(now, golden);
}

// --- CKPT session checkpoint --------------------------------------------

/// Must match `diag_ckpt_fixture`.
fn ckpt_fixture_checkpoint() -> SessionCheckpoint {
    let dec = Decomposition::cubic(16, 2).expect("2 divides 16");
    let config = SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.125))
        .with_codecs(&CodecId::ALL)
        .with_halo(88.0625, 10000.0);
    let bank = CodecModelBank::new(vec![
        (CodecId::Rsz, RatioModel { c: -0.6875, a0: 0.84375, a1: 0.21875 }),
        (CodecId::Zfp, RatioModel { c: -0.40625, a0: 1.125, a1: 0.15625 }),
    ]);
    SessionCheckpoint {
        config,
        bank: Some(bank),
        clamp_factor: 4.0,
        snapshots: 3,
        full_calibrations: 1,
        refreshes: 1,
        last_drift: 0.25,
    }
}

fn ckpt_fixture_bytes() -> Vec<u8> {
    std::fs::read(fixture_path("ckpt_v2_session.bin"))
        .expect("golden fixture present in tests/fixtures/")
}

#[test]
fn golden_checkpoint_layout_is_pinned() {
    let bytes = ckpt_fixture_bytes();
    assert_eq!(&bytes[..4], b"CKPT");
    assert_eq!(bytes[4], CHECKPOINT_VERSION);
    assert_eq!(&bytes[5..8], &[0, 0, 0]);
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), 24 + payload_len);
    let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(stored, fnv1a64(&bytes[24..]), "stored payload checksum verifies");
}

#[test]
fn checkpoint_format_is_byte_stable() {
    let golden = ckpt_fixture_bytes();
    let now = ckpt_fixture_checkpoint().to_bytes();
    assert_eq!(
        fnv1a64(&now),
        fnv1a64(&golden),
        "checkpoint bytes drifted from the golden CKPT fixture"
    );
    assert_eq!(now, golden);
}

#[test]
fn golden_checkpoint_still_restores() {
    let bytes = ckpt_fixture_bytes();
    let parsed = SessionCheckpoint::from_bytes(&bytes).expect("checkpoint recognised");
    assert_eq!(parsed, ckpt_fixture_checkpoint());
    let session = StreamSession::restore(&bytes).expect("restores");
    assert_eq!(session.snapshots(), 3);
    assert_eq!(session.full_calibrations(), 1);
    assert_eq!(session.refreshes(), 1);
    let bank = session.models().expect("bank restored");
    assert_eq!(bank.primary().0, CodecId::Rsz);
    let zfp = bank.get(CodecId::Zfp).expect("zfp model restored");
    assert_eq!(zfp.c, -0.40625, "floats survive the round trip bit-exactly");
}
