//! `STRM` v1 compatibility: the golden fixture pins the manifest-first
//! layout (header, offset table) of a mixed-codec 2-frame stream, so
//! stored v1 series stay readable forever through the one stream reader.
//!
//! Nothing writes v1 any more, so the fixture is frozen: no regenerator
//! exists, and CI's `git diff --exit-code tests/fixtures` keeps its bytes.
//! Its containers must still equal what today's codecs emit for the same
//! bricks.

use codec_core::{CodecId, Container, StreamFileReader};
use gridlab::{Decomposition, Dim3, Field3};

const FIXTURE_EB: f64 = 0.25;

/// The field family the fixture was written from.
fn fixture_field(frame: u64) -> Field3<f32> {
    let mut state = 0xA11CE ^ (frame << 32);
    Field3::from_fn(Dim3::cube(16), |_, _, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * (150.0 + 25.0 * frame as f32)
    })
}

fn fixture_dec() -> Decomposition {
    Decomposition::cubic(16, 2).expect("2 divides 16")
}

const FIXTURE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/strm_v1_2x8.bin");

fn fixture_bytes() -> Vec<u8> {
    std::fs::read(FIXTURE_PATH).expect("golden fixture present in tests/fixtures/")
}

fn fixture_reader() -> StreamFileReader {
    StreamFileReader::open(FIXTURE_PATH).expect("v1 stream recognised")
}

#[test]
fn golden_strm_manifest_layout_is_pinned() {
    let bytes = fixture_bytes();
    // Byte-level header promises (see codec_core::stream_file docs).
    assert_eq!(&bytes[..4], b"STRM");
    assert_eq!(bytes[4], 1, "version");
    assert_eq!(&bytes[5..8], &[0, 0, 0]);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 8, "partitions");
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 2, "frames");
    // Offset table: 17 entries starting right after the 24-byte header,
    // first offset pointing at the payload region, last at EOF.
    let first = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    assert_eq!(first, 24 + 8 * 17);
    let last_entry = 24 + 8 * 16;
    let last = u64::from_le_bytes(bytes[last_entry..last_entry + 8].try_into().unwrap());
    assert_eq!(last, bytes.len() as u64);
}

#[test]
fn golden_strm_fixture_still_decodes() {
    let r = fixture_reader();
    assert_eq!(r.frames(), 2);
    assert_eq!(r.partitions(), 8);
    let dec = fixture_dec();
    for frame in 0..2u64 {
        let field = fixture_field(frame);
        let recon: Field3<f32> = r.reconstruct_frame(frame as usize, &dec).expect("decodes");
        let err = field.max_abs_diff(&recon);
        assert!(err <= FIXTURE_EB * (1.0 + 1e-9), "frame {frame}: bound violated: {err}");
    }
    // The codec mix is part of the promise: even partitions rsz, odd zfp.
    for p in 0..8 {
        let c = r.container(0, p).expect("parses");
        let expect = if p % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
        assert_eq!(c.codec(), expect, "partition {p}");
    }
}

#[test]
fn strm_format_is_byte_stable() {
    // Every container in the frozen stream must equal what today's codecs
    // emit for the same brick — any drift in the v2 wrapper or either
    // codec payload breaks every stored stream.
    let r = fixture_reader();
    let dec = fixture_dec();
    for frame in 0..2u64 {
        let field = fixture_field(frame);
        for (i, p) in dec.iter().enumerate() {
            let brick = field.extract(p.origin, p.dims);
            let codec = if i % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
            let now = Container::compress(codec, brick.as_slice(), brick.dims(), FIXTURE_EB);
            let golden = r.container_bytes(frame as usize, i).expect("reads");
            assert_eq!(now.as_bytes(), golden, "(frame {frame}, partition {i}) drifted");
        }
    }
}

#[test]
fn random_access_matches_sequential_decode_on_the_fixture() {
    let r = fixture_reader();
    let dec = fixture_dec();
    for frame in 0..2 {
        let whole: Field3<f32> = r.reconstruct_frame(frame, &dec).unwrap();
        for p in 0..8 {
            let direct: Field3<f32> = r.reconstruct_partition(frame, p).unwrap();
            let part = dec.partition(p).unwrap();
            assert_eq!(
                direct.as_slice(),
                whole.extract(part.origin, part.dims).as_slice(),
                "(frame {frame}, partition {p})"
            );
        }
    }
}
