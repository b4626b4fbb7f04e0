//! Regenerate the tiered (`STRM` v3) stream-file golden fixture used by
//! the root `durable_compat` test.
//!
//! The fixture is the v2 fixture's 2-frame × 8-partition series (see
//! `diag_strm_file_fixture`) written through the production path: appended
//! frame by frame to a durable stream file, finished, then compacted in
//! place with horizon 1 at a relaxed bound. Frame 0 is therefore the cold
//! tier (re-compressed, `FTR3` footer) and frame 1 stays hot (`FTR2`), so
//! the fixture pins the v3 header's cold count, both footer kinds, the
//! trailer and both codec payload formats. If the fixture needs
//! re-rooting after a *deliberate* stream-file version bump, run:
//!
//! ```text
//! cargo run --release -p bench --bin diag_strm_v3_fixture
//! ```
//!
//! and commit the new bytes together with the rationale.

use codec_core::{compact_stream_file, CodecId, CompactionConfig, Container, StreamFileWriter};
use gridlab::{Decomposition, Dim3, Field3};

/// Must match `tests/durable_compat.rs`.
const COLD_EB: f64 = 2.0;

/// Must match `tests/durable_compat.rs` (the v2 fixture's field family).
fn fixture_field(frame: u64) -> Field3<f32> {
    let mut state = 0xD0C5ED ^ (frame << 32);
    Field3::from_fn(Dim3::cube(16), |_, _, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * (140.0 + 20.0 * frame as f32)
    })
}

/// Must match `tests/durable_compat.rs`.
fn fixture_stream(scratch: &std::path::Path) -> Vec<u8> {
    let dec = Decomposition::cubic(16, 2).expect("2 divides 16");
    let mut w = StreamFileWriter::create(scratch, dec.num_partitions()).expect("create stream");
    for frame in 0..2u64 {
        let field = fixture_field(frame);
        let containers: Vec<Container> = dec
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let brick = field.extract(p.origin, p.dims);
                let codec = if i % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
                Container::compress(codec, brick.as_slice(), brick.dims(), 0.25)
            })
            .collect();
        w.append_frame(&containers).expect("append frame");
    }
    w.finish().expect("finish stream");
    compact_stream_file::<f32>(scratch, CompactionConfig::new(1, COLD_EB))
        .expect("compaction runs")
        .expect("frame 0 is past the horizon");
    std::fs::read(scratch).expect("read compacted stream")
}

fn main() {
    let scratch =
        std::env::temp_dir().join(format!("diag_strm_v3_fixture_{}.strm", std::process::id()));
    let bytes = fixture_stream(&scratch);
    std::fs::remove_file(&scratch).ok();
    let path = std::path::Path::new("tests/fixtures/strm_v3_tiered_2x8.bin");
    std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir fixtures");
    std::fs::write(path, &bytes).expect("write fixture");
    println!(
        "wrote {} ({} bytes, fnv1a64 {:#018x})",
        path.display(),
        bytes.len(),
        codec_core::fnv1a64(&bytes)
    );
}
