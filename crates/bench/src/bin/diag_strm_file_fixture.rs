//! Regenerate the durable (`STRM` v2) stream-file golden fixture used by
//! the root `durable_compat` test.
//!
//! The fixture is a finished 2-frame × 8-partition durable stream over a
//! deterministic LCG field family (no RNG crate, stable across
//! toolchains), with even partitions compressed by `rsz` and odd ones by
//! `zfplite`, so it pins the v2 header/footer/trailer layout *and* both
//! codec payload formats. If the fixture needs re-rooting after a
//! *deliberate* stream-file version bump, run:
//!
//! ```text
//! cargo run --release -p bench --bin diag_strm_file_fixture
//! ```
//!
//! and commit the new bytes together with the rationale.

use codec_core::{CodecId, Container, StreamFileWriter, SyncPolicy};
use gridlab::{Decomposition, Dim3, Field3};

/// Must match `tests/durable_compat.rs`.
fn fixture_field(frame: u64) -> Field3<f32> {
    let mut state = 0xD0C5ED ^ (frame << 32);
    Field3::from_fn(Dim3::cube(16), |_, _, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * (140.0 + 20.0 * frame as f32)
    })
}

/// Must match `tests/durable_compat.rs`.
fn fixture_stream() -> Vec<u8> {
    let dec = Decomposition::cubic(16, 2).expect("2 divides 16");
    let mut bytes = Vec::new();
    let mut w = StreamFileWriter::create_in(
        std::io::Cursor::new(&mut bytes),
        dec.num_partitions(),
        SyncPolicy::Flush,
    )
    .expect("in-memory stream");
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
    bytes
}

fn main() {
    let bytes = fixture_stream();
    let path = std::path::Path::new("tests/fixtures/strm_v2_file_2x8.bin");
    std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir fixtures");
    std::fs::write(path, &bytes).expect("write fixture");
    println!(
        "wrote {} ({} bytes, fnv1a64 {:#018x})",
        path.display(),
        bytes.len(),
        codec_core::fnv1a64(&bytes)
    );
}
