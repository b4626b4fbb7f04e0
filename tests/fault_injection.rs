//! Fault-injection matrix over every on-disk format: `ACC2` partition
//! containers, `STRM` v1 (read-only) streams, `STRM` v2 durable stream
//! files, `STRM` v3 tiered (compacted) stream files, and `CKPT` session
//! checkpoints.
//!
//! Every blob is systematically **truncated at every byte boundary** (a
//! superset of the structural boundaries) and **bit-flipped at every
//! byte**. The contract for each corruption:
//!
//! * it surfaces as a typed error at parse or decode time, **or**
//! * it is provably benign — the decoded values are identical to the
//!   uncorrupted baseline (e.g. a flip in reserved header padding).
//!
//! Never a panic, never a hang, and never a *different* successful
//! reconstruction. This is where the checksums earn their bytes: the
//! suite proves they are actually checked on every path, not just
//! present in the layout.
//!
//! Equality of raw container bytes implies equality of decoded values
//! (decoding is a pure function of the bytes), so probes compare container
//! bytes first and only decode the containers an injection actually
//! touched — keeping the full matrix fast without weakening the oracle.

use adaptive_config::session::SessionCheckpoint;
use codec_core::{
    recover_stream, stream_file_bytes_tiered, CodecId, Container, StreamFileReader,
    StreamFileWriter, SyncPolicy,
};
use gridlab::{Decomposition, Dim3, Field3};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A format probe: parse corrupted bytes, return the per-container raw
/// bytes the format serves (or a typed error rendered to a string).
type Probe = dyn Fn(&[u8]) -> Result<Vec<Vec<u8>>, String>;

fn lcg_field(dims: Dim3, seed: u64, amp: f32) -> Field3<f32> {
    let mut state = seed;
    Field3::from_fn(dims, |_, _, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * amp
    })
}

/// 2 frames × 8 partitions of 4³ bricks, mixed codecs — small enough that
/// the every-byte matrix stays fast, structured enough to exercise every
/// format field.
fn sample_frames() -> Vec<Vec<Container>> {
    let dec = Decomposition::cubic(8, 2).unwrap();
    (0..2u64)
        .map(|frame| {
            let field = lcg_field(Dim3::cube(8), 1234 + frame, 100.0 + 30.0 * frame as f32);
            dec.iter()
                .enumerate()
                .map(|(i, p)| {
                    let brick = field.extract(p.origin, p.dims);
                    let codec = if i % 2 == 0 { CodecId::Rsz } else { CodecId::Zfp };
                    Container::compress(codec, brick.as_slice(), brick.dims(), 0.25)
                })
                .collect()
        })
        .collect()
}

/// Decoded values of one container (the ground truth a corrupted decode
/// is compared against).
fn decode_values(bytes: &[u8]) -> Result<Vec<f32>, String> {
    let c = Container::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
    c.decode::<f32>().map(|(v, _)| v).map_err(|e| e.to_string())
}

/// Assert one corrupted byte-string never panics and — when a probe
/// succeeds — only ever reproduces the baseline exactly.
///
/// `probe` extracts the per-container raw bytes behind a format (plus any
/// format-level payload such as a parsed checkpoint, compared via the
/// `extra` closure's output). Containers whose bytes match the baseline
/// are trusted; changed ones must fail their decode or decode to the
/// baseline values.
fn assert_loud_or_benign(
    label: &str,
    baseline: &[(Vec<u8>, Vec<f32>)],
    probe: &Probe,
    corrupted: &[u8],
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| probe(corrupted)));
    let Ok(result) = outcome else {
        panic!("{label}: corruption caused a panic instead of a typed error");
    };
    let Ok(containers) = result else {
        return; // loud typed error: the desired outcome
    };
    // The probe accepted the bytes: every container it serves must be
    // bitwise-baseline or fail/match on decode.
    assert!(
        containers.len() <= baseline.len(),
        "{label}: corruption grew the stream ({} > {} containers)",
        containers.len(),
        baseline.len()
    );
    for (i, got) in containers.iter().enumerate() {
        let (want_bytes, want_values) = &baseline[i];
        if got == want_bytes {
            continue;
        }
        let decode = catch_unwind(AssertUnwindSafe(|| decode_values(got)));
        let Ok(decoded) = decode else {
            panic!("{label}: corrupted container {i} panicked on decode");
        };
        if let Ok(values) = decoded {
            assert_eq!(
                &values, want_values,
                "{label}: container {i} decoded successfully to WRONG values"
            );
        }
    }
}

/// Run the full truncation + bit-flip matrix of one format.
fn injection_matrix(label: &str, bytes: &[u8], baseline: &[(Vec<u8>, Vec<f32>)], probe: &Probe) {
    // Sanity: the uncorrupted bytes probe clean and match the baseline.
    let clean = probe(bytes).unwrap_or_else(|e| panic!("{label}: baseline rejected: {e}"));
    assert_eq!(clean.len(), baseline.len(), "{label}: baseline shape");
    for (got, (want, _)) in clean.iter().zip(baseline) {
        assert_eq!(got, want, "{label}: baseline bytes");
    }
    // Truncate at every byte boundary.
    for cut in 0..bytes.len() {
        assert_loud_or_benign(
            &format!("{label} truncated to {cut}"),
            baseline,
            probe,
            &bytes[..cut],
        );
    }
    // Flip one bit in every byte (the bit index varies with position so
    // all eight lanes get coverage across the blob).
    let mut mutated = bytes.to_vec();
    for i in 0..bytes.len() {
        mutated[i] ^= 1 << (i % 8);
        assert_loud_or_benign(&format!("{label} bit-flipped at {i}"), baseline, probe, &mutated);
        mutated[i] = bytes[i];
    }
}

#[test]
fn acc2_container_corruption_matrix() {
    let frames = sample_frames();
    for (tag, c) in [("rsz", &frames[0][0]), ("zfp", &frames[0][1])] {
        let bytes = c.as_bytes().to_vec();
        let baseline = vec![(bytes.clone(), decode_values(&bytes).expect("baseline decodes"))];
        let probe = |b: &[u8]| -> Result<Vec<Vec<u8>>, String> {
            // Parse AND decode: a container has no lazy path to hide in.
            let c = Container::from_bytes(b.to_vec()).map_err(|e| e.to_string())?;
            c.decode::<f32>().map_err(|e| e.to_string())?;
            Ok(vec![b.to_vec()])
        };
        injection_matrix(&format!("ACC2/{tag}"), &bytes, &baseline, &probe);
    }
}

fn container_baseline(frames: &[Vec<Container>]) -> Vec<(Vec<u8>, Vec<f32>)> {
    frames
        .iter()
        .flat_map(|f| f.iter())
        .map(|c| {
            let b = c.as_bytes().to_vec();
            let v = decode_values(&b).expect("baseline decodes");
            (b, v)
        })
        .collect()
}

/// A finished `STRM` v2 stream of `frames`, written in memory.
fn stream_v2(frames: &[Vec<Container>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = StreamFileWriter::create_in(Cursor::new(&mut bytes), 8, SyncPolicy::Flush)
        .expect("in-memory stream");
    for f in frames {
        w.append_frame(f).expect("append frame");
    }
    w.finish().expect("finish stream");
    bytes
}

/// Probe: open the stream and read every container it serves.
fn read_all(b: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let r = StreamFileReader::from_source(Cursor::new(b)).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for f in 0..r.frames() {
        for p in 0..r.partitions() {
            out.push(r.container_bytes(f, p).map_err(|e| e.to_string())?);
        }
    }
    Ok(out)
}

/// Probe: recover the stream, then read every container of the result.
/// Recovery is *allowed* to drop frames — its contract is a valid prefix
/// (losing a *cold* frame additionally patches the header's cold count
/// down). What it must never do is panic, hang, or hand back a stream
/// whose containers decode to different values than they were written
/// with.
fn recover_then_read_all(b: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let (recovered, report) = recover_stream(b).map_err(|e| e.to_string())?;
    let r = StreamFileReader::from_source(Cursor::new(&recovered[..]))
        .map_err(|e| format!("recover produced an unreadable stream: {e}"))?;
    assert_eq!(r.frames(), report.frames_kept, "report disagrees with the recovered stream");
    assert!(r.cold_frames() <= r.frames(), "recovered cold count exceeds frame count");
    read_all(&recovered)
}

#[test]
fn strm_v1_stream_corruption_matrix() {
    // Nothing writes v1 any more: the matrix runs over the frozen golden
    // fixture, its baseline split straight off the offset table.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/strm_v1_2x8.bin");
    let bytes = std::fs::read(path).expect("golden fixture present in tests/fixtures/");
    let table: Vec<usize> = bytes[24..24 + 8 * 17]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let baseline: Vec<(Vec<u8>, Vec<f32>)> = table
        .windows(2)
        .map(|w| {
            let b = bytes[w[0]..w[1]].to_vec();
            let v = decode_values(&b).expect("baseline decodes");
            (b, v)
        })
        .collect();
    injection_matrix("STRM/v1", &bytes, &baseline, &read_all);
}

#[test]
fn strm_v2_stream_file_corruption_matrix() {
    let frames = sample_frames();
    let baseline = container_baseline(&frames);
    injection_matrix("STRM/v2-file", &stream_v2(&frames), &baseline, &read_all);
}

#[test]
fn strm_v2_recovery_corruption_matrix() {
    let frames = sample_frames();
    let baseline = container_baseline(&frames);
    injection_matrix("STRM/v2-recover", &stream_v2(&frames), &baseline, &recover_then_read_all);
}

/// The `STRM` v3 blob a compaction would emit: frame 0 re-tiered cold at a
/// relaxed bound (`FTR3` quad-digest footer), frame 1 hot and verbatim.
/// Built through the canonical tiered encoder so the matrix covers the
/// exact bytes `CompactionTask` produces.
fn tiered_sample() -> (Vec<u8>, Vec<Vec<Container>>) {
    let frames = sample_frames();
    let cold: Vec<Container> = frames[0]
        .iter()
        .map(|c| {
            let brick = c.decode_field::<f32>().expect("source container decodes");
            Container::compress(c.codec(), brick.as_slice(), brick.dims(), 1.0)
        })
        .collect();
    let bytes = stream_file_bytes_tiered(8, std::slice::from_ref(&cold), &frames[1..])
        .expect("tiered stream");
    (bytes, vec![cold, frames[1].clone()])
}

#[test]
fn strm_v3_tiered_stream_corruption_matrix() {
    // Same contract as the v2 matrix, now with a cold region in front: the
    // tiered header's cold count, the `FTR3` footers, and their quad
    // digests are all live format surface — a flip anywhere must surface
    // as a typed error on access or leave the served bytes baseline.
    let (bytes, frames) = tiered_sample();
    let baseline = container_baseline(&frames);
    injection_matrix("STRM/v3-tiered", &bytes, &baseline, &read_all);
}

#[test]
fn strm_v3_recovery_corruption_matrix() {
    let (bytes, frames) = tiered_sample();
    let baseline = container_baseline(&frames);
    injection_matrix("STRM/v3-recover", &bytes, &baseline, &recover_then_read_all);
}

#[test]
fn ckpt_checkpoint_corruption_matrix() {
    // Checkpoints carry no containers; the oracle is the parsed document
    // itself — a successful parse of corrupted bytes must yield the exact
    // baseline checkpoint (impossible to corrupt undetected in practice:
    // the payload is checksummed).
    let ckpt = {
        use adaptive_config::ratio_model::{CodecModelBank, RatioModel};
        use adaptive_config::session::{QualityPolicy, SessionConfig};
        let dec = Decomposition::cubic(8, 2).unwrap();
        let config = SessionConfig::new(dec, QualityPolicy::FixedEb(0.25))
            .with_codecs(&CodecId::ALL)
            .with_halo(64.5, 1000.0);
        let bank = CodecModelBank::new(vec![
            (CodecId::Rsz, RatioModel { c: -0.75, a0: 0.5, a1: 0.25 }),
            (CodecId::Zfp, RatioModel { c: -0.5, a0: 1.0, a1: 0.125 }),
        ]);
        SessionCheckpoint {
            config,
            bank: Some(bank),
            clamp_factor: 4.0,
            snapshots: 2,
            full_calibrations: 1,
            refreshes: 0,
            last_drift: 0.125,
        }
    };
    let bytes = ckpt.to_bytes();
    for cut in 0..bytes.len() {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| SessionCheckpoint::from_bytes(&bytes[..cut])));
        let parsed = outcome.unwrap_or_else(|_| panic!("CKPT truncated to {cut}: panic"));
        if let Ok(p) = parsed {
            assert_eq!(p, ckpt, "CKPT truncated to {cut}: parsed to a DIFFERENT checkpoint");
        }
    }
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        mutated[i] ^= 1 << (i % 8);
        let outcome = catch_unwind(AssertUnwindSafe(|| SessionCheckpoint::from_bytes(&mutated)));
        let parsed = outcome.unwrap_or_else(|_| panic!("CKPT bit-flipped at {i}: panic"));
        if let Ok(p) = parsed {
            assert_eq!(p, ckpt, "CKPT bit-flipped at {i}: parsed to a DIFFERENT checkpoint");
        }
        mutated[i] = bytes[i];
    }
}
