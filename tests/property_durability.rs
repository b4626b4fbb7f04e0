//! Property suites for the durability layer.
//!
//! * **Checkpoint round-trip**: `restore(save(s)) ≡ s` over randomized
//!   model banks, quality policies, session knobs, and drift state — the
//!   serialized form loses nothing a resumed run depends on (floats
//!   included: the JSON rendering is shortest-round-trip).
//! * **Crash-recovery equivalence**: write N frames into a durable
//!   stream, truncate at an arbitrary byte, recover — the result is
//!   byte-identical to a fresh, uninterrupted write of the surviving
//!   frame prefix (so recovered streams are indistinguishable from
//!   never-crashed ones, manifest and all).
//! * **Compaction canonicity**: re-tiering cold frames on disk produces
//!   bytes identical to the in-memory tiered encoder over independently
//!   re-compressed frames (compaction is deterministic and reproducible),
//!   reconstructs within the relaxed bound for bound-guaranteed codecs,
//!   and stays a recovery fixed point.
//!
//! Case counts honour `PROPTEST_CASES` (CI caps them at 64).

use adaptive_config::ratio_model::{CodecModelBank, RatioModel};
use adaptive_config::session::{QualityPolicy, SessionCheckpoint, SessionConfig, StreamSession};
use codec_core::{
    compact_stream_file, recover_stream, stream_file_bytes_tiered, trailer_len, CodecId,
    CompactionConfig, Container, StreamFileReader, StreamFileWriter, SyncPolicy,
};
use gridlab::{Decomposition, Dim3, Field3};
use proptest::prelude::*;
use std::io::Cursor;

fn ratio_model() -> impl Strategy<Value = RatioModel> {
    (-3.0f64..-0.05, -5.0f64..5.0, -2.0f64..2.0).prop_map(|(c, a0, a1)| RatioModel { c, a0, a1 })
}

/// Single- or dual-codec bank, priority order varying.
fn bank() -> impl Strategy<Value = CodecModelBank> {
    (0usize..3, ratio_model(), ratio_model()).prop_map(|(shape, m0, m1)| match shape {
        0 => CodecModelBank::new(vec![(CodecId::Rsz, m0), (CodecId::Zfp, m1)]),
        1 => CodecModelBank::new(vec![(CodecId::Zfp, m0), (CodecId::Rsz, m1)]),
        _ => CodecModelBank::single(CodecId::Rsz, m0),
    })
}

fn policy() -> impl Strategy<Value = QualityPolicy> {
    (0usize..3, 0.01f64..10.0).prop_map(|(kind, v)| match kind {
        0 => QualityPolicy::FixedEb(v),
        1 => QualityPolicy::SigmaScaled(v),
        _ => QualityPolicy::BitrateBudget(v),
    })
}

fn checkpoint() -> impl Strategy<Value = SessionCheckpoint> {
    (
        bank(),
        policy(),
        (0.05f64..5.0, 1usize..5, 1usize..9), // drift threshold, strides
        proptest::collection::vec(0.1f64..4.0, 2..5), // sweep multipliers
        (0.1f64..2.0, 1.1f64..10.0, 0.0f64..30.0), // eb_ref, clamp, last drift
        (0usize..50, 0usize..1000, 0usize..2, 0usize..4), // snapshots, refresh raw, halo?, ckpt cadence
    )
        .prop_map(
            |(
                bank,
                policy,
                (drift, cs, rs),
                sweep,
                (eb_ref, clamp, last),
                (snaps, rraw, halo, ckpt_every),
            )| {
                let dec = Decomposition::cubic(8, 2).expect("2 divides 8");
                let mut config = SessionConfig::new(dec, policy);
                // Only enable codecs the bank actually carries.
                config.codecs = bank.entries().iter().map(|(c, _)| *c).collect();
                config.drift_threshold = drift;
                config.calib_stride = cs;
                config.refresh_stride = rs;
                config.sweep_multipliers = sweep.clone();
                config.refresh_multipliers = sweep;
                config.eb_ref = eb_ref;
                if halo == 1 {
                    config = config.with_halo(64.0, 1000.0);
                }
                // Cadence 0 means "never checkpoint automatically" (None).
                config.checkpoint_every = (ckpt_every > 0).then_some(ckpt_every);
                // A calibrated session has >= 1 snapshot and exactly one full
                // calibration; refreshes never exceed the remaining snapshots.
                let snapshots = snaps + 1;
                let refreshes = rraw % snapshots; // <= snapshots - 1 (the full one)
                SessionCheckpoint {
                    config,
                    bank: Some(bank),
                    clamp_factor: clamp,
                    snapshots,
                    full_calibrations: 1,
                    refreshes,
                    last_drift: last,
                }
            },
        )
}

/// 1–3 frames over a 2×2×2-brick decomposition with varying codec mix.
fn frames() -> impl Strategy<Value = Vec<Vec<Container>>> {
    (1usize..4, 0u64..1_000_000, 20.0f32..300.0, 0usize..2).prop_map(
        |(nframes, seed, amp, parity)| {
            let dec = Decomposition::cubic(8, 2).expect("2 divides 8");
            (0..nframes as u64)
                .map(|frame| {
                    let mut state = seed ^ (frame << 32) | 1;
                    let field = Field3::from_fn(Dim3::cube(8), |_, _, _| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * amp
                    });
                    dec.iter()
                        .enumerate()
                        .map(|(i, p)| {
                            let brick = field.extract(p.origin, p.dims);
                            let codec = if i % 2 == parity { CodecId::Rsz } else { CodecId::Zfp };
                            Container::compress(codec, brick.as_slice(), brick.dims(), 0.25)
                        })
                        .collect()
                })
                .collect()
        },
    )
}

/// Decode every container of a frame and re-compress it at `eb` with the
/// same codec — the reference transform compaction must reproduce
/// byte-for-byte.
fn recompress(frame: &[Container], eb: f64) -> Vec<Container> {
    frame
        .iter()
        .map(|c| {
            let brick = c.decode_field::<f32>().expect("source container decodes");
            Container::compress(c.codec(), brick.as_slice(), brick.dims(), eb)
        })
        .collect()
}

/// A fresh, uninterrupted in-memory write of `frames` into a finished
/// `STRM` v2 stream.
fn fresh_write(partitions: usize, frames: &[Vec<Container>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = StreamFileWriter::create_in(Cursor::new(&mut bytes), partitions, SyncPolicy::Flush)
        .expect("in-memory stream");
    for f in frames {
        w.append_frame(f).expect("append frame");
    }
    w.finish().expect("finish stream");
    bytes
}

/// A collision-free scratch path for one proptest case.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("prop_{tag}_{}_{n}.strm", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_roundtrip_is_the_identity(ckpt in checkpoint()) {
        let bytes = ckpt.to_bytes();
        let back = SessionCheckpoint::from_bytes(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&ckpt));
        // And through a full session: restore() rebuilds a session whose
        // own checkpoint is indistinguishable from the original.
        let session = StreamSession::restore(&bytes);
        prop_assert!(session.is_ok(), "restore rejected a valid checkpoint: {:?}", session.err());
        prop_assert_eq!(session.unwrap().checkpoint(), ckpt);
    }

    #[test]
    fn recovery_of_a_truncated_stream_equals_a_fresh_write_of_the_prefix(
        frames in frames(),
        cut_frac in 0.0f64..1.0,
    ) {
        let partitions = 8;
        let full = fresh_write(partitions, &frames);
        // Every "fresh write of the first k frames", and where each
        // frame's data (incl. footer) ends in the byte stream.
        let fresh: Vec<Vec<u8>> =
            (0..=frames.len()).map(|k| fresh_write(partitions, &frames[..k])).collect();
        let data_end: Vec<usize> =
            fresh.iter().enumerate().map(|(k, b)| b.len() - trailer_len(k)).collect();

        let cut = ((full.len() as f64) * cut_frac) as usize;
        let truncated = &full[..cut.min(full.len())];

        if cut < 16 {
            // The header did not survive: nothing is recoverable and the
            // failure must be a typed error.
            prop_assert!(recover_stream(truncated).is_err());
            return Ok(());
        }
        let recovery = recover_stream(truncated);
        prop_assert!(recovery.is_ok(), "recover failed: {}", recovery.err().unwrap());
        let (recovered, report) = recovery.unwrap();
        // The surviving prefix is the largest k whose complete frames fit
        // below the cut.
        let kept = data_end.iter().filter(|&&end| end <= cut.min(full.len())).count() - 1;
        prop_assert_eq!(report.frames_kept, kept);
        // Byte-identical to an uninterrupted write of the kept frames.
        prop_assert_eq!(&recovered, &fresh[kept]);
    }

    #[test]
    fn compaction_is_byte_canonical_and_a_recovery_fixed_point(
        frames in frames(),
        horizon in 0usize..4,
        eb2 in 0.3f64..2.0,
    ) {
        let partitions = 8;
        let path = scratch_path("compact");
        std::fs::write(&path, fresh_write(partitions, &frames)).expect("write scratch");
        let report = compact_stream_file::<f32>(&path, CompactionConfig::new(horizon, eb2));
        let compacted = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        prop_assert!(report.is_ok(), "compaction failed: {}", report.err().unwrap());

        // Canonical bytes: re-tiering on disk must equal the in-memory
        // tiered encoder over independently re-compressed cold frames.
        let cold_n = frames.len().saturating_sub(horizon);
        match report.unwrap() {
            None => {
                prop_assert!(cold_n == 0, "no-op despite {} frames past the horizon", cold_n);
                prop_assert_eq!(&compacted, &fresh_write(partitions, &frames));
            }
            Some(rep) => {
                prop_assert_eq!(rep.frames_compacted, cold_n);
                prop_assert_eq!(rep.cold_frames, cold_n);
                let cold: Vec<Vec<Container>> =
                    frames[..cold_n].iter().map(|f| recompress(f, eb2)).collect();
                prop_assert_eq!(
                    &compacted,
                    &stream_file_bytes_tiered(partitions, &cold, &frames[cold_n..]).unwrap()
                );
            }
        }

        // Recovery fixed point: a compacted stream recovers to itself.
        // (`bytes_dropped` always counts the trailer — recovery rebuilds it
        // rather than trusting it, so an intact stream "drops" exactly one.)
        let (recovered, rep) = recover_stream(&compacted).expect("compacted stream recovers");
        prop_assert_eq!(rep.bytes_dropped, trailer_len(frames.len()) as u64);
        prop_assert_eq!(rep.frames_kept, frames.len());
        prop_assert_eq!(&recovered, &compacted);

        // Reconstructions: hot frames are bit-identical to the originals;
        // cold frames moved at most eb2 from the pre-compaction decode
        // wherever the codec guarantees its bound (rsz).
        let reader = StreamFileReader::from_source(Cursor::new(&compacted[..])).expect("open");
        prop_assert_eq!(reader.cold_frames(), cold_n.min(frames.len()));
        for (f, frame) in frames.iter().enumerate() {
            for (p, orig) in frame.iter().enumerate() {
                let now = reader.container(f, p).expect("container reads");
                if f >= cold_n {
                    prop_assert_eq!(now.as_bytes(), orig.as_bytes());
                } else if orig.codec() == CodecId::Rsz {
                    let before = orig.decode_field::<f32>().expect("orig decodes");
                    let after = now.decode_field::<f32>().expect("cold decodes");
                    prop_assert!(before.max_abs_diff(&after) <= eb2 + 1e-6);
                }
            }
        }
    }
}
