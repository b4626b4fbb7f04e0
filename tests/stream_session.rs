//! End-to-end streaming-session behaviour on a Nyx-like redshift series —
//! the acceptance contract of the session engine:
//!
//! * exactly **one** full calibration per series; later snapshots either
//!   transfer the models for free or run the (cheaper) sampled refresh;
//! * the per-snapshot modeling + optimization cost after snapshot 0 stays
//!   below the full-calibration cost;
//! * a series emitted into a `STRM` stream container supports
//!   random-access decode of any (snapshot, partition) byte-identical to
//!   full sequential reconstruction.

use adaptive_config::session::{QualityPolicy, Recalibration, SessionConfig, StreamSession};
use codec_core::{CodecId, StreamFileReader, StreamFileWriter, SyncPolicy};
use gridlab::{Decomposition, Field3};
use nyxlite::NyxConfig;
use std::io::Cursor;

const REDSHIFTS: [f64; 5] = [54.0, 51.0, 48.0, 45.0, 42.0];

fn run_series(
    policy: QualityPolicy,
    codecs: &[CodecId],
) -> (StreamSession, Vec<u8>, Decomposition) {
    let n = 32;
    let cfg = NyxConfig::new(n, 11);
    let dec = Decomposition::cubic(n, 4).expect("4 divides 32");
    let mut session =
        StreamSession::new(SessionConfig::new(dec.clone(), policy).with_codecs(codecs));
    let mut bytes = Vec::new();
    let mut stream = StreamFileWriter::create_in(
        Cursor::new(&mut bytes),
        dec.num_partitions(),
        SyncPolicy::Flush,
    )
    .unwrap();
    for &z in &REDSHIFTS {
        let snap = cfg.generate(z);
        let rec = session.push_snapshot(&snap.baryon_density).expect("finite snapshot");
        stream.append_frame(&rec.result.containers).unwrap();
    }
    stream.finish().unwrap();
    (session, bytes, dec)
}

#[test]
fn five_snapshot_series_pays_exactly_one_full_calibration() {
    let (session, _, _) = run_series(QualityPolicy::SigmaScaled(0.1), &[CodecId::Rsz]);
    assert_eq!(session.snapshots(), 5);
    assert_eq!(session.full_calibrations(), 1, "only the first snapshot calibrates fully");
    assert_eq!(session.history()[0].recalibration, Recalibration::Full);
    for s in &session.history()[1..] {
        assert_ne!(
            s.recalibration,
            Recalibration::Full,
            "snapshot {} re-ran a full calibration",
            s.snapshot
        );
    }
}

#[test]
fn steady_snapshots_cost_less_than_the_full_calibration() {
    let (session, _, _) = run_series(QualityPolicy::SigmaScaled(0.1), &[CodecId::Rsz]);
    let full_cost = session.history()[0].model_cost;
    assert!(full_cost.as_nanos() > 0);
    for s in &session.history()[1..] {
        let steady = s.adaptive_cost();
        assert!(
            steady < full_cost,
            "snapshot {}: modeling+optimize {steady:?} should undercut the full \
             calibration {full_cost:?} ({:?})",
            s.snapshot,
            s.recalibration
        );
    }
}

#[test]
fn session_budget_tracks_the_evolving_sigma() {
    let (session, _, _) = run_series(QualityPolicy::SigmaScaled(0.1), &[CodecId::Rsz]);
    let ebs: Vec<f64> = session.history().iter().map(|s| s.eb_avg).collect();
    for w in ebs.windows(2) {
        assert!(w[1] > w[0], "σ grows toward lower redshift, so must the budget: {ebs:?}");
    }
}

#[test]
fn stream_random_access_matches_sequential_reconstruction() {
    let (_, bytes, dec) = run_series(QualityPolicy::SigmaScaled(0.1), &CodecId::ALL);
    let r = StreamFileReader::from_source(Cursor::new(&bytes[..])).expect("stream parses");
    assert_eq!(r.frames(), 5);
    assert_eq!(r.partitions(), dec.num_partitions());
    // Every frame: assemble sequentially, then spot-check partitions in
    // scrambled random-access order against the assembled field.
    for frame in 0..r.frames() {
        let whole: Field3<f32> = r.reconstruct_frame(frame, &dec).expect("assembles");
        for p in [dec.num_partitions() - 1, 0, 31, 7] {
            let direct: Field3<f32> = r.reconstruct_partition(frame, p).expect("random access");
            let part = dec.partition(p).unwrap();
            assert_eq!(
                direct.as_slice(),
                whole.extract(part.origin, part.dims).as_slice(),
                "(frame {frame}, partition {p})"
            );
        }
    }
}

#[test]
fn stream_frames_decode_within_their_recorded_bounds() {
    let n = 32;
    let cfg = NyxConfig::new(n, 11);
    let dec = Decomposition::cubic(n, 4).unwrap();
    let mut session =
        StreamSession::new(SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(0.1)));
    let mut bytes = Vec::new();
    let mut stream = StreamFileWriter::create_in(
        Cursor::new(&mut bytes),
        dec.num_partitions(),
        SyncPolicy::Flush,
    )
    .unwrap();
    let mut all_ebs = Vec::new();
    let mut fields = Vec::new();
    for &z in &REDSHIFTS {
        let snap = cfg.generate(z);
        let rec = session.push_snapshot(&snap.baryon_density).expect("finite snapshot");
        stream.append_frame(&rec.result.containers).unwrap();
        all_ebs.push(rec.result.ebs.clone());
        fields.push(snap.baryon_density);
    }
    stream.finish().unwrap();
    let r = StreamFileReader::from_source(Cursor::new(&bytes[..])).unwrap();
    for (frame, (field, ebs)) in fields.iter().zip(&all_ebs).enumerate() {
        let recon: Field3<f32> = r.reconstruct_frame(frame, &dec).unwrap();
        for ((bo, br), &eb) in dec.split(field).iter().zip(&dec.split(&recon)[..]).zip(ebs) {
            let err = bo.max_abs_diff(br);
            assert!(err <= eb + 1e-9, "frame {frame}: err {err} > eb {eb}");
        }
    }
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_stream() {
    // The durability acceptance contract end to end: a durable stream torn
    // mid-frame recovers to a valid prefix, the session restores from its
    // CKPT blob without recalibrating, and the resumed frames land on disk
    // byte-identical to a run that never crashed.
    let n = 32;
    let cfg = NyxConfig::new(n, 11);
    let dec = Decomposition::cubic(n, 4).unwrap();
    let session_cfg = || SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(0.1));
    let path = std::env::temp_dir()
        .join(format!("stream_session_kill_resume_{}.strm", std::process::id()));

    // Reference: uninterrupted run.
    let mut reference = StreamSession::new(session_cfg());
    let ref_frames: Vec<_> = REDSHIFTS
        .iter()
        .map(|&z| {
            reference
                .push_snapshot(&cfg.generate(z).baryon_density)
                .expect("finite snapshot")
                .result
                .containers
        })
        .collect();

    // Durable run, torn while writing frame 2. The checkpoint pairs with
    // the durable prefix: a real run persists the blob only after the
    // matching frame's append returns, so the torn frame's checkpoint
    // (which could already carry a drift-refreshed bank) never exists —
    // the last blob on disk is the one saved after frame 1.
    let mut session = StreamSession::new(session_cfg());
    let mut writer = StreamFileWriter::create(&path, dec.num_partitions()).unwrap();
    let mut blob = Vec::new();
    for (i, &z) in REDSHIFTS[..3].iter().enumerate() {
        let rec = session.push_snapshot(&cfg.generate(z).baryon_density).expect("finite snapshot");
        writer.append_frame(&rec.result.containers).unwrap();
        if i < 2 {
            blob = session.save();
        }
    }
    drop(writer); // crash: no trailer
    drop(session);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 321]).unwrap(); // tear frame 2

    // Recover + restore + resume (frame 2 is re-pushed, then 3 and 4).
    let (mut writer, report) = StreamFileWriter::recover(&path).unwrap();
    assert_eq!(report.frames_kept, 2, "only the torn frame is lost");
    assert!(report.bytes_dropped > 0);
    let mut session = StreamSession::restore(&blob).expect("restores");
    for &z in &REDSHIFTS[report.frames_kept..] {
        let rec = session.push_snapshot(&cfg.generate(z).baryon_density).expect("finite snapshot");
        assert_ne!(rec.stats.recalibration, Recalibration::Full, "restore skips recalibration");
        writer.append_frame(&rec.result.containers).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(session.full_calibrations(), 1);
    assert_eq!(session.snapshots(), REDSHIFTS.len(), "no double-counted snapshots after resume");

    let reader = StreamFileReader::open(&path).unwrap();
    assert_eq!(reader.frames(), REDSHIFTS.len());
    for (f, frame) in ref_frames.iter().enumerate() {
        for (p, c) in frame.iter().enumerate() {
            assert_eq!(
                reader.container_bytes(f, p).unwrap(),
                c.as_bytes(),
                "(frame {f}, partition {p}) diverged from the uninterrupted run"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bitrate_budget_policy_runs_the_series_under_budget() {
    let (session, bytes, _) = run_series(QualityPolicy::BitrateBudget(4.0), &[CodecId::Rsz]);
    assert_eq!(session.full_calibrations(), 1);
    let r = StreamFileReader::from_source(Cursor::new(&bytes[..])).unwrap();
    assert_eq!(r.frames(), 5);
    // The budget contract is on the model's prediction; measured rates
    // stay in its neighbourhood (model accuracy, not the bound itself).
    for s in session.history() {
        assert!(s.eb_avg.is_finite() && s.eb_avg > 0.0);
    }
}
