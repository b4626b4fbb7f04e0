//! `readback_tiered`: a single-threaded post-hoc analysis job over a
//! compacted (`STRM` v3, cold and hot tiers), torn, mixed-codec stream.
//!
//! Before any timing the benchmark writes the stream through a
//! `StreamSession` (rsz + zfp) and a `StreamFileWriter` in a child
//! process pinned to one CPU, compacts it, appends one more frame and
//! tears that frame mid-way; that serial push + append is this
//! workload's ingest figure. Set-up recovers
//! the torn file, finishes it and opens a reader. The measured phase then
//! alternates seeded-random point reads, which miss the reader's manifest
//! window, and sequential `reconstruct_frame` walks over every frame,
//! which hit it. Only reads run in the measured phase, and it keeps only
//! a digest of what each read returned; the original fields are generated
//! after it (so they do not count in its peak resident set) and checked
//! against a fresh decode whose digests must match.

use crate::check;
use crate::inputs;
use crate::readpath::{self, Reader};
use crate::report::{Outcome, MIB};
use crate::stats;
use crate::sys;
use crate::trace::{traced_at, Ledger, Tracer};
use crate::{Ctx, Setups};
use adaptive_config::session::{QualityPolicy, SessionConfig, StreamSession};
use codec_core::{
    CodecId, CompactionConfig, StreamFileWriter, SyncPolicy, DEFAULT_MANIFEST_WINDOW,
};
use gridlab::{Decomposition, Field3};
use std::path::Path;
use std::time::Instant;

/// Times the stream is written (the ingest figures pool all of them).
const BUILD_REPS: usize = 8;
/// Independent nyxlite realizations the stream's frames cycle through.
const REALIZATIONS: usize = 16;
/// Point reads per round; each round ends with one full walk.
const POINTS_PER_ROUND: usize = 16;
/// Every this many frames of the verified walk the spectrum and halo
/// finder run.
const QUALITY_EVERY: usize = 5;

struct Built {
    ebs: Vec<Vec<f64>>,
    codecs: Vec<Vec<CodecId>>,
    frame_bytes: Vec<u64>,
    cold_eb: f64,
    push_ms: Vec<f64>,
}

/// Write, compact and tear the stream, leaving the torn bytes in
/// [`torn_path`] (harness work, but the per-frame push + append is timed:
/// it is this workload's ingest figure).
fn build(
    dec: &Decomposition,
    fields: &[Field3<f32>],
    horizon: usize,
    path: &std::path::Path,
) -> Result<Built, String> {
    let frames = fields.len() - 1;
    let cfg =
        SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(crate::ingest::SIGMA_FRACTION))
            .with_codecs(&CodecId::ALL);
    let mut session = StreamSession::new(cfg);
    let mut writer = StreamFileWriter::create_with(path, dec.num_partitions(), SyncPolicy::Flush)
        .map_err(|e| format!("create: {e}"))?;
    let (mut ebs, mut codecs, mut frame_bytes, mut push_ms) = (vec![], vec![], vec![], vec![]);
    let (mut last_bytes, mut eb_avg, mut cold_eb) = (0u64, Vec::new(), 0.0);
    for (j, field) in fields.iter().enumerate() {
        let t0 = Instant::now();
        let rec = session.push_snapshot(field).map_err(|e| format!("push {j}: {e}"))?;
        if j == frames {
            // The torn frame: appended, then cut mid-way below.
            let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            writer.append_frame(&rec.result.containers).map_err(|e| format!("append: {e}"))?;
            last_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) - before;
            break;
        }
        writer.append_frame(&rec.result.containers).map_err(|e| format!("append {j}: {e}"))?;
        let dt = t0.elapsed().as_secs_f64();
        if j > 0 {
            push_ms.push(dt * 1e3);
        }
        ebs.push(rec.result.ebs.clone());
        codecs.push(rec.result.codecs.clone());
        frame_bytes.push(rec.result.compressed_bytes as u64);
        eb_avg.push(rec.stats.eb_avg);
        if j + 1 == frames {
            // Compact everything past the horizon into the cold tier at
            // twice the frames' mean budget.
            cold_eb = 2.0 * stats::mean(&eb_avg);
            writer
                .compact::<f32>(CompactionConfig::new(horizon, cold_eb))
                .map_err(|e| format!("compact: {e}"))?;
        }
    }
    drop(writer);
    let bytes = std::fs::read(path).map_err(|e| format!("read: {e}"))?;
    std::fs::write(torn_path(path), &bytes[..bytes.len() - (last_bytes / 2) as usize])
        .map_err(|e| format!("write torn: {e}"))?;
    Ok(Built { ebs, codecs, frame_bytes, cold_eb, push_ms })
}

/// Where [`build`] leaves the torn copy of the stream at `path`.
fn torn_path(path: &Path) -> std::path::PathBuf {
    path.with_extension("torn")
}

/// Sizes of the workload: field edge, partitions per axis, frames, hot
/// horizon.
fn layout(smoke: bool) -> (usize, usize, usize, usize) {
    if smoke {
        (16, 2, 24, 8)
    } else {
        (32, 4, 160, 48)
    }
}

/// One field per frame (plus the torn one) at falling redshift, drawn
/// round-robin from several independent realizations so the quality
/// figures do not hang on one Gaussian draw.
fn fields(seed: u64, smoke: bool) -> Vec<Field3<f32>> {
    let (n, _, frames, _) = layout(smoke);
    let zs: Vec<f64> = (0..=frames).map(|j| 60.0 - 0.125 * j as f64).collect();
    let series: Vec<Vec<Field3<f32>>> = (0..REALIZATIONS)
        .map(|r| {
            let own: Vec<f64> = zs.iter().skip(r).step_by(REALIZATIONS).copied().collect();
            inputs::nyx_density_series(n, inputs::mix(seed, 7 + r as u64), &own)
        })
        .collect();
    (0..=frames).map(|j| series[j % REALIZATIONS][j / REALIZATIONS].clone()).collect()
}

/// Build the stream several times (the last build is kept) so the
/// ingest figures sample the serial push over seconds, not one burst.
fn build_all(seed: u64, smoke: bool, path: &Path) -> Result<Built, String> {
    let (n, parts, _, horizon) = layout(smoke);
    let dec = Decomposition::cubic(n, parts).expect("parts divide n");
    let fields = fields(seed, smoke);
    let mut push_ms = Vec::new();
    let mut built = None;
    for _ in 0..if smoke { 1 } else { BUILD_REPS } {
        let b = build(&dec, &fields, horizon, path)?;
        push_ms.extend_from_slice(&b.push_ms);
        built = Some(b);
    }
    let mut b = built.expect("at least one build");
    b.push_ms = push_ms;
    Ok(b)
}

/// Entry point of the build process: pinned to one CPU, it writes the
/// stream serially — the plain single-threaded ingest baseline — and
/// leaves the torn bytes and what the pushes decided under `dir`.
pub fn build_child(dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    let pinned = sys::pin_to_one_cpu();
    let b = build_all(seed, smoke, &dir.join("tiered.strm"))?;
    let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
    let mut meta = format!(
        "pinned {}\ncold_eb {}\npush_ms {}\n",
        u8::from(pinned),
        b.cold_eb,
        join(&b.push_ms)
    );
    for ((bytes, codecs), ebs) in b.frame_bytes.iter().zip(&b.codecs).zip(&b.ebs) {
        let tags: String =
            codecs.iter().map(|c| if *c == CodecId::Rsz { 'r' } else { 'z' }).collect();
        meta.push_str(&format!("frame {bytes} {tags} {}\n", join(ebs)));
    }
    std::fs::write(dir.join("tiered.meta"), meta).map_err(|e| format!("write meta: {e}"))
}

/// Run [`build_child`] in a pinned child process and read its output.
fn build_pinned(ctx: &Ctx) -> Result<(Built, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--build-stream").arg(&ctx.dir).arg("--seed").arg(ctx.seed.to_string());
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn build: {e}"))?;
    if !status.success() {
        return Err(format!("build process exited with {status}"));
    }
    let meta = std::fs::read_to_string(ctx.dir.join("tiered.meta"))
        .map_err(|e| format!("read meta: {e}"))?;
    let nums = |s: &str| -> Result<Vec<f64>, String> {
        s.split_whitespace().map(|v| v.parse().map_err(|_| format!("bad number {v}"))).collect()
    };
    let mut b =
        Built { ebs: vec![], codecs: vec![], frame_bytes: vec![], cold_eb: 0.0, push_ms: vec![] };
    let mut pinned = false;
    for line in meta.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "pinned" => pinned = rest == "1",
            "cold_eb" => b.cold_eb = rest.parse().map_err(|_| "bad cold_eb")?,
            "push_ms" => b.push_ms = nums(rest)?,
            "frame" => {
                let mut it = rest.splitn(3, ' ');
                let bytes = it.next().and_then(|v| v.parse().ok()).ok_or("bad frame bytes")?;
                let tags = it.next().ok_or("bad frame codecs")?;
                b.frame_bytes.push(bytes);
                b.codecs.push(
                    tags.chars()
                        .map(|c| if c == 'r' { CodecId::Rsz } else { CodecId::Zfp })
                        .collect(),
                );
                b.ebs.push(nums(it.next().unwrap_or(""))?);
            }
            _ => return Err(format!("bad meta line {line}")),
        }
    }
    Ok((b, pinned))
}

/// One set-up window: restore the torn bytes (untimed), then recover,
/// finish and open, as often as the window asks. Returns the last reader.
fn set_up_window(
    setups: &mut Setups,
    path: &Path,
    frames: usize,
    recover_ms: &mut Vec<f64>,
) -> Result<Reader, String> {
    let mut reader = None;
    setups.window(|| {
        std::fs::copy(torn_path(path), path).map_err(|e| format!("restore torn stream: {e}"))?;
        let t0 = Instant::now();
        let (w, report) = StreamFileWriter::recover_with(path, SyncPolicy::Flush)
            .map_err(|e| format!("recover: {e}"))?;
        let t1 = Instant::now();
        w.finish().map_err(|e| format!("finish: {e}"))?;
        let r = Reader::open(path).map_err(|e| format!("open: {e}"))?;
        let t2 = Instant::now();
        if report.frames_kept != frames || r.frames() != frames {
            return Err(format!("recovery kept {} frames, expected {frames}", report.frames_kept));
        }
        recover_ms.push((t1 - t0).as_secs_f64() * 1e3);
        reader = Some(r);
        Ok((t2 - t0).as_secs_f64())
    })?;
    Ok(reader.expect("a window sets up at least once"))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let (n, parts, frames, horizon) = layout(ctx.smoke);
    let dec = Decomposition::cubic(n, parts).expect("parts divide n");
    o.info("loop", "closed, single thread");
    o.info("load_threads", 1);
    o.info("server_workers", "n/a (no server)");
    o.info("offered_rate_hz", "n/a");
    o.info("flush", "SyncPolicy::Flush (page cache; not a device flush)");
    o.info("field", format!("nyx baryon density {n}x{n}x{n} f32"));
    o.info("partitions", dec.num_partitions());
    o.info("frames", frames);
    o.info("hot_horizon", horizon);
    o.info("manifest_window", DEFAULT_MANIFEST_WINDOW);
    o.info("codecs", "rsz+zfp (joint choice)");

    let path = ctx.dir.join("tiered.strm");
    let (b, pinned) = match build_pinned(ctx) {
        Ok(v) => v,
        Err(e) => {
            o.violate(1, format!("building the stream: {e}"));
            return o;
        }
    };
    if !pinned {
        o.info("build_note", "build process could not be pinned to one CPU");
    }
    let push_ms = &b.push_ms;
    // Serial ingest: one frame's raw MiB over the median push + append.
    let frame_mib = (dec.domain().len() * 4) as f64 / MIB;
    o.set("ingest_mib_s", frame_mib / (stats::median(push_ms) / 1e3));
    o.set("push_p50_ms", stats::median(push_ms));
    o.set("push_p90_ms", stats::quantile(push_ms, 0.9));
    o.info(
        "ingest_note",
        "ingest figures time the serial push + append that writes the stream, pinned to one CPU",
    );

    crate::reset_peak_rss(&mut o);
    let mut setups = Setups::new(ctx.smoke);
    let mut recover_ms = Vec::new();
    let mut reader = match set_up_window(&mut setups, &path, frames, &mut recover_ms) {
        Ok(r) => r,
        Err(e) => {
            o.violate(1, format!("set-up: {e}"));
            return o;
        }
    };
    if reader.cold_frames() != frames - horizon {
        o.violate(
            1,
            format!("{} cold frames, expected {}", reader.cold_frames(), frames - horizon),
        );
    }

    // Measured phase. Each point read keeps (partition, digest) under its
    // frame; the first untraced walk keeps one digest per frame.
    let mut tr = Tracer::new(ctx.trace, Instant::now());
    let mut rng = scenarios::Rng64::new(inputs::mix(ctx.seed, 0xbead));
    let brick_cells = dec.brick().len();
    let frame_cells = dec.domain().len();
    let mut point_ms = Vec::new();
    let mut point_traced = Vec::new();
    let mut points: Vec<Vec<(usize, u64)>> = vec![Vec::new(); frames];
    let mut frame_secs: Vec<f64> = Vec::new();
    let mut walk_bytes = 0u64;
    let mut walk_digests: Vec<u64> = Vec::new();
    let mut attempted = 0u64;
    let cpu0 = sys::cpu_seconds();
    let steal0 = sys::steal_ticks();
    let t_start = Instant::now();
    let mut point_raw = 0u64;
    while t_start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = traced_at(ctx.trace, t_start, Instant::now());
        tr.set_enabled(traced);
        for _ in 0..POINTS_PER_ROUND {
            let (f, p) = (rng.index(frames), rng.index(dec.num_partitions()));
            attempted += 1;
            match readpath::point_read(&path, f, p, &mut tr) {
                Ok(r) => {
                    point_ms.push(r.ms);
                    point_traced.push(traced);
                    point_raw += (brick_cells * 4) as u64;
                    if r.codec != b.codecs[f][p] {
                        o.violate(
                            1,
                            format!(
                                "point read ({f}, {p}): codec {} expected {}",
                                r.codec, b.codecs[f][p]
                            ),
                        );
                    }
                    points[f].push((p, check::digest(&r.values)));
                }
                Err(e) => o.violate(1, format!("point read ({f}, {p}): {e}")),
            }
        }
        attempted += frames as u64;
        let keep = !traced && walk_digests.is_empty();
        let res = if traced {
            (0..frames)
                .try_for_each(|f| readpath::traced_walk_frame(&reader, f, &dec, &mut tr).map(drop))
                .map(|()| Vec::new())
        } else {
            readpath::walk(&reader, 0..frames, &dec, |_, field| {
                if keep {
                    walk_digests.push(check::digest(field.as_slice()));
                }
            })
        };
        match res {
            Ok(s) => {
                walk_bytes += (frames * frame_cells * 4) as u64;
                frame_secs.extend(s);
            }
            Err(e) => o.violate(frames as u64, format!("walk: {e}")),
        }
    }
    let elapsed = t_start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    o.set("peak_rss_mib", sys::peak_rss_mib());
    o.info("host_steal_frac", format!("{:.3}", sys::steal_frac(steal0)));
    o.attempted = attempted;
    let untraced: Vec<f64> =
        point_ms.iter().zip(&point_traced).filter(|(_, &t)| !t).map(|(&m, _)| m).collect();
    o.set("read_p50_ms", stats::median(&untraced));
    o.set("read_mib_s", readpath::walk_mib_s(frame_cells, &frame_secs));
    let processed = (walk_bytes + point_raw) as f64 / MIB;
    o.set("cpu_ms_per_mib", cpu_s * 1e3 / processed.max(1e-9));
    o.info("measured_s", format!("{elapsed:.3}"));
    o.info("point_reads", point_ms.len());
    if !ctx.smoke && !stats::percentile_supported(untraced.len(), 0.5) {
        o.violate(0, "too few point reads");
    }

    match set_up_window(&mut setups, &path, frames, &mut recover_ms) {
        Ok(r) => reader = r,
        Err(e) => {
            o.violate(1, format!("set-up: {e}"));
            return o;
        }
    }

    // Verification (outside timing): a fresh walk of the recovered stream
    // must decode what the measured walk and point reads decoded, and
    // every partition must meet its bound against the original.
    let fields = fields(ctx.seed, ctx.smoke);
    let bound = |f: usize, p: usize| -> f64 {
        b.ebs[f][p] + if f < frames - horizon { b.cold_eb } else { 0.0 }
    };
    let dec_parts: Vec<_> = dec.iter().collect();
    let (mut spec_err, mut halo_err) = (Vec::new(), Vec::new());
    if walk_digests.len() != frames {
        o.violate(1, "no complete untraced walk");
    }
    for (f, orig) in fields.iter().take(frames).enumerate() {
        let field = match reader.reconstruct_frame::<f32>(f, &dec) {
            Ok(v) => v,
            Err(e) => {
                o.violate(1, format!("verification walk frame {f}: {e}"));
                continue;
            }
        };
        if walk_digests.get(f).is_some_and(|&d| d != check::digest(field.as_slice())) {
            o.violate(1, format!("walk frame {f}: measured walk decoded other values"));
        }
        let bricks: Vec<Field3<f32>> =
            dec_parts.iter().map(|part| field.extract(part.origin, part.dims)).collect();
        for (p, (part, rb)) in dec_parts.iter().zip(&bricks).enumerate() {
            let ob = orig.extract(part.origin, part.dims);
            if let Some(v) = check::bound_violation(
                &format!("walk frame {f} partition {p}"),
                ob.as_slice(),
                rb.as_slice(),
                b.codecs[f][p],
                bound(f, p),
            ) {
                o.violate(1, v);
            }
        }
        for &(p, d) in &points[f] {
            if d != check::digest(bricks[p].as_slice()) {
                o.violate(1, format!("point read ({f}, {p}) decoded other values than the walk"));
            }
        }
        if f % QUALITY_EVERY == 0 {
            spec_err.push(check::spectrum_rel_err(&check::spectrum(orig), &field));
            let catalog = cosmoanalysis::find_halos(orig, &check::halo_config(orig));
            if let Some(e) = check::halo_mass_rel_err(&catalog, &field) {
                halo_err.push(e);
            }
        }
    }
    drop(fields);
    o.set("spectrum_rel_err", stats::median(&spec_err));
    o.set(
        "halo_mass_rel_err",
        if halo_err.is_empty() { f64::NAN } else { stats::median(&halo_err) },
    );
    if halo_err.is_empty() {
        o.violate(0, "no checked frame holds a halo");
    }

    // Storage and framing of the recovered, finished file.
    let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let raw: u64 = (frames * frame_cells * 4) as u64;
    o.set("storage_ratio", raw as f64 / len.max(1) as f64);
    let (mut bytes, mut payload) = (0u64, 0u64);
    for f in 0..frames {
        if f >= frames - horizon {
            bytes += b.frame_bytes[f];
        }
        for p in 0..dec.num_partitions() {
            match reader.container(f, p) {
                Ok(c) => {
                    payload += c.payload_len() as u64;
                    if f < frames - horizon {
                        bytes += c.len() as u64;
                    } else if c.codec() != b.codecs[f][p] {
                        o.violate(1, format!("hot frame {f} partition {p} changed codec"));
                    }
                }
                Err(e) => o.violate(1, format!("container ({f}, {p}): {e}")),
            }
        }
    }
    let expected = check::expected_stream_len(dec.num_partitions(), frames, bytes);
    if expected != len {
        o.violate(1, format!("file is {len} bytes, framing predicts {expected}"));
    }
    drop(reader);

    if ctx.trace {
        let l = Ledger::from_spans(tr.spans());
        for (name, v) in readpath::read_layers(&l) {
            o.set(name, v);
        }
        let traced: Vec<f64> =
            point_ms.iter().zip(&point_traced).filter(|(_, &t)| t).map(|(&m, _)| m).collect();
        o.set("trace.overhead_frac", stats::median(&traced) / stats::median(&untraced) - 1.0);
        o.set("trace.ledger_coverage", readpath::read_coverage(&l));
        o.set("codec_core.checksum_mib_s", l.mib_per_s(readpath::CHECKSUM));
        o.set("codec_core.stream_file.framing_frac", 1.0 - payload as f64 / len.max(1) as f64);
        let zfp: usize = b.codecs.iter().flatten().filter(|&&c| c == CodecId::Zfp).count();
        o.set("codec_core.zfp_share", zfp as f64 / b.codecs.iter().flatten().count().max(1) as f64);
        let trace_file = ctx.trace_dir.join(format!(
            "trace-{}-seed{}-client.jsonl",
            ctx.workload.name(),
            ctx.seed
        ));
        if let Err(e) = crate::trace::write_jsonl(&trace_file, tr.spans()) {
            o.info("trace_file_error", e);
        }
    }

    if let Err(e) = set_up_window(&mut setups, &path, frames, &mut recover_ms) {
        o.violate(1, format!("set-up: {e}"));
        return o;
    }
    o.set("setup_s", setups.median());
    o.info("setup_reps", setups.reps());
    if ctx.trace {
        o.set("codec_core.stream_file.recover_ms", stats::median(&recover_ms));
        // The write-side layers do no work in the measured phase.
        for (name, _) in crate::report::PER_LAYER {
            o.metrics.entry(name).or_insert(0.0);
        }
    }
    o
}
