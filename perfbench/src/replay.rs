//! The single-threaded replay: the traced run's view inside the server's
//! worker, which cannot be entered from outside.
//!
//! For each tenant the replay drives a fresh `StreamSession` with the
//! service's accepted snapshots (and degrade factors) for the decisions —
//! bounds, codecs, refresh tasks — and appends to its own stream file in
//! the worker's order, so its file must be byte-identical to the
//! service's. After each push it re-executes the push's layer calls
//! under spans (`summarize`, `extract_features`, `optimize`, brick
//! `extract`, `Container::compress`, `drift_residuals`) and requires the
//! re-executed decisions and containers to equal the session's: that is
//! what proves the ledger times the real work. Probe spans outside the
//! ledger time the raw codec calls and the payload checksum. Refresh
//! steps and compaction steps run where a worker's idle slots would.
//!
//! The replay runs in a child process pinned to one CPU, so the session's
//! own data-parallel loops run serially: this is also the plain
//! single-threaded baseline of the service.

use crate::ingest::{self, IngestSpec};
use crate::readpath::{self, Reader};
use crate::report::PER_LAYER;
use crate::stats;
use crate::sys;
use crate::trace::{Ledger, Tracer};
use crate::{Ctx, Workload};
use adaptive_config::session::{drift_residuals, Recalibration, SnapshotRecord, StreamSession};
use adaptive_config::PipelineResult;
use codec_core::{
    with_scratch, CodecId, CompactionConfig, CompactionTask, Container, StreamFileWriter,
    SyncPolicy,
};
use gridlab::Field3;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The service's accepted pushes of one tenant: `(k, degrade factor)`
/// in order (factor 1 = not degraded), and its closed stream file.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    pub pushes: Vec<(usize, f64)>,
    pub service_file: PathBuf,
}

#[derive(Debug, Default)]
pub struct ReplayResult {
    pub metrics: Vec<(&'static str, f64)>,
    pub violations: Vec<String>,
    pub pinned: bool,
}

const REPLAY_PUSH: &str = "replay.push";
const CALIBRATING: &str = "adaptive_config.calibrating_push";
const SESSION_PUSH: &str = "adaptive_config.session_push";
const APPEND: &str = "codec_core.stream_file.append_frame";
const CHECKPOINT: &str = "adaptive_config.checkpoint";
const LEDGER: &str = "replay.ledger";
const SUMMARIZE: &str = "gridlab.summarize";
const FEATURES: &str = "adaptive_config.extract_features";
const OPTIMIZE: &str = "adaptive_config.optimize";
const EXTRACT: &str = "gridlab.extract";
const DRIFT: &str = "adaptive_config.drift_residuals";
const PROBE: &str = "replay.probe";
const REFRESH: &str = "adaptive_config.refresh";
const REFRESH_STEP: &str = "adaptive_config.refresh_step";
const COMPACT_BEGIN: &str = "codec_core.stream_file.compact_begin";
const COMPACT_STEP: &str = "codec_core.stream_file.compact_step";
const COMPACT_FINALIZE: &str = "codec_core.stream_file.compact_finalize";

fn container_compress_span(codec: CodecId) -> &'static str {
    match codec {
        CodecId::Rsz => "rsz.container_compress",
        CodecId::Zfp => "zfplite.container_compress",
    }
}

fn raw_compress_span(codec: CodecId) -> &'static str {
    match codec {
        CodecId::Rsz => "rsz.compress_slice",
        CodecId::Zfp => "zfplite.compress_slice",
    }
}

/// Pushes per run whose layers the ledger re-executes (at most about).
const MAX_LEDGER_PUSHES: usize = 400;

/// Spans whose self time the ledger sums against the session push.
const LEDGER_LAYERS: [&str; 7] = [
    SUMMARIZE,
    FEATURES,
    OPTIMIZE,
    EXTRACT,
    "rsz.container_compress",
    "zfplite.container_compress",
    DRIFT,
];

/// Run the replay of `plans` in a child process pinned to one CPU (the
/// current executable with `--replay-plan`), and collect its result.
pub fn run_pinned(ctx: &Ctx, plans: &[TenantPlan]) -> Result<ReplayResult, String> {
    let plan_path = ctx.dir.join("replay.plan");
    let out_path = ctx.dir.join("replay.out");
    let mut plan = format!(
        "workload {}\nseed {}\nsmoke {}\nrate {}\ndir {}\ntrace_dir {}\n",
        ctx.workload.name(),
        ctx.seed,
        u8::from(ctx.smoke),
        ctx.drift_rate_hz,
        ctx.dir.display(),
        ctx.trace_dir.display()
    );
    for (t, p) in plans.iter().enumerate() {
        plan.push_str(&format!("tenant {t} {}\n", p.service_file.display()));
        for &(k, d) in &p.pushes {
            plan.push_str(&format!("push {t} {k} {d}\n"));
        }
    }
    std::fs::write(&plan_path, plan).map_err(|e| format!("write plan: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--replay-plan")
        .arg(&plan_path)
        .arg("--replay-out")
        .arg(&out_path)
        .status()
        .map_err(|e| format!("spawn replay: {e}"))?;
    if !status.success() {
        return Err(format!("replay process exited with {status}"));
    }
    let out = std::fs::read_to_string(&out_path).map_err(|e| format!("read replay result: {e}"))?;
    let mut res = ReplayResult::default();
    for line in out.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "pinned" => res.pinned = rest == "1",
            "violation" => res.violations.push(rest.to_string()),
            "metric" => {
                let (name, v) = rest.split_once(' ').ok_or("bad metric line")?;
                let name = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(n, _)| *n)
                    .ok_or_else(|| format!("unknown replay metric {name}"))?;
                res.metrics.push((name, v.parse().map_err(|_| "bad metric value")?));
            }
            _ => return Err(format!("bad replay line: {line}")),
        }
    }
    Ok(res)
}

/// Entry point of the replay process: pin, rebuild the workload's inputs
/// from the plan's arguments, replay, write the result.
pub fn child_main(plan_path: &Path, out_path: &Path) -> Result<(), String> {
    let pinned = sys::pin_to_one_cpu();
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("read plan: {e}"))?;
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut plans: Vec<TenantPlan> = Vec::new();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').ok_or("bad plan line")?;
        match key {
            "tenant" => {
                let (_, path) = rest.split_once(' ').ok_or("bad tenant line")?;
                plans.push(TenantPlan { pushes: Vec::new(), service_file: path.into() });
            }
            "push" => {
                let f: Vec<&str> = rest.split(' ').collect();
                let t: usize = f[0].parse().map_err(|_| "bad tenant")?;
                let k: usize = f[1].parse().map_err(|_| "bad k")?;
                let d: f64 = f[2].parse().map_err(|_| "bad degrade")?;
                plans[t].pushes.push((k, d));
            }
            _ => {
                kv.insert(key, rest);
            }
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("plan lacks {k}"));
    let workload = Workload::parse(get("workload")?).ok_or("bad workload")?;
    let seed: u64 = get("seed")?.parse().map_err(|_| "bad seed")?;
    let smoke = get("smoke")? == "1";
    let rate: f64 = get("rate")?.parse().map_err(|_| "bad rate")?;
    let dir = PathBuf::from(get("dir")?);
    let trace_dir = PathBuf::from(get("trace_dir")?);
    let spec = ingest::spec(workload, seed, smoke, rate);
    let mut tr = Tracer::new(true, Instant::now());
    let mut res = replay(&spec, &plans, &dir, &mut tr);
    res.pinned = pinned;
    let trace_file = trace_dir.join(format!("trace-{}-seed{seed}-replay.jsonl", workload.name()));
    crate::trace::write_jsonl(&trace_file, tr.spans()).map_err(|e| format!("trace: {e}"))?;
    let mut out = format!("pinned {}\n", u8::from(res.pinned));
    for v in &res.violations {
        out.push_str(&format!("violation {}\n", v.replace('\n', " ")));
    }
    for (n, v) in &res.metrics {
        out.push_str(&format!("metric {n} {v}\n"));
    }
    std::fs::write(out_path, out).map_err(|e| format!("write result: {e}"))
}

/// Per-tenant tallies the ledger does not carry.
#[derive(Default)]
struct Tally {
    refreshes: usize,
    refresh_evals: usize,
    refresh_useful: usize,
    /// Containers the ledger re-compressed (steady-state pushes).
    ledger_containers: u64,
    cold_frames: usize,
    cold_shrunk: usize,
    cold_orig_bytes: u64,
    cold_bytes: u64,
}

/// Replay every tenant's plan, writing `replay-<t>.strm` under `dir`.
pub fn replay(
    spec: &IngestSpec,
    plans: &[TenantPlan],
    dir: &Path,
    tr: &mut Tracer,
) -> ReplayResult {
    let mut res = ReplayResult::default();
    let mut tally = Tally::default();
    for (t, plan) in plans.iter().enumerate() {
        let path = dir.join(format!("replay-{t}.strm"));
        if let Err(e) = replay_tenant(spec, t, plan, &path, tr, &mut tally) {
            res.violations.push(format!("tenant {t}: {e}"));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("strm.ckpt"));
    }
    for v in res.violations.iter_mut() {
        v.insert_str(0, "replay: ");
    }
    res.metrics = ledger_metrics(tr, &tally);
    res
}

fn replay_tenant(
    spec: &IngestSpec,
    t: usize,
    plan: &TenantPlan,
    path: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let ts = &spec.tenants[t];
    let parts = spec.dec.num_partitions();
    let ckpt = path.with_extension("strm.ckpt");
    let mut session = StreamSession::new(ts.session.clone());
    let base = ts.session.policy;
    let threshold = ts.session.drift_threshold;
    let mut writer = StreamFileWriter::create_with(path, parts, SyncPolicy::Flush)
        .map_err(|e| format!("create replay stream: {e}"))?;
    let compaction = ts.compaction.as_ref().map(|c| {
        let cfg = CompactionConfig::new(c.horizon, c.eb);
        (c.codec.map_or(cfg, |codec| cfg.with_codec(codec)), c.min_batch.max(1))
    });
    let bricks_of = |field: &Field3<f32>| -> Vec<Field3<f32>> {
        spec.dec.iter().map(|p| field.extract(p.origin, p.dims)).collect()
    };
    let mut frame_bytes = Vec::with_capacity(plan.pushes.len());
    // Re-execute the ledger on at most about MAX_LEDGER_PUSHES pushes
    // per run (evenly spaced) to bound the replay's time.
    let stride = (plan.pushes.len() * spec.tenants.len()).div_ceil(MAX_LEDGER_PUSHES).max(1);
    let mut refreshed_before = false;
    for (j, &(k, degrade)) in plan.pushes.iter().enumerate() {
        let field = ts.field(k);
        let req = (t as u64, j as u64);
        let root = tr.open(REPLAY_PUSH, req);
        if degrade > 1.0 {
            session.set_policy(base.relax(degrade));
        }
        let s = tr.open(if j == 0 { CALIBRATING } else { SESSION_PUSH }, req);
        let pushed = session.push_snapshot_deferred(field);
        tr.close(s);
        session.set_policy(base);
        let (record, deferred) = match pushed {
            Ok(v) => v,
            Err(e) => {
                tr.close(root);
                return Err(format!("push {j}: {e}"));
            }
        };
        let s = tr.open(APPEND, req);
        let appended = writer.append_frame(&record.result.containers);
        tr.close(s);
        appended.map_err(|e| format!("append {j}: {e}"))?;
        if session.should_checkpoint() {
            let s = tr.open(CHECKPOINT, req);
            let saved = session.save_to(&ckpt);
            tr.close(s);
            saved.map_err(|e| format!("checkpoint {j}: {e}"))?;
        }
        tr.close(root);
        frame_bytes.push(record.result.compressed_bytes as u64);

        if record.stats.recalibration != Recalibration::Full && j % stride == 0 {
            // The probe runs before the ledger on every other ledger push,
            // so warm caches favour neither side of `wrap_us`.
            tally.ledger_containers += parts as u64;
            if (j / stride) % 2 == 1 {
                probe(&bricks_of(field), &record.result, tr, req);
                ledger(&session, field, &record, &bricks_of, tr, req)
                    .map_err(|e| format!("push {j}: {e}"))?;
            } else {
                let bricks = ledger(&session, field, &record, &bricks_of, tr, req)
                    .map_err(|e| format!("push {j}: {e}"))?;
                probe(&bricks, &record.result, tr, req);
            }
        }

        if refreshed_before {
            tally.refresh_evals += 1;
            if record.stats.drift_residual <= threshold {
                tally.refresh_useful += 1;
            }
        }
        refreshed_before = deferred.is_some();
        if let Some(mut task) = deferred {
            let r = tr.open(REFRESH, req);
            while !task.is_done() {
                tr.scope(REFRESH_STEP, req, || task.step());
            }
            tr.close(r);
            session.install_refresh(task);
            tally.refreshes += 1;
        }
        if let Some((cfg, min_batch)) = compaction {
            let backlog =
                writer.frames().saturating_sub(writer.cold_frames()).saturating_sub(cfg.horizon);
            if backlog >= min_batch {
                compact(&mut writer, cfg, tr, req)?;
            }
        }
    }
    if let Some((cfg, _)) = compaction {
        compact(&mut writer, cfg, tr, (t as u64, plan.pushes.len() as u64))?;
    }
    writer.finish().map_err(|e| format!("finish: {e}"))?;

    let ours = std::fs::read(path).map_err(|e| format!("read replay stream: {e}"))?;
    let theirs =
        std::fs::read(&plan.service_file).map_err(|e| format!("read service stream: {e}"))?;
    if ours != theirs {
        let at = ours
            .iter()
            .zip(&theirs)
            .position(|(a, b)| a != b)
            .unwrap_or(ours.len().min(theirs.len()));
        return Err(format!(
            "replay stream ({} bytes) differs from the service's ({} bytes) at byte {at}",
            ours.len(),
            theirs.len()
        ));
    }
    let reader = Reader::open(path).map_err(|e| format!("open replay stream: {e}"))?;
    for (f, &orig) in frame_bytes.iter().enumerate().take(reader.cold_frames()) {
        let mut bytes = 0u64;
        for p in 0..parts {
            bytes +=
                reader.container(f, p).map_err(|e| format!("cold frame {f}: {e}"))?.len() as u64;
        }
        tally.cold_frames += 1;
        tally.cold_shrunk += usize::from(bytes < orig);
        tally.cold_orig_bytes += orig;
        tally.cold_bytes += bytes;
    }
    Ok(())
}

/// Re-execute one push's layer calls under spans, in the worker's order,
/// and require the decisions, containers and residuals to equal the
/// session's. Returns the bricks for the probe.
fn ledger(
    session: &StreamSession,
    field: &Field3<f32>,
    record: &SnapshotRecord,
    bricks_of: &dyn Fn(&Field3<f32>) -> Vec<Field3<f32>>,
    tr: &mut Tracer,
    req: (u64, u64),
) -> Result<Vec<Field3<f32>>, String> {
    let pipeline = session.pipeline().expect("a pushed session is calibrated");
    let bank = session.models().expect("a pushed session is calibrated");
    let l = tr.open(LEDGER, req);
    let sigma = tr.scope(SUMMARIZE, req, || gridlab::stats::summarize(field.as_slice()).std_dev());
    std::hint::black_box(sigma);
    let feats = tr.scope(FEATURES, req, || pipeline.extract_features(field));
    let target = pipeline.config().target;
    let decision = tr.scope(OPTIMIZE, req, || pipeline.optimizer.optimize(&feats, &target));
    let bricks = tr.scope(EXTRACT, req, || bricks_of(field));
    let (ebs, codecs) = (&record.result.ebs, &record.result.codecs);
    let mut same = decision.ebs == *ebs && decision.codecs == *codecs;
    for codec in CodecId::ALL {
        let ids: Vec<usize> = (0..codecs.len()).filter(|&p| codecs[p] == codec).collect();
        if ids.is_empty() {
            continue;
        }
        let s = tr.open(container_compress_span(codec), req);
        let mut bytes = 0u64;
        for &p in &ids {
            let c = Container::compress(codec, bricks[p].as_slice(), bricks[p].dims(), ebs[p]);
            bytes += (bricks[p].len() * 4) as u64;
            same &= c == record.result.containers[p];
        }
        tr.close_with(s, bytes);
    }
    let residuals = tr.scope(DRIFT, req, || drift_residuals(&record.result, bank));
    same &= residuals == record.residuals;
    tr.close(l);
    if same {
        Ok(bricks)
    } else {
        Err("re-executed layers differ from the session's output".into())
    }
}

/// Probe spans outside the ledger: each codec's raw compress call over
/// the push's bricks at the chosen bounds, and the payload checksum.
fn probe(bricks: &[Field3<f32>], result: &PipelineResult, tr: &mut Tracer, req: (u64, u64)) {
    let s = tr.open(PROBE, req);
    for codec in CodecId::ALL {
        let ids: Vec<usize> = (0..bricks.len()).filter(|&p| result.codecs[p] == codec).collect();
        if ids.is_empty() {
            continue;
        }
        let r = tr.open(raw_compress_span(codec), req);
        let mut bytes = 0u64;
        for &p in &ids {
            let b = &bricks[p];
            let eb = result.ebs[p];
            let payload =
                with_scratch(|sc| codec.compress_slice_with(b.as_slice(), b.dims(), eb, sc));
            std::hint::black_box(payload);
            bytes += (b.len() * 4) as u64;
        }
        tr.close_with(r, bytes);
    }
    readpath::checksum_probe(&result.containers, tr, req);
    tr.close(s);
}

/// One compaction run to the policy's horizon, stepped frame by frame.
fn compact(
    writer: &mut StreamFileWriter,
    cfg: CompactionConfig,
    tr: &mut Tracer,
    req: (u64, u64),
) -> Result<(), String> {
    let begun = tr.scope(COMPACT_BEGIN, req, || CompactionTask::begin(writer, cfg));
    let Some(mut task) = begun.map_err(|e| format!("compaction begin: {e}"))? else {
        return Ok(());
    };
    while !task.is_done() {
        tr.scope(COMPACT_STEP, req, || task.step::<f32>())
            .map_err(|e| format!("compaction step: {e}"))?;
    }
    tr.scope(COMPACT_FINALIZE, req, || task.finalize(writer))
        .map_err(|e| format!("compaction finalize: {e}"))?;
    Ok(())
}

fn ledger_metrics(tr: &Tracer, tally: &Tally) -> Vec<(&'static str, f64)> {
    let spans = tr.spans();
    let l = Ledger::from_spans(spans);
    // Ledger coverage over the re-executed steady-state pushes: the
    // layers' time over the real session push they re-execute. Append
    // and checkpoint are outside the session push and reported apart.
    let mut per_req: HashMap<(u64, u64), [f64; 2]> = HashMap::new();
    for s in spans {
        let slot = match s.name {
            n if LEDGER_LAYERS.contains(&n) => 0,
            SESSION_PUSH => 1,
            _ => continue,
        };
        per_req.entry(s.req).or_default()[slot] += s.dur_ns() as f64;
    }
    let (mut num, mut den) = (0.0, 0.0);
    for v in per_req.values().filter(|v| v[0] > 0.0 && v[1] > 0.0) {
        num += v[0];
        den += v[1];
    }
    let steady_push: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == REPLAY_PUSH && s.req.1 > 0)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let wrap_ms: f64 = CodecId::ALL
        .iter()
        .map(|&c| l.total_ms(container_compress_span(c)) - l.total_ms(raw_compress_span(c)))
        .sum();
    let frac = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let refresh_totals: Vec<f64> = l.durations(REFRESH).to_vec();
    vec![
        ("adaptive_config.calibrate_ms", l.median_ms(CALIBRATING)),
        ("adaptive_config.features_ms", l.median_ms(FEATURES)),
        ("adaptive_config.optimize_ms", l.median_ms(OPTIMIZE)),
        ("adaptive_config.drift_ms", l.median_ms(DRIFT)),
        (
            "adaptive_config.refresh_ms",
            if refresh_totals.is_empty() { 0.0 } else { stats::median(&refresh_totals) },
        ),
        ("adaptive_config.refreshes", tally.refreshes as f64),
        ("adaptive_config.refresh_useful_frac", frac(tally.refresh_useful, tally.refresh_evals)),
        ("gridlab.extract_ms", l.median_ms(EXTRACT)),
        ("gridlab.summarize_ms", l.median_ms(SUMMARIZE)),
        ("rsz.compress_mib_s", l.mib_per_s(raw_compress_span(CodecId::Rsz))),
        ("zfplite.compress_mib_s", l.mib_per_s(raw_compress_span(CodecId::Zfp))),
        ("codec_core.wrap_us", wrap_ms * 1e3 / tally.ledger_containers.max(1) as f64),
        ("codec_core.checksum_mib_s", l.mib_per_s(readpath::CHECKSUM)),
        ("codec_core.stream_file.append_ms", l.median_ms(APPEND)),
        ("codec_core.stream_file.compact_step_ms", l.median_ms(COMPACT_STEP)),
        ("codec_core.stream_file.compact_shrunk_frac", frac(tally.cold_shrunk, tally.cold_frames)),
        (
            "codec_core.stream_file.compact_saved_frac",
            if tally.cold_orig_bytes > 0 {
                1.0 - tally.cold_bytes as f64 / tally.cold_orig_bytes as f64
            } else {
                0.0
            },
        ),
        ("trace.ledger_coverage", if den > 0.0 { num / den } else { 0.0 }),
        ("trace.replay_push_ms", stats::median(&steady_push)),
    ]
}
