//! `ingest_nyx` (closed loop) and `ingest_drift_open` (open loop): tenants
//! push pre-generated snapshots through a `StreamServer` into durable
//! stream files; after the measured phase the files are closed, checked
//! and read back.

use crate::check;
use crate::inputs::{self, Family};
use crate::readpath::{self, Reader};
use crate::replay::{self, TenantPlan};
use crate::report::{Outcome, MIB};
use crate::stats;
use crate::sys;
use crate::trace::{traced_at, Ledger, Tracer};
use crate::{Ctx, Setups, Workload};
use adaptive_config::session::{QualityPolicy, Recalibration, SessionConfig, StreamSession};
use codec_core::{CodecId, Container, SyncPolicy};
use cosmoanalysis::HaloFinderConfig;
use gridlab::{Decomposition, Field3};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use stream_server::{
    CompactionPolicy, PushOutcome, PushTicket, ServerConfig, ServerError, StreamServer,
    TenantConfig, TenantId,
};

/// Bounded per-shard queue of the server (its default).
pub const QUEUE_CAPACITY: usize = 16;
/// Tenants auto-checkpoint their session every this many snapshots.
pub const CHECKPOINT_EVERY: usize = 32;
/// `SigmaScaled` fraction: each snapshot's average bound is 0.1 σ.
pub const SIGMA_FRACTION: f64 = 0.1;
/// Leading pushes per tenant whose containers the end-to-end run keeps
/// and re-derives with a fresh session (the untraced identity check).
const PREFIX_CHECK: usize = 4;
/// Seconds of the read-back phase, frames its walk covers, and point
/// reads between two walked frames.
const READ_BACK_S: f64 = 3.0;
const WALK_FRAMES: usize = 128;
const POINTS_PER_FRAME: usize = 4;
/// Hot walked frames per tenant the spectrum and halo finder run on.
const QUALITY_FRAMES: usize = 8;
/// Redeemer poll interval of the open loop while replies are pending.
const POLL: Duration = Duration::from_micros(100);
/// The open loop is invalid when its generator's p90 lateness exceeds
/// this: wake-up jitter on a busy 2-vCPU guest reaches ~15 ms, so more
/// means the generator could not hold its schedule.
pub const MAX_GEN_LAG_P90_MS: f64 = 50.0;

/// One tenant: its snapshot pool and registration.
pub struct TenantSpec {
    pub name: String,
    pub pool: Vec<Field3<f32>>,
    /// Walk the pool back and forth (smooth series) instead of cycling.
    pub ping_pong: bool,
    pub session: SessionConfig,
    pub compaction: Option<CompactionPolicy>,
    pub halo: HaloFinderConfig,
}

impl TenantSpec {
    /// Pool index of the tenant's `k`-th snapshot (k = 0 is the set-up push).
    pub fn index(&self, k: usize) -> usize {
        if self.ping_pong {
            inputs::ping_pong(k, self.pool.len())
        } else {
            k % self.pool.len()
        }
    }

    pub fn field(&self, k: usize) -> &Field3<f32> {
        &self.pool[self.index(k)]
    }

    pub fn cold_eb(&self) -> f64 {
        self.compaction.as_ref().map_or(0.0, |c| c.eb)
    }
}

pub struct IngestSpec {
    pub n: usize,
    pub dec: Decomposition,
    pub tenants: Vec<TenantSpec>,
    /// Offered pushes per second across tenants (open loop only).
    pub rate_hz: Option<f64>,
}

/// The workload's inputs and tenant registrations: a pure function of
/// the arguments (the replay process rebuilds it from them).
pub fn spec(workload: Workload, seed: u64, smoke: bool, rate_hz: f64) -> IngestSpec {
    let (n, pool) = if smoke { (16, 4) } else { (64, 12) };
    match workload {
        Workload::IngestNyx => {
            let parts = if smoke { 2 } else { 4 };
            let dec = Decomposition::cubic(n, parts).expect("parts divide n");
            let redshifts: Vec<f64> = (0..pool).map(|j| 54.0 - j as f64).collect();
            let tenants = (0..2)
                .map(|t| {
                    let fields =
                        inputs::nyx_density_series(n, inputs::mix(seed, t + 1), &redshifts);
                    let halo = check::halo_config(&fields[0]);
                    let budget =
                        (1e-3 * cosmoanalysis::find_halos(&fields[0], &halo).total_mass()).max(1.0);
                    let session =
                        SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(SIGMA_FRACTION))
                            .with_halo(halo.t_boundary, budget)
                            .with_checkpoint_every(CHECKPOINT_EVERY);
                    TenantSpec {
                        name: format!("nyx_baryon_density_{t}"),
                        pool: fields,
                        ping_pong: true,
                        session,
                        compaction: None,
                        halo,
                    }
                })
                .collect();
            IngestSpec { n, dec, tenants, rate_hz: None }
        }
        Workload::IngestDriftOpen => {
            let parts = if smoke { 2 } else { 8 };
            let horizon = if smoke { 2 } else { 8 };
            let dec = Decomposition::cubic(n, parts).expect("parts divide n");
            let tenants = Family::ALL
                .iter()
                .enumerate()
                .map(|(t, fam)| {
                    let fields = fam.pool(n, inputs::mix(seed, 100 + t as u64), pool);
                    // The cold bound is looser than any snapshot's own
                    // bound, so re-tiering always has room to shrink.
                    let max_eb = fields
                        .iter()
                        .map(|f| SIGMA_FRACTION * gridlab::stats::summarize(f.as_slice()).std_dev())
                        .fold(0.0, f64::max);
                    let compaction = CompactionPolicy::new(horizon, 2.0 * max_eb.max(1e-6))
                        .with_min_batch(horizon);
                    let halo = check::halo_config(&fields[0]);
                    let session =
                        SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(SIGMA_FRACTION))
                            .with_codecs(&CodecId::ALL)
                            .with_checkpoint_every(CHECKPOINT_EVERY);
                    TenantSpec {
                        name: fam.name().to_string(),
                        pool: fields,
                        ping_pong: false,
                        session,
                        compaction: Some(compaction),
                        halo,
                    }
                })
                .collect();
            IngestSpec { n, dec, tenants, rate_hz: Some(rate_hz) }
        }
        Workload::ReadbackTiered => unreachable!("not an ingest workload"),
    }
}

/// One accepted push, as the client saw it.
#[derive(Debug)]
pub struct PushRec {
    /// The tenant's snapshot index (pool position via `TenantSpec::index`).
    pub k: usize,
    /// Closed loop: call to reply. Open loop: due time to reply.
    pub latency_ms: f64,
    /// Reply time, seconds after the measured phase began.
    pub done_s: f64,
    pub degraded: Option<f64>,
    pub raw: u64,
    /// Container bytes and payload bytes of the frame.
    pub comp: u64,
    pub payload: u64,
    pub ebs: Vec<f64>,
    pub codecs: Vec<CodecId>,
    pub drift: f64,
    pub recal: Recalibration,
    pub traced: bool,
    /// The frame's containers, for the leading pushes only.
    pub containers: Option<Vec<Container>>,
}

impl PushRec {
    fn new(k: usize, out: PushOutcome, latency: Duration, done_s: f64, traced: bool) -> Self {
        let r = out.record.result;
        let payload = r.containers.iter().map(|c| c.payload_len() as u64).sum();
        Self {
            k,
            latency_ms: latency.as_secs_f64() * 1e3,
            done_s,
            degraded: out.degraded,
            raw: r.original_bytes as u64,
            comp: r.compressed_bytes as u64,
            payload,
            ebs: r.ebs,
            codecs: r.codecs,
            drift: out.record.stats.drift_residual,
            recal: out.record.stats.recalibration,
            traced,
            containers: (k < PREFIX_CHECK).then_some(r.containers),
        }
    }
}

struct Service {
    server: StreamServer<f32>,
    ids: Vec<TenantId>,
    paths: Vec<PathBuf>,
    first: Vec<PushRec>,
    setup_s: f64,
}

fn stream_path(dir: &Path, t: usize) -> PathBuf {
    dir.join(format!("tenant-{t}.strm"))
}

fn ckpt_path(p: &Path) -> PathBuf {
    let mut os = p.as_os_str().to_owned();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// Timed set-up: server start, tenant registration, and each tenant's
/// first (full-calibration) push. The first pushes run one at a time:
/// concurrent calibrations oversubscribe the CPUs with their data-parallel
/// fan-outs, and the scheduling noise that adds swung the median set-up
/// by a third between runs.
fn start(spec: &IngestSpec, dir: &Path) -> Result<Service, String> {
    let fields: Vec<Field3<f32>> = spec.tenants.iter().map(|t| t.field(0).clone()).collect();
    let paths: Vec<PathBuf> = (0..spec.tenants.len()).map(|t| stream_path(dir, t)).collect();
    for p in &paths {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(ckpt_path(p));
    }
    let t0 = Instant::now();
    let server = StreamServer::<f32>::start(ServerConfig {
        workers: sys::nproc(),
        queue_capacity: QUEUE_CAPACITY,
        ..ServerConfig::default()
    });
    let mut ids = Vec::new();
    for (t, p) in spec.tenants.iter().zip(&paths) {
        let mut cfg = TenantConfig::new(t.session.clone()).with_stream(p, SyncPolicy::Flush);
        if let Some(c) = &t.compaction {
            cfg = cfg.with_compaction(c.clone());
        }
        ids.push(server.register(cfg).map_err(|e| format!("register {}: {e}", t.name))?);
    }
    let mut first = Vec::new();
    for (&id, f) in ids.iter().zip(fields) {
        let out = server
            .try_push(id, f)
            .and_then(PushTicket::wait)
            .map_err(|e| format!("first push: {e}"))?;
        first.push(PushRec::new(0, out, t0.elapsed(), 0.0, false));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Service { server, ids, paths, first, setup_s })
}

/// What the load loop observed.
#[derive(Default)]
struct Load {
    recs: Vec<Vec<PushRec>>,
    refused: u64,
    errors: Vec<String>,
    attempted: u64,
    lag_ms: Vec<f64>,
    /// Last reply, seconds after the measured phase began.
    elapsed_s: f64,
    tracers: Vec<Tracer>,
    /// CPU seconds of the open loop's redeemer thread.
    redeemer_cpu_s: f64,
}

/// Closed loop: one client thread per tenant, each blocking on its push.
fn closed_loop(
    spec: &IngestSpec,
    svc: &Service,
    start: Instant,
    seconds: f64,
    trace: bool,
) -> Load {
    let deadline = start + Duration::from_secs_f64(seconds);
    let server = &svc.server;
    let per_tenant: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = spec
            .tenants
            .iter()
            .zip(&svc.ids)
            .enumerate()
            .map(|(t, (ts, &id))| {
                s.spawn(move || {
                    let mut tr = Tracer::new(false, start);
                    let (mut recs, mut refused, mut errors, mut attempted) =
                        (Vec::new(), 0u64, Vec::new(), 0u64);
                    let mut last = start;
                    let mut k = 1;
                    let mut next = ts.field(k).clone();
                    while Instant::now() < deadline {
                        let traced = traced_at(trace, start, Instant::now());
                        tr.set_enabled(traced);
                        let req = (t as u64, k as u64);
                        attempted += 1;
                        let root = tr.open("stream_server.push", req);
                        let t0 = Instant::now();
                        let a = tr.open("stream_server.try_push", req);
                        let admitted = server.try_push(id, next);
                        tr.close(a);
                        match admitted {
                            Ok(ticket) => {
                                let w = tr.open("stream_server.wait", req);
                                let reply = ticket.wait();
                                tr.close(w);
                                last = Instant::now();
                                match reply {
                                    Ok(out) => {
                                        let done = (last - start).as_secs_f64();
                                        recs.push(PushRec::new(k, out, last - t0, done, traced))
                                    }
                                    Err(e) => errors.push(format!("tenant {t} push {k}: {e}")),
                                }
                            }
                            Err(ServerError::Overloaded { .. }) => refused += 1,
                            Err(e) => errors.push(format!("tenant {t} push {k}: {e}")),
                        }
                        tr.close(root);
                        k += 1;
                        next = ts.field(k).clone();
                    }
                    (recs, refused, errors, attempted, last, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut load = Load::default();
    for (recs, refused, errors, attempted, last, tr) in per_tenant {
        load.recs.push(recs);
        load.refused += refused;
        load.errors.extend(errors);
        load.attempted += attempted;
        load.elapsed_s = load.elapsed_s.max((last - start).as_secs_f64());
        load.tracers.push(tr);
    }
    load
}

struct InFlight {
    t: usize,
    k: usize,
    due: Instant,
    traced: bool,
    ticket: PushTicket,
}

/// Due time of the `i`-th push of an open loop at `rate_hz`.
pub fn due_at(start: Instant, i: usize, rate_hz: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate_hz)
}

/// Open loop: a generator issues `try_push` on a fixed schedule
/// (round-robin over tenants) whatever the server does; a second thread
/// redeems the tickets. Latency runs from each push's due time.
fn open_loop(spec: &IngestSpec, svc: &Service, start: Instant, seconds: f64, trace: bool) -> Load {
    let rate = spec.rate_hz.expect("open loop has a rate");
    let total = (seconds * rate).floor() as usize;
    let tenants = spec.tenants.len();
    let server = &svc.server;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (gen, red) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut tr = Tracer::new(false, start);
            let (mut refused, mut errors, mut lag_ms) = (0u64, Vec::new(), Vec::new());
            for i in 0..total {
                let (t, k) = (i % tenants, 1 + i / tenants);
                let field = spec.tenants[t].field(k).clone();
                let due = due_at(start, i, rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                let traced = traced_at(trace, start, due);
                tr.set_enabled(traced);
                let req = (t as u64, k as u64);
                let a = tr.open("stream_server.try_push", req);
                let admitted = server.try_push(svc.ids[t], field);
                tr.close(a);
                match admitted {
                    Ok(ticket) => {
                        tx.send(InFlight { t, k, due, traced, ticket }).expect("redeemer alive")
                    }
                    Err(ServerError::Overloaded { .. }) => refused += 1,
                    Err(e) => errors.push(format!("tenant {t} push {k}: {e}")),
                }
            }
            drop(tx);
            (refused, errors, lag_ms, tr)
        });
        let red = s.spawn(move || {
            let cpu0 = sys::thread_cpu_seconds();
            let mut tr = Tracer::new(false, start);
            let mut pending: Vec<InFlight> = Vec::new();
            let mut done: Vec<(usize, PushRec)> = Vec::new();
            let mut errors = Vec::new();
            let mut last = start;
            let mut open = true;
            while open || !pending.is_empty() {
                if pending.is_empty() {
                    // Nothing to redeem: sleep until the generator admits
                    // a push (or finishes).
                    match rx.recv() {
                        Ok(f) => pending.push(f),
                        Err(mpsc::RecvError) => open = false,
                    }
                    continue;
                }
                let mut progressed = false;
                loop {
                    match rx.try_recv() {
                        Ok(f) => {
                            pending.push(f);
                            progressed = true;
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut i = 0;
                while i < pending.len() {
                    let Some(reply) = pending[i].ticket.try_wait() else {
                        i += 1;
                        continue;
                    };
                    let now = Instant::now();
                    let f = pending.swap_remove(i);
                    progressed = true;
                    last = now;
                    tr.set_enabled(f.traced);
                    tr.record("stream_server.due_to_reply", (f.t as u64, f.k as u64), f.due, now);
                    match reply {
                        Ok(out) => {
                            let at = (now - start).as_secs_f64();
                            done.push((f.t, PushRec::new(f.k, out, now - f.due, at, f.traced)))
                        }
                        Err(e) => errors.push(format!("tenant {} push {}: {e}", f.t, f.k)),
                    }
                }
                if !progressed {
                    std::thread::sleep(POLL);
                }
            }
            (done, errors, last, tr, sys::thread_cpu_seconds() - cpu0)
        });
        (gen.join().expect("generator panicked"), red.join().expect("redeemer panicked"))
    });
    let (refused, gen_errors, lag_ms, gen_tr) = gen;
    let (done, red_errors, last, red_tr, redeemer_cpu_s) = red;
    let mut recs: Vec<Vec<PushRec>> = (0..tenants).map(|_| Vec::new()).collect();
    for (t, r) in done {
        recs[t].push(r);
    }
    for r in &mut recs {
        r.sort_by_key(|p| p.k);
    }
    let mut errors = gen_errors;
    errors.extend(red_errors);
    Load {
        recs,
        refused,
        errors,
        attempted: total as u64,
        lag_ms,
        elapsed_s: (last - start).as_secs_f64(),
        tracers: vec![gen_tr, red_tr],
        redeemer_cpu_s,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let spec = spec(ctx.workload, ctx.seed, ctx.smoke, ctx.drift_rate_hz);
    let mut o = Outcome::default();
    let open = spec.rate_hz.is_some();
    o.info("loop", if open { "open" } else { "closed" });
    o.info("load_threads", if open { 2 } else { spec.tenants.len() });
    o.info("server_workers", sys::nproc());
    o.info("queue_capacity", QUEUE_CAPACITY);
    o.info("offered_rate_hz", spec.rate_hz.map_or("n/a (closed loop)".into(), |r| r.to_string()));
    o.info("flush", "SyncPolicy::Flush (page cache; not a device flush)");
    o.info("tenants", spec.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join(","));
    o.info("field", format!("{0}x{0}x{0} f32", spec.n));
    o.info("partitions", spec.dec.num_partitions());
    o.info("pool_per_tenant", spec.tenants[0].pool.len());
    o.info("codecs", if open { "rsz+zfp (joint choice)" } else { "rsz" });
    o.info("policy", format!("SigmaScaled({SIGMA_FRACTION})"));

    // Set-up, repeated; the last one of the first window serves the
    // measured phase. The later windows set up in a directory of their
    // own, away from the measured service's files.
    crate::reset_peak_rss(&mut o);
    let mut setups = Setups::new(ctx.smoke);
    let mut svc = match set_up_window(&mut setups, &spec, &ctx.dir) {
        Ok(s) => s,
        Err(e) => {
            o.violate(1, format!("set-up failed: {e}"));
            return o;
        }
    };
    let later_dir = ctx.dir.join("setup");
    if let Err(e) = std::fs::create_dir_all(&later_dir) {
        o.violate(1, format!("create {}: {e}", later_dir.display()));
        return o;
    }

    // Measured phase.
    let cpu0 = sys::cpu_seconds();
    let steal0 = sys::steal_ticks();
    let t_start = Instant::now();
    let mut load = if open {
        open_loop(&spec, &svc, t_start, ctx.seconds, ctx.trace)
    } else {
        closed_loop(&spec, &svc, t_start, ctx.seconds, ctx.trace)
    };
    let cpu_s = sys::cpu_seconds() - cpu0;
    o.set("peak_rss_mib", sys::peak_rss_mib());
    o.info("host_steal_frac", format!("{:.3}", sys::steal_frac(steal0)));
    if open {
        o.info("redeemer_cpu_frac", format!("{:.4}", load.redeemer_cpu_s / cpu_s.max(1e-9)));
    }
    o.attempted = load.attempted;
    o.failed += load.refused + load.errors.len() as u64;
    for e in load.errors.iter().take(5) {
        o.violations.push(format!("push failed: {e}"));
    }

    let measured: Vec<&PushRec> = load.recs.iter().flatten().collect();
    let raw: u64 = measured.iter().map(|r| r.raw).sum();
    let lat: Vec<f64> = measured.iter().map(|r| r.latency_ms).collect();
    o.set("ingest_mib_s", ingest_rate(&measured, raw, load.elapsed_s, open));
    o.set("push_p50_ms", stats::median(&lat));
    o.set("push_p90_ms", stats::quantile(&lat, 0.9));
    o.set("cpu_ms_per_mib", cpu_s * 1e3 / (raw as f64 / MIB).max(1e-9));
    o.info("measured_s", format!("{:.3}", load.elapsed_s));
    o.info("pushes_accepted", measured.len());
    if !ctx.smoke && !stats::percentile_supported(lat.len(), 0.9) {
        o.violate(0, format!("{} push samples cannot support p90", lat.len()));
    }
    if open {
        let lag90 = stats::quantile(&load.lag_ms, 0.9);
        o.info("gen_lag_p90_ms", format!("{lag90:.3}"));
        if lag90 > MAX_GEN_LAG_P90_MS {
            o.violate(0, format!("generator fell behind: p90 lateness {lag90:.2} ms"));
        }
    }

    // Tenant i's frames: its set-up push then its accepted pushes.
    let first = std::mem::take(&mut svc.first);
    for (t, f) in first.into_iter().enumerate() {
        load.recs[t].insert(0, f);
    }
    let recs = load.recs;

    // Close (finishes compaction and writes trailers) and shut down.
    let mut file_lens = Vec::new();
    for (t, &id) in svc.ids.iter().enumerate() {
        match svc.server.close_tenant(id) {
            Ok(Some(n)) => file_lens.push(n),
            other => {
                o.violate(1, format!("close tenant {t}: {other:?}"));
                return o;
            }
        }
    }
    if let Err(e) = svc.server.shutdown() {
        o.violate(1, format!("shutdown: {e}"));
    }
    if let Err(e) = set_up_window(&mut setups, &spec, &later_dir).map(shut_down) {
        o.violate(1, format!("set-up failed: {e}"));
        return o;
    }

    let mut ledger_tr = Tracer::new(ctx.trace, t_start);
    for tr in load.tracers.drain(..) {
        ledger_tr.absorb(tr);
    }
    verify_files(&spec, &svc.paths, &recs, &file_lens, &mut o);
    prefix_identity(&spec, &recs, &mut o);
    read_back(ctx, &spec, &svc.paths, &recs, &mut o, &mut ledger_tr);

    if ctx.trace {
        per_layer(ctx, &svc.paths, &recs, &load.lag_ms, load.refused, &ledger_tr, &mut o);
    }
    if let Err(e) = set_up_window(&mut setups, &spec, &later_dir).map(shut_down) {
        o.violate(1, format!("set-up failed: {e}"));
        return o;
    }
    o.set("setup_s", setups.median());
    o.info("setup_reps", setups.reps());
    o
}

/// One set-up window in `dir`; every service but the last is shut down
/// before the next set-up starts. Returns the last, running service.
fn set_up_window(setups: &mut Setups, spec: &IngestSpec, dir: &Path) -> Result<Service, String> {
    let mut svc: Option<Service> = None;
    setups.window(|| {
        if let Some(old) = svc.take() {
            shut_down(old);
        }
        let s = start(spec, dir)?;
        let secs = s.setup_s;
        svc = Some(s);
        Ok(secs)
    })?;
    Ok(svc.expect("a window sets up at least once"))
}

fn shut_down(svc: Service) {
    let _ = svc.server.shutdown();
}

/// Ingest throughput in MiB/s. Closed loop: the median over the
/// measured phase's whole seconds of the raw MiB accepted in each (robust
/// to a burst of lost CPU). Open loop: all accepted MiB over the time to
/// the last reply — it equals the offered rate unless the server falls
/// behind its schedule.
fn ingest_rate(measured: &[&PushRec], raw: u64, elapsed_s: f64, open: bool) -> f64 {
    let windows = elapsed_s.floor() as usize;
    if open || windows < 3 {
        return raw as f64 / MIB / elapsed_s;
    }
    let mut per_s = vec![0u64; windows];
    for r in measured {
        if let Some(w) = per_s.get_mut(r.done_s as usize) {
            *w += r.raw;
        }
    }
    let mib: Vec<f64> = per_s.iter().map(|&b| b as f64 / MIB).collect();
    stats::median(&mib)
}

/// On-disk length equals Σ container bytes plus the documented header,
/// footer and trailer framing; also the storage ratio and framing share.
fn verify_files(
    spec: &IngestSpec,
    paths: &[PathBuf],
    recs: &[Vec<PushRec>],
    file_lens: &[u64],
    o: &mut Outcome,
) {
    let parts = spec.dec.num_partitions();
    let (mut raw, mut disk, mut payload) = (0u64, 0u64, 0u64);
    for (t, path) in paths.iter().enumerate() {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let ckpt = std::fs::metadata(ckpt_path(path)).map(|m| m.len()).unwrap_or(0);
        raw += recs[t].iter().map(|r| r.raw).sum::<u64>();
        disk += len + ckpt;
        if len != file_lens[t] {
            o.violate(
                1,
                format!("tenant {t}: file is {len} bytes, close reported {}", file_lens[t]),
            );
        }
        let reader = match Reader::open(path) {
            Ok(r) => r,
            Err(e) => {
                o.violate(1, format!("tenant {t}: open closed stream: {e}"));
                continue;
            }
        };
        if reader.frames() != recs[t].len() {
            o.violate(
                1,
                format!("tenant {t}: {} frames, {} pushes", reader.frames(), recs[t].len()),
            );
            continue;
        }
        let cold = reader.cold_frames();
        let (mut bytes, mut cold_payload) = (0u64, 0u64);
        for f in 0..cold {
            for p in 0..parts {
                match reader.container(f, p) {
                    Ok(c) => {
                        bytes += c.len() as u64;
                        cold_payload += c.payload_len() as u64;
                    }
                    Err(e) => o.violate(1, format!("tenant {t} cold frame {f}/{p}: {e}")),
                }
            }
        }
        bytes += recs[t][cold..].iter().map(|r| r.comp).sum::<u64>();
        payload += cold_payload + recs[t][cold..].iter().map(|r| r.payload).sum::<u64>();
        let expected = check::expected_stream_len(parts, recs[t].len(), bytes);
        if expected != len {
            o.violate(1, format!("tenant {t}: file is {len} bytes, framing predicts {expected}"));
        }
    }
    let stream_bytes: u64 = file_lens.iter().sum();
    o.set("storage_ratio", raw as f64 / disk.max(1) as f64);
    o.set("codec_core.stream_file.framing_frac", 1.0 - payload as f64 / stream_bytes.max(1) as f64);
}

/// The service's leading frames equal a fresh single-tenant session fed
/// the same snapshots (and the same degrade factors).
fn prefix_identity(spec: &IngestSpec, recs: &[Vec<PushRec>], o: &mut Outcome) {
    for (t, ts) in spec.tenants.iter().enumerate() {
        let mut session = StreamSession::new(ts.session.clone());
        let base = ts.session.policy;
        for r in recs[t].iter().take_while(|r| r.containers.is_some()) {
            if let Some(f) = r.degraded {
                session.set_policy(base.relax(f));
            }
            let pushed = session.push_snapshot_deferred(ts.field(r.k));
            session.set_policy(base);
            match pushed {
                Ok((record, deferred)) => {
                    if let Some(mut task) = deferred {
                        task.run_to_completion();
                        session.install_refresh(task);
                    }
                    if Some(&record.result.containers) != r.containers.as_ref() {
                        o.violate(1, format!("tenant {t} snapshot {}: service frame differs from a fresh session's", r.k));
                    }
                }
                Err(e) => o.violate(1, format!("tenant {t} prefix replay: {e}")),
            }
        }
    }
}

/// The read-back phase: for `READ_BACK_S` seconds (and at least one full
/// pass), seeded-random point reads interleaved with a sequential walk
/// over the closed streams. Every decoded partition of the first pass is
/// checked against its original within its bound.
fn read_back(
    ctx: &Ctx,
    spec: &IngestSpec,
    paths: &[PathBuf],
    recs: &[Vec<PushRec>],
    o: &mut Outcome,
    tr: &mut Tracer,
) {
    let dec = &spec.dec;
    let parts: Vec<_> = dec.iter().collect();
    let mut rng = scenarios::Rng64::new(inputs::mix(ctx.seed, 0x5eed));
    let tenants = spec.tenants.len();
    let mut readers = Vec::new();
    for (t, p) in paths.iter().enumerate() {
        match Reader::open(p) {
            Ok(r) => readers.push(r),
            Err(e) => {
                o.violate(1, format!("tenant {t}: open for read-back: {e}"));
                return;
            }
        }
    }
    let cold_frames: Vec<usize> = readers.iter().map(Reader::cold_frames).collect();
    let bound = |t: usize, f: usize, p: usize| -> f64 {
        let cold = if f < cold_frames[t] { spec.tenants[t].cold_eb() } else { 0.0 };
        recs[t][f].ebs[p] + cold
    };

    // Walk frames whose content does not depend on how many pushes the
    // run made: a closed loop's first frames, an open loop's last (its
    // push count is fixed by the schedule), where the hot tier is. The
    // quality figures use evenly spaced hot frames of the walk.
    let per_tenant = (WALK_FRAMES / if ctx.smoke { 8 } else { 1 } / tenants).max(1);
    let mut targets: Vec<(usize, usize, bool)> = Vec::new();
    for (t, ts) in spec.tenants.iter().enumerate() {
        let frames = recs[t].len();
        let range = if ts.compaction.is_some() {
            frames.saturating_sub(per_tenant)..frames
        } else {
            0..per_tenant.min(frames)
        };
        let first_hot = range.start.max(cold_frames[t]).min(range.end);
        let stride = ((range.end - first_hot) / QUALITY_FRAMES).max(1);
        targets.extend(range.map(|f| (t, f, f >= first_hot && (f - first_hot) % stride == 0)));
    }

    let budget = if ctx.smoke { 0.2 } else { READ_BACK_S };
    let (mut point_ms, mut frame_secs) = (Vec::new(), Vec::new());
    let (mut spec_err, mut halo_err) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while i < targets.len() || start.elapsed().as_secs_f64() < budget {
        for _ in 0..POINTS_PER_FRAME {
            let t = rng.index(tenants);
            let (f, p) = (rng.index(recs[t].len()), rng.index(parts.len()));
            match readpath::point_read(&paths[t], f, p, tr) {
                Ok(r) => {
                    point_ms.push(r.ms);
                    let part = parts[p];
                    let orig = spec.tenants[t].field(recs[t][f].k).extract(part.origin, part.dims);
                    let what = format!("tenant {t} frame {f} partition {p}");
                    if let Some(v) = check::bound_violation(
                        &what,
                        orig.as_slice(),
                        &r.values,
                        r.codec,
                        bound(t, f, p),
                    ) {
                        o.violate(1, v);
                    }
                }
                Err(e) => o.violate(1, format!("point read tenant {t} ({f}, {p}): {e}")),
            }
        }
        let (t, f, quality) = targets[i % targets.len()];
        let t0 = Instant::now();
        let read = readers[t].reconstruct_frame::<f32>(f, dec);
        frame_secs.push(t0.elapsed().as_secs_f64());
        match read {
            Ok(field) if i < targets.len() => {
                let orig = spec.tenants[t].field(recs[t][f].k);
                for (p, part) in parts.iter().enumerate() {
                    let ob = orig.extract(part.origin, part.dims);
                    let rb = field.extract(part.origin, part.dims);
                    let what = format!("tenant {t} frame {f} partition {p}");
                    let codec = recs[t][f].codecs[p];
                    if let Some(v) = check::bound_violation(
                        &what,
                        ob.as_slice(),
                        rb.as_slice(),
                        codec,
                        bound(t, f, p),
                    ) {
                        o.violate(1, v);
                    }
                }
                if quality {
                    spec_err.push(check::spectrum_rel_err(&check::spectrum(orig), &field));
                    let halos = cosmoanalysis::find_halos(orig, &spec.tenants[t].halo);
                    halo_err.extend(check::halo_mass_rel_err(&halos, &field));
                }
            }
            Ok(_) => {}
            Err(e) => o.violate(1, format!("tenant {t}: walk frame {f}: {e}")),
        }
        i += 1;
    }
    if tr.enabled() {
        for &(t, f, _) in &targets {
            if let Err(e) = readpath::traced_walk_frame(&readers[t], f, dec, tr) {
                o.violate(1, format!("tenant {t}: traced walk frame {f}: {e}"));
            }
        }
    }
    o.set("read_p50_ms", stats::median(&point_ms));
    o.set("read_mib_s", readpath::walk_mib_s(dec.domain().len(), &frame_secs));
    o.set("spectrum_rel_err", stats::median(&spec_err));
    o.set(
        "halo_mass_rel_err",
        if halo_err.is_empty() { f64::NAN } else { stats::median(&halo_err) },
    );
    if halo_err.is_empty() {
        o.violate(0, "no checked frame holds a halo");
    }
}

/// Per-layer metrics of the traced run: client-side spans, the read-back
/// ledger, and the single-threaded replay (run in a pinned process).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    ctx: &Ctx,
    paths: &[PathBuf],
    recs: &[Vec<PushRec>],
    lag_ms: &[f64],
    refused: u64,
    tr: &Tracer,
    o: &mut Outcome,
) {
    let l = Ledger::from_spans(tr.spans());
    let measured: Vec<&PushRec> = recs.iter().flat_map(|r| &r[1..]).collect();
    let lat = |traced: bool| -> Vec<f64> {
        measured.iter().filter(|r| r.traced == traced).map(|r| r.latency_ms).collect()
    };
    let (traced_p50, untraced_p50) = (stats::median(&lat(true)), stats::median(&lat(false)));
    o.set("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    o.set("stream_server.admit_us", l.median_ms("stream_server.try_push") * 1e3);
    let n = measured.len().max(1) as f64;
    o.set(
        "stream_server.degraded_frac",
        measured.iter().filter(|r| r.degraded.is_some()).count() as f64 / n,
    );
    o.set("stream_server.overloaded", refused as f64);
    o.set(
        "stream_server.gen_lag_ms",
        if lag_ms.is_empty() { 0.0 } else { stats::quantile(lag_ms, 0.9) },
    );
    let steady: Vec<f64> =
        measured.iter().filter(|r| r.recal != Recalibration::Full).map(|r| r.drift).collect();
    o.set("adaptive_config.drift_residual", stats::mean(&steady));
    let all: Vec<&PushRec> = recs.iter().flatten().collect();
    let zfp: usize =
        all.iter().map(|r| r.codecs.iter().filter(|&&c| c == CodecId::Zfp).count()).sum();
    let total: usize = all.iter().map(|r| r.codecs.len()).sum();
    o.set("codec_core.zfp_share", zfp as f64 / total.max(1) as f64);
    for (name, v) in readpath::read_layers(&l) {
        o.set(name, v);
    }
    o.set("codec_core.stream_file.recover_ms", 0.0);

    let plans: Vec<TenantPlan> = recs
        .iter()
        .zip(paths)
        .map(|(r, p)| TenantPlan {
            pushes: r.iter().map(|x| (x.k, x.degraded.unwrap_or(1.0))).collect(),
            service_file: p.clone(),
        })
        .collect();
    match replay::run_pinned(ctx, &plans) {
        Ok(res) => {
            for v in res.violations {
                o.violate(1, v);
            }
            for (name, v) in res.metrics {
                o.set(name, v);
            }
            let replay_p50 = o.metrics.get("trace.replay_push_ms").copied().unwrap_or(f64::NAN);
            o.set("stream_server.overhead_ms", traced_p50 - replay_p50);
            if !res.pinned {
                o.info("replay_note", "replay process could not be pinned to one CPU");
            }
        }
        Err(e) => o.violate(1, format!("replay failed: {e}")),
    }
    let trace_file =
        ctx.trace_dir.join(format!("trace-{}-seed{}-client.jsonl", ctx.workload.name(), ctx.seed));
    if let Err(e) = crate::trace::write_jsonl(&trace_file, tr.spans()) {
        o.info("trace_file_error", e);
    }
}
