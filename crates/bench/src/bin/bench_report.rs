//! Regenerate the `BENCH_*.json` performance trajectory (see ROADMAP.md).
//!
//! Re-runs the workloads of the six criterion benches with the same
//! median-of-samples methodology as the vendored criterion shim, plus a
//! serial-vs-parallel run of the multi-partition pipeline compression so
//! the trajectory records the threading speedup on the measuring host.
//!
//! Usage:
//! * `cargo run --release -p bench --bin bench_report` — full workloads,
//!   writes `results/BENCH_<next>.json` and prints it.
//! * `... -- --smoke` — tiny workloads, prints the JSON to stdout only
//!   (CI compile-and-run gate; nothing is written).

use adaptive_config::optimizer::QualityTarget;
use bench::trajectory::Trajectory;
use bench::{workloads, Scale};
use cosmoanalysis::{find_halos, power_spectrum, SpectrumKind};
use fftlite::{Complex64, Fft3};
use gridlab::{Decomposition, Field3};
use rsz::{compress, compress_slice, decompress, SzConfig};
use std::hint::black_box;
use zfplite::{zfp_compress, ZfpConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (scale, samples) =
        if smoke { (Scale { n: 16, parts: 2, seed: 42 }, 3) } else { (Scale::default(), 10) };

    let mut t = Trajectory::new();
    // `--note <text>` (repeatable): free-form context for the trajectory,
    // e.g. measured deltas vs the previous BENCH_*.json entry.
    for pair in args.windows(2) {
        if pair[0] == "--note" {
            t.note(pair[1].clone());
        }
    }
    t.note(format!(
        "scale: n={} parts={} seed={}{}",
        scale.n,
        scale.parts,
        scale.seed,
        if smoke { " (smoke)" } else { "" }
    ));

    let snap = workloads::snapshot(&scale);
    let dec = workloads::decomposition(&scale);
    let grid = format!("{0}x{0}x{0}", scale.n);
    let bytes = (snap.dims.len() * 4) as u64;

    // --- bench_compression workloads ---
    for (kind, field) in
        [("baryon_density", &snap.baryon_density), ("temperature", &snap.temperature)]
    {
        let eb = workloads::default_eb_avg(field);
        t.measure(&format!("rsz_compress/abs/{kind}"), &grid, samples, Some(bytes), || {
            black_box(compress(field, &SzConfig::abs(eb)));
        });
    }
    {
        let eb = workloads::default_eb_avg(&snap.temperature);
        let compressed = compress(&snap.temperature, &SzConfig::abs(eb));
        t.measure("rsz_decompress/temperature", &grid, samples, Some(bytes), || {
            black_box(decompress::<f32>(&compressed).expect("container decodes"));
        });
        t.measure("zfp_baseline/fixed_rate_8", &grid, samples, Some(bytes), || {
            black_box(zfp_compress(&snap.temperature, &ZfpConfig::fixed_rate(8.0)));
        });
    }

    // --- bench_fft workloads ---
    for n in if smoke { vec![16usize] } else { vec![32, 64] } {
        let fft = Fft3::cube(n);
        let data: Vec<Complex64> =
            (0..n * n * n).map(|i| Complex64::new((i as f64 * 0.37).sin(), 0.0)).collect();
        t.measure(
            &format!("fft3_forward/{n}"),
            &format!("{n}x{n}x{n}"),
            samples,
            Some((n * n * n * 16) as u64),
            || {
                let mut buf = data.clone();
                fft.forward(&mut buf);
                black_box(buf[0]);
            },
        );
    }

    // --- bench_feature_extraction workloads ---
    {
        let field = &snap.baryon_density;
        let hc = workloads::halo_config(field);
        t.measure("in_situ_overhead/features_mean_only", &grid, samples, Some(bytes), || {
            black_box(adaptive_config::ratio_model::extract_features(field, &dec, 0.0, 1.0));
        });
        t.measure(
            "in_situ_overhead/features_with_boundary_cells",
            &grid,
            samples,
            Some(bytes),
            || {
                black_box(adaptive_config::ratio_model::extract_features(
                    field,
                    &dec,
                    hc.t_boundary,
                    1.0,
                ));
            },
        );
    }

    // --- bench_optimizer workloads ---
    {
        use adaptive_config::optimizer::Optimizer;
        use adaptive_config::ratio_model::{PartitionFeature, RatioModel};
        let model = RatioModel { c: -0.4, a0: -1.0, a1: 0.4 };
        let opt = Optimizer::new(model);
        for m in if smoke { vec![512usize] } else { vec![512, 4096, 32768] } {
            let features: Vec<PartitionFeature> = (0..m)
                .map(|i| PartitionFeature {
                    mean: 1.0 + (i % 97) as f64 * 13.7,
                    boundary_cells_ref: (i % 31) as f64,
                    eb_ref: 1.0,
                    cells: 64 * 64 * 64,
                })
                .collect();
            let target = QualityTarget::with_halo(0.5, 88.16, 1e4);
            t.measure(
                &format!("optimize_bounds/{m}"),
                &format!("{m} partitions"),
                samples,
                None,
                || {
                    black_box(opt.optimize(&features, &target));
                },
            );
        }
    }

    // --- bench_analysis workloads ---
    {
        let field = &snap.baryon_density;
        let hc = workloads::halo_config(field);
        t.measure("post_hoc_analysis/halo_finder", &grid, samples, Some(bytes), || {
            black_box(find_halos(field, &hc));
        });
        t.measure("post_hoc_analysis/power_spectrum", &grid, samples, Some(bytes), || {
            black_box(power_spectrum(field, SpectrumKind::Overdensity));
        });
    }

    // --- bench_pipeline workloads + serial-vs-parallel speedup ---
    {
        let field = &snap.baryon_density;
        let eb_avg = workloads::default_eb_avg(field);
        let pipeline = workloads::calibrated_pipeline(field, &dec, QualityTarget::fft_only(eb_avg));
        t.measure("insitu_step/adaptive", &grid, samples, Some(bytes), || {
            black_box(pipeline.run_adaptive(field));
        });
        let eb = workloads::traditional_eb(eb_avg);
        t.measure("insitu_step/traditional", &grid, samples, Some(bytes), || {
            black_box(pipeline.run_traditional(field, eb));
        });

        // The same per-partition compression work, once strictly serial and
        // once through the parallel brick map — the trajectory's
        // threading-speedup probe.
        let cfg = SzConfig::abs(eb);
        let serial = t.measure(
            "insitu_step/compress_serial",
            &format!("{grid}/{} parts", dec.num_partitions()),
            samples,
            Some(bytes),
            || {
                let out: Vec<_> = dec
                    .iter()
                    .map(|p| {
                        let brick = field.extract(p.origin, p.dims);
                        compress_slice(brick.as_slice(), brick.dims(), &cfg)
                    })
                    .collect();
                black_box(out);
            },
        );
        let parallel = t.measure(
            "insitu_step/compress_parallel",
            &format!("{grid}/{} parts", dec.num_partitions()),
            samples,
            Some(bytes),
            || {
                let out = par_compress(&dec, field, &cfg);
                black_box(out);
            },
        );
        if parallel > 0 {
            t.note(format!(
                "pipeline speedup parallel-over-serial: {:.2}x on {} core(s)",
                serial as f64 / parallel as f64,
                t.host_parallelism
            ));
        }
    }

    // --- insitu_stream workloads: session amortization over a series ---
    // The streaming session calibrates once (snapshot 0) and transfers the
    // models across later snapshots, refreshing only on measured drift.
    // Recorded: cold-vs-steady push wall clock, plus the modeling +
    // optimization cost per snapshot across a 5-snapshot redshift series —
    // the amortization the session engine exists to buy.
    {
        use adaptive_config::session::{QualityPolicy, SessionConfig, StreamSession};
        let field = &snap.baryon_density;
        let session_cfg = || SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(0.1));
        t.measure("insitu_stream/first_push_cold", &grid, samples, Some(bytes), || {
            let mut s = StreamSession::new(session_cfg());
            black_box(s.push_snapshot(field).expect("finite bench field"));
        });
        {
            let mut s = StreamSession::new(session_cfg());
            s.push_snapshot(field).expect("finite bench field");
            t.measure("insitu_stream/steady_push", &grid, samples, Some(bytes), || {
                black_box(s.push_snapshot(field).expect("finite bench field"));
            });
        }

        let nyx = nyxlite::NyxConfig::new(scale.n, scale.seed);
        let redshifts = [54.0, 51.0, 48.0, 45.0, 42.0];
        let fields: Vec<_> = redshifts.iter().map(|&z| nyx.generate(z).baryon_density).collect();
        let mut full_costs = Vec::new();
        let mut steady_costs = Vec::new();
        let mut refreshes = 0;
        for _ in 0..samples.max(1) {
            let mut s = StreamSession::new(session_cfg());
            for f in &fields {
                s.push_snapshot(f).expect("finite bench field");
            }
            let h = s.history();
            full_costs.push(h[0].model_cost.as_nanos() as u64);
            let steady: u64 =
                h[1..].iter().map(|st| st.adaptive_cost().as_nanos() as u64).sum::<u64>()
                    / (h.len() - 1) as u64;
            steady_costs.push(steady);
            refreshes = s.refreshes();
        }
        full_costs.sort_unstable();
        steady_costs.sort_unstable();
        let full = full_costs[full_costs.len() / 2];
        let steady = steady_costs[steady_costs.len() / 2];
        let series_grid = format!("{grid}, 5 snapshots");
        for (name, ns) in [
            ("insitu_stream/series/full_calibration", full),
            ("insitu_stream/series/steady_model_optimize", steady),
        ] {
            t.entries.push(bench::trajectory::BenchEntry {
                bench: name.to_string(),
                median_ns: ns,
                throughput: 0.0,
                throughput_unit: String::new(),
                grid: series_grid.clone(),
            });
        }
        if steady > 0 {
            t.note(format!(
                "insitu_stream series: full calibration {:.2} ms on snapshot 0, \
                 steady modeling+optimize {:.3} ms/snapshot after ({:.1}x cheaper), \
                 {refreshes} drift refresh(es) in 5 snapshots",
                full as f64 / 1e6,
                steady as f64 / 1e6,
                full as f64 / steady as f64,
            ));
        }

        // --- insitu_stream/restore: checkpoint round-trip instead of a
        // recalibration. A restarted simulation restores the CKPT blob and
        // its first push pays steady-state modeling cost — the datum the
        // durability layer exists to buy (vs repaying full calibration).
        {
            use adaptive_config::session::{Recalibration, StreamSession};
            let mut s = StreamSession::new(session_cfg());
            s.push_snapshot(field).expect("finite bench field");
            let blob = s.save();
            t.measure("insitu_stream/restore/save_checkpoint", &grid, samples, None, || {
                black_box(s.save());
            });
            t.measure("insitu_stream/restore/restore_session", &grid, samples, None, || {
                black_box(StreamSession::restore(&blob).expect("checkpoint restores"));
            });
            t.measure(
                "insitu_stream/restore/first_push_resumed",
                &grid,
                samples,
                Some(bytes),
                || {
                    let mut r = StreamSession::restore(&blob).expect("checkpoint restores");
                    black_box(r.push_snapshot(field).expect("finite bench field"));
                },
            );
            let mut costs = Vec::new();
            for _ in 0..samples.max(1) {
                let mut r = StreamSession::restore(&blob).expect("checkpoint restores");
                let rec = r.push_snapshot(field).expect("finite bench field");
                assert_ne!(
                    rec.stats.recalibration,
                    Recalibration::Full,
                    "a restored session must not recalibrate"
                );
                costs.push(rec.stats.adaptive_cost().as_nanos() as u64);
            }
            costs.sort_unstable();
            let resumed = costs[costs.len() / 2];
            t.entries.push(bench::trajectory::BenchEntry {
                bench: "insitu_stream/restore/resumed_model_optimize".to_string(),
                median_ns: resumed,
                throughput: 0.0,
                throughput_unit: String::new(),
                grid: grid.clone(),
            });
            if resumed > 0 && steady > 0 {
                t.note(format!(
                    "insitu_stream restore: resumed modeling+optimize {:.3} ms on the first \
                     post-restore push ({:.2}x the steady state, {:.1}x cheaper than the \
                     {:.2} ms full calibration it replaces), checkpoint blob {} bytes",
                    resumed as f64 / 1e6,
                    resumed as f64 / steady as f64,
                    full as f64 / resumed as f64,
                    full as f64 / 1e6,
                    blob.len(),
                ));
            }
        }
    }

    // --- codec_select workloads: rsz-only vs zfp-only vs adaptive-mixed ---
    // The multi-codec subsystem at the partition granularity where backend
    // trade-offs are real (small bricks: rsz pays its Huffman table, zfp
    // its per-block headers). All three runs share one calibration and one
    // quality target, so the ratio entries compare equal-quality storage.
    {
        use adaptive_config::CodecId;
        let parts = if smoke { scale.parts } else { 8 };
        let sel_dec = Decomposition::cubic(scale.n, parts).expect("parts divides n");
        let sel_grid = format!("{grid}/{} parts", sel_dec.num_partitions());
        for (kind, field) in
            [("baryon_density", &snap.baryon_density), ("temperature", &snap.temperature)]
        {
            let eb_avg = workloads::default_eb_avg(field);
            let pipeline = workloads::calibrated_pipeline_with_codecs(
                field,
                &sel_dec,
                QualityTarget::fft_only(eb_avg),
                &CodecId::ALL,
            );
            let mixed = pipeline.run_adaptive(field);
            let rsz_only = pipeline.run_adaptive_single(field, CodecId::Rsz);
            let zfp_only = pipeline.run_adaptive_single(field, CodecId::Zfp);

            let mixed_ns = t.measure(
                &format!("codec_select/adaptive_mixed/{kind}"),
                &sel_grid,
                samples,
                Some(bytes),
                || {
                    black_box(pipeline.run_adaptive(field));
                },
            );
            let rsz_ns = t.measure(
                &format!("codec_select/rsz_only/{kind}"),
                &sel_grid,
                samples,
                Some(bytes),
                || {
                    black_box(pipeline.run_adaptive_single(field, CodecId::Rsz));
                },
            );
            let zfp_ns = t.measure(
                &format!("codec_select/zfp_only/{kind}"),
                &sel_grid,
                samples,
                Some(bytes),
                || {
                    black_box(pipeline.run_adaptive_single(field, CodecId::Zfp));
                },
            );

            // Equal-quality compression ratios as machine-readable entries.
            // Each ratio rides with the measured median of the run that
            // produced it, so downstream tooling never sees a zero timing.
            for (which, run, ns) in [
                ("adaptive_mixed", &mixed, mixed_ns),
                ("rsz_only", &rsz_only, rsz_ns),
                ("zfp_only", &zfp_only, zfp_ns),
            ] {
                t.entries.push(bench::trajectory::BenchEntry {
                    bench: format!("codec_select/ratio/{which}/{kind}"),
                    median_ns: ns,
                    throughput: run.ratio(),
                    throughput_unit: "x".to_string(),
                    grid: sel_grid.clone(),
                });
            }
            let mix: Vec<String> =
                mixed.codec_counts().iter().map(|(c, n)| format!("{n} {c}")).collect();
            t.note(format!(
                "codec_select {kind}: adaptive-mixed {:.2}x ({}) vs rsz-only {:.2}x vs \
                 zfp-only {:.2}x at mean eb {:.4}",
                mixed.ratio(),
                mix.join(" + "),
                rsz_only.ratio(),
                zfp_only.ratio(),
                eb_avg,
            ));
        }
    }

    // --- stream_server workloads: the multi-stream service under load ---
    // Aggregate ingest throughput, steady-state p99 push latency at N
    // concurrent streams, and the fairness ratio when one stream is
    // poisoned (drift-recalibrating on every snapshot): neighbour p99
    // contended over uncontended. The service's scheduling contract is
    // that this ratio stays ≤ 2 — the same bound the integration suite
    // asserts — because recalibration yields one trial compression at a
    // time instead of monopolising a worker.
    {
        let streams = if smoke { 4 } else { 8 };
        let steps = if smoke { 4 } else { 16 };
        let sn = if smoke { 16 } else { 32 };
        let calm = stream_server_run(streams, steps, sn, false);
        let contended = stream_server_run(streams, steps, sn, true);
        let sessions_grid = format!("{sn}x{sn}x{sn}, {streams} streams x {steps} snapshots");

        t.entries.push(bench::trajectory::BenchEntry {
            bench: format!("stream_server/sessions_per_sec/{streams}_streams"),
            median_ns: calm.wall_ns,
            throughput: calm.pushes_per_sec,
            throughput_unit: "snapshots/s".to_string(),
            grid: sessions_grid.clone(),
        });
        t.entries.push(bench::trajectory::BenchEntry {
            bench: format!("stream_server/p99_push_latency/{streams}_streams"),
            median_ns: calm.p99_ns,
            throughput: 0.0,
            throughput_unit: String::new(),
            grid: sessions_grid.clone(),
        });
        t.entries.push(bench::trajectory::BenchEntry {
            bench: "stream_server/p99_push_latency/poisoned_neighbours".to_string(),
            median_ns: contended.p99_ns,
            throughput: 0.0,
            throughput_unit: String::new(),
            grid: sessions_grid.clone(),
        });
        let fairness = contended.p99_ns as f64 / calm.p99_ns.max(1) as f64;
        t.entries.push(bench::trajectory::BenchEntry {
            bench: "stream_server/fairness_ratio/one_poisoned".to_string(),
            median_ns: 0,
            throughput: fairness,
            throughput_unit: "x".to_string(),
            grid: sessions_grid,
        });
        t.note(format!(
            "stream_server: {streams} streams x {steps} snapshots ingest at {:.1} snapshots/s, \
             uncontended p99 push {:.2} ms; with one poisoned stream neighbour p99 {:.2} ms \
             (fairness ratio {fairness:.2}x, contract ≤ 2x)",
            calm.pushes_per_sec,
            calm.p99_ns as f64 / 1e6,
            contended.p99_ns as f64 / 1e6,
        ));
    }

    // --- stream_ooc workloads: out-of-core stream-file paths ---
    // Crash recovery (bounded-window forward scan), the windowed lazy
    // reader's sequential walk (one reused scratch buffer), and cold-
    // frame compaction — the durability paths diag_ooc proves O(frame);
    // here the trajectory records what that memory discipline costs in
    // time. Throughput is stream bytes processed per pass.
    {
        use codec_core::{
            compact_stream_file, recover_stream, CompactionConfig, Container, StreamFileReader,
            StreamFileWriter, SyncPolicy,
        };
        let frames_n = if smoke { 8 } else { 64 };
        let dec2 = workloads::decomposition(&scale);
        let frame: Vec<Container> = dec2
            .iter()
            .map(|p| {
                let brick = snap.baryon_density.extract(p.origin, p.dims);
                Container::compress(
                    adaptive_config::CodecId::Rsz,
                    brick.as_slice(),
                    brick.dims(),
                    workloads::default_eb_avg(&snap.baryon_density),
                )
            })
            .collect();
        let mut full_bytes = Vec::new();
        let mut w = StreamFileWriter::create_in(
            std::io::Cursor::new(&mut full_bytes),
            frame.len(),
            SyncPolicy::Flush,
        )
        .expect("in-memory stream");
        for _ in 0..frames_n {
            w.append_frame(&frame).expect("append frame");
        }
        w.finish().expect("finish stream");
        let torn = &full_bytes[..full_bytes.len() - full_bytes.len() / 7];
        let ooc_grid = format!("{grid}, {frames_n} frames, {} KiB", full_bytes.len() / 1024);
        let sbytes = Some(full_bytes.len() as u64);

        t.measure("stream_ooc/recover_torn", &ooc_grid, samples, sbytes, || {
            let (rec, report) = recover_stream(torn).expect("torn stream recovers");
            assert!(report.frames_kept > 0);
            black_box(rec);
        });

        let path = std::env::temp_dir().join(format!("bench_ooc_{}.strm", std::process::id()));
        std::fs::write(&path, &full_bytes).expect("write stream");
        t.measure("stream_ooc/sequential_read", &ooc_grid, samples, sbytes, || {
            let r = StreamFileReader::open(&path).expect("open");
            let mut scratch = Vec::new();
            for f in 0..r.frames() {
                for p in 0..r.partitions() {
                    r.read_container_into(f, p, &mut scratch).expect("read");
                    black_box(scratch.len());
                }
            }
        });

        // Compaction mutates the file, so each sample re-tiers a fresh
        // copy of the pristine stream. The relaxed bound is 8x the write
        // bound: re-quantizing an already-quantized reconstruction at
        // only 2-4x the bound beats against the existing quantization
        // levels and can GROW the payload; the size win appears once the
        // cold bound clearly dominates the hot one.
        let eb2 = 8.0 * workloads::default_eb_avg(&snap.baryon_density);
        let mut last_report = None;
        t.measure("stream_ooc/compact", &ooc_grid, samples, sbytes, || {
            std::fs::write(&path, &full_bytes).expect("rewrite stream");
            let report = compact_stream_file::<f32>(&path, CompactionConfig::new(4, eb2))
                .expect("compact")
                .expect("frames past the horizon");
            last_report = Some(report);
        });
        if let Some(r) = last_report {
            t.note(format!(
                "stream_ooc: compaction re-tiered {} of {frames_n} frames at eb {eb2:.4} \
                 ({} -> {} data bytes, {:.2}x), diag_ooc pins all paths O(frame)",
                r.frames_compacted,
                r.bytes_before,
                r.bytes_after,
                r.bytes_before as f64 / r.bytes_after.max(1) as f64,
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    println!("{}", t.to_json());
    if smoke {
        eprintln!("smoke run: not persisted");
    } else {
        let path =
            t.save_next(std::path::Path::new("results")).expect("write trajectory under results/");
        eprintln!("wrote {}", path.display());
    }
}

fn par_compress(dec: &Decomposition, field: &Field3<f32>, cfg: &SzConfig) -> Vec<rsz::Compressed> {
    dec.par_map(field, |_, brick| compress_slice(brick.as_slice(), brick.dims(), cfg))
}

struct StreamServerStats {
    /// Wall clock for the whole run (all streams, all snapshots).
    wall_ns: u64,
    /// Aggregate ingest rate across all streams.
    pushes_per_sec: f64,
    /// p99 push latency pooled over the calm streams, first (calibration)
    /// push excluded.
    p99_ns: u64,
}

/// Drive `streams` lockstepped client threads against a fresh
/// `StreamServer`; when `poison` is set the last stream recalibrates on
/// every snapshot (zero drift threshold + amplitude hops) and only its
/// neighbours' latencies are pooled.
fn stream_server_run(streams: usize, steps: usize, n: usize, poison: bool) -> StreamServerStats {
    use adaptive_config::session::{QualityPolicy, SessionConfig};
    use gridlab::Dim3;
    use std::sync::Barrier;
    use std::time::Instant;
    use stream_server::{ServerConfig, StreamServer, TenantConfig};

    let noisy_field = |amp: f64, seed: u64| {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        Field3::from_fn(Dim3::cube(n), |x, y, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let base = if x >= n / 2 && y >= n / 2 { 40.0 * amp } else { 8.0 };
            (base + amp * noise) as f32
        })
    };
    let dec = Decomposition::cubic(n, 2).expect("2 divides n");
    let server: StreamServer<f32> = StreamServer::start(ServerConfig {
        workers: 4,
        queue_capacity: 8,
        degrade_threshold: 1.0,
        degrade_ladder: vec![],
        global_budget: None,
    });
    let tenants: Vec<_> = (0..streams)
        .map(|tid| {
            let mut cfg = SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(0.1));
            if poison && tid == streams - 1 {
                cfg = cfg.with_drift_threshold(1e-9);
            }
            server.register(TenantConfig::new(cfg)).expect("registration")
        })
        .collect();
    let barrier = Barrier::new(streams);
    let t0 = Instant::now();
    let per_stream: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..streams)
            .map(|tid| {
                let server = &server;
                let barrier = &barrier;
                let noisy_field = &noisy_field;
                let tenant = tenants[tid];
                s.spawn(move || {
                    let poison_me = poison && tid == streams - 1;
                    let mut lat = Vec::with_capacity(steps);
                    for step in 0..steps {
                        let f = if poison_me {
                            noisy_field(3.0 + 17.0 * (step % 3) as f64, 777 + step as u64)
                        } else {
                            noisy_field(1.0, tid as u64 + 1)
                        };
                        barrier.wait();
                        let p0 = Instant::now();
                        server.push(tenant, f).expect("push succeeds");
                        lat.push(p0.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    server.shutdown().expect("clean shutdown");
    let measured = if poison { streams - 1 } else { streams };
    let mut pooled: Vec<u64> =
        per_stream[..measured].iter().flat_map(|l| l.iter().skip(1).copied()).collect();
    pooled.sort_unstable();
    let p99_ns = pooled[(pooled.len() as f64 * 0.99).ceil() as usize - 1];
    StreamServerStats {
        wall_ns,
        pushes_per_sec: (streams * steps) as f64 / (wall_ns as f64 / 1e9),
        p99_ns,
    }
}
