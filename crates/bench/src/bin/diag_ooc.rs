//! Release-mode bounded-memory gate for the out-of-core stream paths.
//!
//! The durability layer's contract is that every stream-file path —
//! append, crash recovery, sequential read, cold-frame compaction —
//! holds **O(frame)** bytes resident, never O(stream). This binary
//! proves it with a counting global allocator: it drives each path over
//! a stream far larger than the asserted cap, at two stream lengths 4×
//! apart, and fails (non-zero exit) if any phase's allocation peak
//! exceeds the cap or grows with the stream instead of the frame.
//!
//! Run by CI as `cargo run --release -p bench --bin diag_ooc`. Debug
//! builds work too (the cap has headroom over allocator/layout noise),
//! but the CI gate uses release so the numbers match production.

use codec_core::{
    recover_stream, CompactionConfig, Container, StreamFileReader, StreamFileWriter, SyncPolicy,
};
use gridlab::{Decomposition, Dim3, Field3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapped with live/peak accounting. `PEAK` is
/// maintained with a CAS-max so concurrent allocations never lose an
/// observation (the gate itself is single-threaded, but library code may
/// not be).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => peak = seen,
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the peak to the current live footprint and run one phase,
/// returning its allocation high-water mark above entry.
fn measure(label: &str, f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    eprintln!("  {label:<18} peak {:>8} KiB", peak / 1024);
    peak
}

/// Per-phase allocation peaks over one stream of `frames` frames.
struct Peaks {
    append: usize,
    recover: usize,
    read: usize,
    compact: usize,
    stream_bytes: u64,
}

fn drive(frames: usize) -> Peaks {
    let dec = Decomposition::cubic(16, 2).expect("2 divides 16");
    let field =
        Field3::from_fn(Dim3::cube(16), |x, y, z| ((x * 31 + y * 17 + z * 7) as f32).sin() * 40.0);
    // ONE frame compressed once, appended repeatedly: appending must not
    // retain payloads, so residency stays flat however long the stream.
    let frame: Vec<Container> = dec
        .iter()
        .map(|p| {
            let brick = field.extract(p.origin, p.dims);
            Container::compress(codec_core::CodecId::Rsz, brick.as_slice(), brick.dims(), 0.05)
        })
        .collect();
    let path = std::env::temp_dir().join(format!("diag_ooc_{}_{frames}.strm", std::process::id()));
    eprintln!("stream of {frames} frames at {}:", path.display());

    let append = measure("append+finish", || {
        let mut w =
            StreamFileWriter::create_with(&path, frame.len(), SyncPolicy::Flush).expect("create");
        for _ in 0..frames {
            w.append_frame(&frame).expect("append");
        }
        w.finish().expect("finish");
    });
    let stream_bytes = std::fs::metadata(&path).expect("stat").len();

    // Tear the tail mid-frame, then recover in place: the scan must
    // stream the file, not slurp it.
    let torn = stream_bytes - stream_bytes / 5;
    let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
    f.set_len(torn).expect("truncate");
    drop(f);
    let recover = measure("recover", || {
        let (w, report) = StreamFileWriter::recover(&path).expect("recover");
        assert!(report.frames_kept > 0, "the torn stream kept a prefix");
        w.finish().expect("finish");
    });

    let read = measure("sequential read", || {
        let r = StreamFileReader::open(&path).expect("open");
        let mut scratch = Vec::new();
        let mut total = 0usize;
        for fidx in 0..r.frames() {
            for p in 0..r.partitions() {
                r.read_container_into(fidx, p, &mut scratch).expect("read");
                total += scratch.len();
            }
        }
        assert!(total as u64 > stream_bytes / 2, "the walk visited the payload region");
    });

    let compact = measure("compact", || {
        let report = codec_core::compact_stream_file::<f32>(&path, CompactionConfig::new(2, 0.5))
            .expect("compact")
            .expect("frames past the horizon");
        assert!(report.frames_compacted > 0);
    });

    std::fs::remove_file(&path).ok();
    Peaks { append, recover, read, compact, stream_bytes }
}

fn main() {
    // The asserted O(frame) residency cap. A frame here is ~8 containers
    // of a 16³ field (≈ tens of KiB; measured phase peaks sit under
    // 100 KiB); 1 MiB leaves room for codec scratch, decode buffers, and
    // allocator slack while sitting far below the large stream (≥ 3× the
    // cap), so an O(stream) regression on any path trips the gate
    // instead of hiding in headroom.
    const CAP: usize = 1 << 20;

    let small = drive(256);
    let large = drive(1024);
    assert!(
        large.stream_bytes > 3 * CAP as u64,
        "gate is vacuous: stream ({} bytes) must dwarf the cap ({CAP})",
        large.stream_bytes
    );

    let phases = [
        ("append", small.append, large.append),
        ("recover", small.recover, large.recover),
        ("read", small.read, large.read),
        ("compact", small.compact, large.compact),
    ];
    for (name, s, l) in phases {
        assert!(
            l <= CAP,
            "{name}: peak {l} bytes exceeds the O(frame) cap {CAP} on a {}-byte stream",
            large.stream_bytes
        );
        // 4× the frames must not ask for 2× the memory: O(frame) not
        // O(stream). The +64 KiB slack absorbs allocator bucketing on
        // tiny peaks.
        assert!(
            l <= 2 * s + (64 << 10),
            "{name}: peak grew from {s} to {l} bytes when the stream grew 4x — resident set \
             scales with the stream"
        );
    }
    // recover_stream (the borrowed-bytes form) is exercised by tests;
    // spot-check it here too so the gate covers both recovery entry
    // points' behaviour on an in-memory source.
    let dec = Decomposition::cubic(8, 2).expect("2 divides 8");
    let field = Field3::from_fn(Dim3::cube(8), |x, _, _| x as f32);
    let frame: Vec<Container> = dec
        .iter()
        .map(|p| {
            let b = field.extract(p.origin, p.dims);
            Container::compress(codec_core::CodecId::Rsz, b.as_slice(), b.dims(), 0.1)
        })
        .collect();
    let mut bytes = Vec::new();
    let mut w = StreamFileWriter::create_in(std::io::Cursor::new(&mut bytes), 8, SyncPolicy::Flush)
        .expect("in-memory stream");
    w.append_frame(&frame).expect("append");
    w.finish().expect("finish");
    let (rec, _) = recover_stream(&bytes[..bytes.len() - 3]).expect("recover");
    assert!(!rec.is_empty());

    println!(
        "diag_ooc: all stream paths O(frame) — peaks (append/recover/read/compact) = \
         {}/{}/{}/{} KiB over a {} KiB stream (cap {} KiB)",
        large.append / 1024,
        large.recover / 1024,
        large.read / 1024,
        large.compact / 1024,
        large.stream_bytes / 1024,
        CAP / 1024
    );
}
