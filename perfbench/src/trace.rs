//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public API; the program under test is never hooked. A
//! span carries its name, start and end (ns since the tracer's origin),
//! its parent (the span open on the same tracer when it began) and a
//! request id: `(tenant, snapshot)` for pushes, `(frame, partition)` for
//! reads. Spans stay in memory until the run ends and are then written
//! out as JSON lines. A disabled tracer records nothing and adds no
//! clock reads, so the end-to-end run and the traced run share code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Length of the alternating untraced / traced windows of a traced run.
pub const TRACE_SLICE_S: f64 = 0.5;

/// Whether an operation starting at `at` falls in a traced window: a
/// traced run alternates untraced and traced windows, so the untraced
/// baseline of `trace.overhead_frac` sees the same phase of the run.
pub fn traced_at(trace: bool, start: Instant, at: Instant) -> bool {
    trace && (at.saturating_duration_since(start).as_secs_f64() / TRACE_SLICE_S) as u64 % 2 == 1
}

/// One finished (or still open, `end == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: (u64, u64),
    /// Work the span did, in the layer's own unit (bytes for codecs).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self { enabled, origin, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str, req: (u64, u64)) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, req, work: 0 });
        self.stack.push(id);
        id
    }

    /// Close the span `id` (must be the innermost open one).
    pub fn close(&mut self, id: u32) {
        self.close_with(id, 0);
    }

    /// Close the span `id`, recording the work it did.
    pub fn close_with(&mut self, id: u32, work: u64) {
        if !self.enabled || id == ROOT {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end.max(s.start_ns + 1);
        s.work = work;
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, req: (u64, u64), f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let r = f();
        self.close(id);
        r
    }

    /// Record an already-measured interval as a span under the innermost
    /// open span (used where the timed call must not borrow the tracer).
    pub fn record(&mut self, name: &'static str, req: (u64, u64), start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let (s, e) = (at(start), at(end));
        self.spans.push(Span { name, start_ns: s, end_ns: e.max(s + 1), parent, req, work: 0 });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans in (re-basing parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name duration and self-time samples (ms) and total work.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub dur_ms: BTreeMap<&'static str, Vec<f64>>,
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
    pub work: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn from_spans(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut l = Ledger::default();
        for (s, &st) in spans.iter().zip(&selfs) {
            l.dur_ms.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
            l.self_ms.entry(s.name).or_default().push(st as f64 / 1e6);
            *l.work.entry(s.name).or_default() += s.work;
        }
        l
    }

    pub fn durations(&self, name: &str) -> &[f64] {
        self.dur_ms.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Median duration of `name` in ms; 0 when it never ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            crate::stats::median(d)
        }
    }

    /// Work of `name` (bytes) per second of its spans, in MiB/s; 0 when
    /// it never ran.
    pub fn mib_per_s(&self, name: &str) -> f64 {
        let ms = self.total_ms(name);
        let work = self.work.get(name).copied().unwrap_or(0) as f64;
        if ms > 0.0 {
            work / crate::report::MIB / (ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Write spans as JSON lines (with self time) to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, st)) in spans.iter().zip(&selfs).enumerate() {
        let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{st},\"parent\":{parent},\"req\":[{},{}],\"work\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req.0, s.req.1, s.work
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: u32) -> Span {
        Span { name, start_ns: s, end_ns: e, parent, req: (0, 0), work: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("push", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("b.inner", 45, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 100, 200, ROOT),
            span("x", 90, 130, 0),
            span("y", 120, 150, 0),
            span("z", 190, 260, 0),
        ];
        // covered: [100,150) + [190,200) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer", (1, 2));
        t.scope("inner", (1, 2), || std::hint::black_box(3));
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut u = Tracer::new(true, Instant::now());
        u.scope("first", (0, 0), || ());
        u.absorb(t);
        assert_eq!(u.spans()[2].parent, 1);
        let l = Ledger::from_spans(u.spans());
        assert_eq!(l.durations("inner").len(), 1);
    }

    #[test]
    fn traced_windows_alternate() {
        let s = Instant::now();
        let at = |secs: f64| s + std::time::Duration::from_secs_f64(secs);
        assert!(!traced_at(true, s, at(0.1)));
        assert!(traced_at(true, s, at(0.6)));
        assert!(!traced_at(true, s, at(1.2)));
        assert!(!traced_at(false, s, at(0.6)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", (0, 0));
        t.close(id);
        t.record("y", (0, 0), Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
