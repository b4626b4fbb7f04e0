//! The read path every workload times: point reads (open → read one
//! container → decode) and sequential frame walks.

use crate::trace::{Ledger, Tracer};
use codec_core::{fnv1a64, CodecError, CodecId, Container, FileSource, StreamFileReader};
use gridlab::{Decomposition, Field3};
use std::path::Path;
use std::time::Instant;

pub type Reader = StreamFileReader<FileSource>;

pub const POINT_READ: &str = "read.point";
pub const WALK_FRAME: &str = "read.walk_frame";
pub const OPEN: &str = "codec_core.stream_file.open";
pub const READ_RANDOM: &str = "codec_core.stream_file.read_random";
pub const READ_SEQ: &str = "codec_core.stream_file.read_seq";
pub const CHECKSUM: &str = "codec_core.fnv1a64";
pub const ASSEMBLE: &str = "gridlab.assemble";

/// Span name of one codec's decode calls.
pub fn decode_span(codec: CodecId) -> &'static str {
    match codec {
        CodecId::Rsz => "rsz.decode",
        CodecId::Zfp => "zfplite.decode",
    }
}

/// What one point read returned.
pub struct PointRead {
    pub codec: CodecId,
    pub values: Vec<f32>,
    pub ms: f64,
}

/// `StreamFileReader::open` → read one (frame, partition) container →
/// `Container::decode`, timed as a whole and traced per layer.
pub fn point_read(
    path: &Path,
    frame: usize,
    part: usize,
    tr: &mut Tracer,
) -> Result<PointRead, CodecError> {
    let req = (frame as u64, part as u64);
    let t0 = Instant::now();
    let root = tr.open(POINT_READ, req);
    let res = (|| {
        let reader = tr.scope(OPEN, req, || Reader::open(path))?;
        let c = tr.scope(READ_RANDOM, req, || reader.container(frame, part))?;
        let s = tr.open(decode_span(c.codec()), req);
        let decoded = c.decode::<f32>();
        tr.close_with(s, (c.dims().len() * 4) as u64);
        Ok((c.codec(), decoded?.0))
    })();
    tr.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    res.map(|(codec, values)| PointRead { codec, values, ms })
}

/// Reconstruct `frames` with `reconstruct_frame`, timing only the calls;
/// `visit` sees each frame outside the timed region. Returns each
/// frame's seconds.
pub fn walk(
    reader: &Reader,
    frames: impl Iterator<Item = usize>,
    dec: &Decomposition,
    mut visit: impl FnMut(usize, Field3<f32>),
) -> Result<Vec<f64>, CodecError> {
    let mut secs = Vec::new();
    for f in frames {
        let t0 = Instant::now();
        let field = reader.reconstruct_frame::<f32>(f, dec)?;
        secs.push(t0.elapsed().as_secs_f64());
        visit(f, field);
    }
    Ok(secs)
}

/// Sequential read throughput: one frame's raw MiB over the median
/// frame time (robust to a burst of lost CPU during the walk).
pub fn walk_mib_s(frame_cells: usize, frame_secs: &[f64]) -> f64 {
    (frame_cells * 4) as f64 / crate::report::MIB / crate::stats::median(frame_secs)
}

/// One frame read layer by layer under spans: every container read in
/// order, a checksum probe over the payloads (outside the frame's span),
/// each codec's decodes, and the brick assembly.
pub fn traced_walk_frame(
    reader: &Reader,
    frame: usize,
    dec: &Decomposition,
    tr: &mut Tracer,
) -> Result<Field3<f32>, CodecError> {
    let req = (frame as u64, 0);
    let parts = reader.partitions();
    let root = tr.open(WALK_FRAME, req);
    let res = (|| {
        let s = tr.open(READ_SEQ, req);
        let containers: Result<Vec<Container>, CodecError> = (0..parts)
            .map(|p| {
                let mut buf = Vec::new();
                reader.read_container_into(frame, p, &mut buf)?;
                Container::from_bytes(buf)
            })
            .collect();
        tr.close_with(s, parts as u64);
        let containers = containers?;
        let mut bricks: Vec<Option<Field3<f32>>> = vec![None; parts];
        for codec in CodecId::ALL {
            let ids: Vec<usize> = (0..parts).filter(|&p| containers[p].codec() == codec).collect();
            if ids.is_empty() {
                continue;
            }
            let s = tr.open(decode_span(codec), req);
            let mut bytes = 0u64;
            let mut err = None;
            for p in ids {
                match containers[p].decode_field::<f32>() {
                    Ok(b) => {
                        bytes += (b.len() * 4) as u64;
                        bricks[p] = Some(b);
                    }
                    Err(e) => err = Some(e),
                }
            }
            tr.close_with(s, bytes);
            if let Some(e) = err {
                return Err(e);
            }
        }
        let bricks: Vec<Field3<f32>> = bricks.into_iter().map(|b| b.expect("decoded")).collect();
        let s = tr.open(ASSEMBLE, req);
        let field = dec.assemble(&bricks).map_err(|e| CodecError::Format(e.to_string()));
        tr.close(s);
        Ok((field?, containers))
    })();
    tr.close(root);
    let (field, containers) = res?;
    checksum_probe(&containers, tr, req);
    Ok(field)
}

/// FNV-1a-64 over each container's payload bytes, as a probe span of its
/// own (the work decode already does once, measured apart).
pub fn checksum_probe(containers: &[Container], tr: &mut Tracer, req: (u64, u64)) {
    if !tr.enabled() {
        return;
    }
    let s = tr.open(CHECKSUM, req);
    let mut bytes = 0u64;
    for c in containers {
        let payload = &c.as_bytes()[c.len() - c.payload_len()..];
        std::hint::black_box(fnv1a64(payload));
        bytes += payload.len() as u64;
    }
    tr.close_with(s, bytes);
}

/// Per-layer read metrics from a ledger of point reads and traced walks.
pub fn read_layers(l: &Ledger) -> Vec<(&'static str, f64)> {
    let seq_containers = l.work.get(READ_SEQ).copied().unwrap_or(0) as f64;
    let seq_us =
        if seq_containers > 0.0 { l.total_ms(READ_SEQ) * 1e3 / seq_containers } else { 0.0 };
    vec![
        ("codec_core.stream_file.open_ms", l.median_ms(OPEN)),
        ("codec_core.stream_file.read_random_us", l.median_ms(READ_RANDOM) * 1e3),
        ("codec_core.stream_file.read_seq_us", seq_us),
        ("rsz.decompress_mib_s", l.mib_per_s(decode_span(CodecId::Rsz))),
        ("zfplite.decompress_mib_s", l.mib_per_s(decode_span(CodecId::Zfp))),
    ]
}

/// Share of the read roots' time that their layer spans account for.
pub fn read_coverage(l: &Ledger) -> f64 {
    let roots = l.total_ms(POINT_READ) + l.total_ms(WALK_FRAME);
    let roots_self: f64 =
        [POINT_READ, WALK_FRAME].iter().flat_map(|n| l.self_ms.get(n).into_iter().flatten()).sum();
    if roots > 0.0 {
        1.0 - roots_self / roots
    } else {
        0.0
    }
}
