//! The correctness gate: error bounds of decoded partitions, on-disk
//! framing, and the analysis-quality measures.

use codec_core::stream_file::{footer_len, trailer_len};
use codec_core::CodecId;
use cosmoanalysis::{
    compare_catalogs, find_halos, power_spectrum, HaloCatalog, HaloFinderConfig,
    PowerSpectrumResult, SpectrumKind,
};
use gridlab::Field3;

/// `STRM` v2/v3 header bytes before the first frame (magic, version,
/// reserved, partitions, cold count: the documented 16-byte header).
pub const STREAM_HEADER_LEN: u64 = 16;

/// Documented on-disk length of a finished stream of `frames` frames of
/// `partitions` containers whose container bytes total `container_bytes`.
pub fn expected_stream_len(partitions: usize, frames: usize, container_bytes: u64) -> u64 {
    STREAM_HEADER_LEN
        + container_bytes
        + (frames * footer_len(partitions)) as u64
        + trailer_len(frames) as u64
}

/// The error a decoded partition may show against its original. rsz
/// guarantees its bound by construction (the repository's own tests
/// allow `1e-9` of float slack); zfp in accuracy mode verifies the bound
/// per block but is documented best-effort below its fixed-point floor
/// (`eb ≲ 2^(e_block−44)`), to which the f32 rounding of the output adds
/// half an ulp — both covered by `max|x|·2^-22`.
pub fn allowed_error(codec: CodecId, eb: f64, max_abs: f64) -> f64 {
    match codec {
        CodecId::Rsz => eb + 1e-9,
        CodecId::Zfp => eb + max_abs * 2f64.powi(-22) + 1e-9,
    }
}

/// Largest |original − decoded| of a partition.
pub fn max_error(orig: &[f32], decoded: &[f32]) -> f64 {
    orig.iter()
        .zip(decoded)
        .map(|(&a, &b)| {
            let d = (a as f64 - b as f64).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                d
            }
        })
        .fold(0.0, f64::max)
}

pub fn max_abs(values: &[f32]) -> f64 {
    values.iter().map(|v| (*v as f64).abs()).fold(0.0, f64::max)
}

/// `Some(message)` when a decoded partition breaks its allowed error.
pub fn bound_violation(
    what: &str,
    orig: &[f32],
    decoded: &[f32],
    codec: CodecId,
    eb: f64,
) -> Option<String> {
    if orig.len() != decoded.len() {
        return Some(format!("{what}: decoded {} cells, expected {}", decoded.len(), orig.len()));
    }
    let err = max_error(orig, decoded);
    let allowed = allowed_error(codec, eb, max_abs(orig));
    (err > allowed || err.is_nan())
        .then(|| format!("{what}: {codec} error {err:e} exceeds allowed {allowed:e} (eb {eb:e})"))
}

/// FNV-1a-style digest of decoded values (their bit patterns): lets the
/// measured phase keep one word per read instead of the values, which are
/// then checked against a later decode of the same data.
pub fn digest(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Power spectrum of an original field (cached by callers).
pub fn spectrum(field: &Field3<f32>) -> PowerSpectrumResult {
    power_spectrum(field, SpectrumKind::Raw)
}

/// max over k of |P′(k)/P(k) − 1| for k up to half the Nyquist radius —
/// the paper's "all k below a cut" criterion (§2.1) with the cut at the
/// lower half of the shells. Above it the drifting families carry almost
/// no signal power, and the ratio would measure the codec's error floor
/// against near-zero power. Bins with zero original power are skipped.
pub fn spectrum_rel_err(orig: &PowerSpectrumResult, recon: &Field3<f32>) -> f64 {
    let r = spectrum(recon);
    let cut = orig.power.len().div_ceil(2);
    orig.power[..cut]
        .iter()
        .zip(&r.power)
        .filter(|(&p, _)| p > 0.0)
        .map(|(&p, &q)| (q / p - 1.0).abs())
        .fold(0.0, f64::max)
}

/// Halo-finder thresholds of a field: the paper's 2.2× / 4× the mean.
pub fn halo_config(field: &Field3<f32>) -> HaloFinderConfig {
    HaloFinderConfig::relative_to_mean(gridlab::stats::mean(field.as_slice()), 2.2, 4.0)
}

/// Halo mass error of a read-back field: Σ over matched halos of
/// |M′ₕ − Mₕ| divided by the original total halo mass (the quantity the
/// paper's Eq. 11 bounds, relative to the mass it bounds). The signed
/// change of the total mass cancels between halos, so its magnitude
/// scatters far more between seeds than the error it summarises.
/// `None` when the original holds no halo.
pub fn halo_mass_rel_err(orig: &HaloCatalog, recon: &Field3<f32>) -> Option<f64> {
    let m = orig.total_mass();
    (m > 0.0).then(|| {
        let rc = find_halos(recon, &orig.config);
        compare_catalogs(orig, &rc, HALO_MATCH_RADIUS).total_abs_mass_change / m
    })
}

/// Centroid distance (cells) within which halos are matched.
pub const HALO_MATCH_RADIUS: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_arithmetic_matches_a_written_stream() {
        let dir = crate::test_dir("framing");
        let path = dir.join("s.strm");
        let f = Field3::from_fn(gridlab::Dim3::cube(8), |x, y, z| (x + 2 * y + 3 * z) as f32);
        let c = codec_core::Container::compress(CodecId::Rsz, f.as_slice(), f.dims(), 0.5);
        let mut w = codec_core::StreamFileWriter::create(&path, 2).unwrap();
        w.append_frame(&[c.clone(), c.clone()]).unwrap();
        w.append_frame(&[c.clone(), c.clone()]).unwrap();
        let len = w.finish().unwrap();
        assert_eq!(len, expected_stream_len(2, 2, 4 * c.len() as u64));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn digest_tells_values_apart() {
        let a = [1.0f32, 2.0, 3.0];
        assert_eq!(digest(&a), digest(&[1.0, 2.0, 3.0]));
        assert_ne!(digest(&a), digest(&[1.0, 3.0, 2.0]));
        assert_ne!(digest(&a), digest(&[1.0, 2.0, 3.0000002]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    }

    #[test]
    fn bound_check_flags_excess_error() {
        let orig = [1.0f32, 2.0, 3.0];
        assert!(bound_violation("p", &orig, &[1.1, 2.0, 3.0], CodecId::Rsz, 0.2).is_none());
        assert!(bound_violation("p", &orig, &[1.3, 2.0, 3.0], CodecId::Rsz, 0.2).is_some());
        assert!(bound_violation("p", &orig, &[1.0, 2.0], CodecId::Rsz, 0.2).is_some());
        assert!(bound_violation("p", &orig, &[f32::NAN, 2.0, 3.0], CodecId::Zfp, 0.2).is_some());
    }
}
