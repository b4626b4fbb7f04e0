//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (`--trace 0`), every workload: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("ingest_mib_s", "MiB/s"),
    ("cpu_ms_per_mib", "ms/MiB"),
    ("peak_rss_mib", "MiB"),
    ("storage_ratio", "x"),
    ("read_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), every workload: (name, unit). A
/// layer that does no work on a workload reports 0. The last six are
/// user-visible figures too steal- or seed-sensitive for a bound.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("stream_server.admit_us", "us"),
    ("stream_server.overhead_ms", "ms"),
    ("stream_server.degraded_frac", "fraction"),
    ("stream_server.overloaded", "count"),
    ("stream_server.gen_lag_ms", "ms"),
    ("adaptive_config.calibrate_ms", "ms"),
    ("adaptive_config.features_ms", "ms"),
    ("adaptive_config.optimize_ms", "ms"),
    ("adaptive_config.drift_ms", "ms"),
    ("adaptive_config.drift_residual", "fraction"),
    ("adaptive_config.refresh_ms", "ms"),
    ("adaptive_config.refreshes", "count"),
    ("adaptive_config.refresh_useful_frac", "fraction"),
    ("gridlab.extract_ms", "ms"),
    ("gridlab.summarize_ms", "ms"),
    ("rsz.compress_mib_s", "MiB/s"),
    ("zfplite.compress_mib_s", "MiB/s"),
    ("codec_core.wrap_us", "us"),
    ("codec_core.zfp_share", "fraction"),
    ("codec_core.checksum_mib_s", "MiB/s"),
    ("codec_core.stream_file.append_ms", "ms"),
    ("codec_core.stream_file.framing_frac", "fraction"),
    ("codec_core.stream_file.compact_step_ms", "ms"),
    ("codec_core.stream_file.compact_shrunk_frac", "fraction"),
    ("codec_core.stream_file.compact_saved_frac", "fraction"),
    ("codec_core.stream_file.recover_ms", "ms"),
    ("codec_core.stream_file.open_ms", "ms"),
    ("codec_core.stream_file.read_random_us", "us"),
    ("codec_core.stream_file.read_seq_us", "us"),
    ("rsz.decompress_mib_s", "MiB/s"),
    ("zfplite.decompress_mib_s", "MiB/s"),
    ("trace.ledger_coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.replay_push_ms", "ms"),
    ("failed_frac", "fraction"),
    ("spectrum_rel_err", "fraction"),
    ("halo_mass_rel_err", "fraction"),
    ("push_p50_ms", "ms"),
    ("push_p90_ms", "ms"),
    ("read_mib_s", "MiB/s"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (pushes or reads).
    pub attempted: u64,
    /// Refused, errored or correctness-failed operations.
    pub failed: u64,
    /// Correctness and validity violations (any one fails the run).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload provenance: loop type, threads, rates, sizes.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Record a violation that failed `ops` operations.
    pub fn violate(&mut self, ops: u64, msg: impl Into<String>) {
        self.failed += ops;
        let msg = msg.into();
        if self.violations.len() < 50 {
            self.violations.push(msg);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Quote a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A flat JSON object of string values.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `names`, each with its unit.
pub fn result_line(o: &Outcome, names: &[(&str, &str)], correct: bool) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let v = o.metrics.get(n).copied().unwrap_or(f64::NAN);
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(v), json_str(u))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(valid_name("codec_core.stream_file.read_us") && valid_name("9-x"));
        for (_, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(u.len() <= 16);
            assert!(u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{u}");
        }
    }

    /// The names the code emits are exactly the ones `BENCHMARK.json`
    /// declares, in the same sections.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // Each section is a flat list of objects: it ends at the first `]`.
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = start + json[start..].find(']').expect("section closes");
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layer);
        let workloads = section("workloads");
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        o.set("setup_s", 0.5);
        let line = result_line(&o, &[("setup_s", "s"), ("read_p50_ms", "ms")], true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"read_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
