//! Smoke runs of the benchmark binary itself: every workload at smoke
//! size, untraced and traced, through the same process boundaries a real
//! run crosses (the pinned stream-build and replay children and their
//! text protocols). Each run must exit 0 and end with a correct result
//! line in which every metric was measured.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ingest_nyx", "ingest_drift_open", "readback_tiered"];

fn smoke(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1.5", "--smoke"])
        .args(["--drift-rate-hz", "40", "--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{workload} trace={trace}: {last}");
    assert!(last.contains("\"failed\": 0"), "{workload} trace={trace}: {last}");
    // The binary itself fails a run that leaves a metric of its section
    // unmeasured; a NaN would still print as null.
    assert!(!last.contains("null"), "{workload} trace={trace} left a metric unmeasured: {last}");
    // The run leaves only its trace files behind.
    let run_dir = dir.join(".bench_run");
    let left: Vec<_> = std::fs::read_dir(&run_dir)
        .map(|d| d.flatten().filter(|e| e.path().is_dir()).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "{workload} left {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_every_workload_untraced() {
    for w in WORKLOADS {
        smoke(w, false);
    }
}

#[test]
fn smoke_every_workload_traced() {
    for w in WORKLOADS {
        smoke(w, true);
    }
}
