//! Process- and host-level measurements read from outside the program:
//! CPU time and peak resident set from `/proc`, host provenance, and
//! pinning the serial replay to one CPU.

use std::path::Path;

/// USER_HZ: the unit of the CPU times in `/proc/<pid>/stat` (fixed at 100
/// on Linux for every architecture this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process (all
/// threads, including exited ones).
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User + system CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).expect("read a /proc stat file");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU ticks of the whole guest so far: (stolen by the hypervisor, total).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Share of the guest's CPU time the hypervisor stole since `since` (a
/// [`steal_ticks`] reading): how much other guests on the host took from
/// this run, which a reader needs to judge its timings.
pub fn steal_frac(since: (u64, u64)) -> f64 {
    let now = steal_ticks();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        0.0
    } else {
        now.0.saturating_sub(since.0) as f64 / total as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`): since the
/// process started, or since the last successful [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("resident-set field in /proc/self/status");
    kib / 1024.0
}

/// Reset the peak resident set to the current one, so that the harness's
/// own earlier work (generating inputs) leaves no mark on
/// [`peak_rss_mib`]. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The ISA extensions the codecs' dispatch cares about.
pub fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = vec!["x86_64"];
        if std::arch::is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        f.join("+")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// The commit the checkout was made from, when it is a git checkout;
/// benchmark checkouts usually are not, and report `unknown`.
pub fn commit(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.chars().take(12).collect(),
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` of glibc: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restrict this process to the first CPU it may run on. Must be called
/// before any thread is spawned: the data-parallel layer sizes its pool
/// from `available_parallelism` once per process, so a pinned process
/// runs every layer serially — the plain single-threaded baseline.
/// Returns whether the process now sees exactly one CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    let mut mask: affinity::CpuSet = [0; 16];
    let size = std::mem::size_of::<affinity::CpuSet>();
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // the layout glibc's cpu_set_t has; pid 0 names the calling thread.
    if unsafe { affinity::sched_getaffinity(0, size, &mut mask) } != 0 {
        return false;
    }
    let Some(cpu) = (0..1024).find(|&b| mask[b / 64] >> (b % 64) & 1 == 1) else {
        return false;
    };
    let mut one: affinity::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes holding a valid CPU
    // set with one CPU the process is already allowed to run on.
    if unsafe { affinity::sched_setaffinity(0, size, &one) } != 0 {
        return false;
    }
    nproc() == 1
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() >= c0);
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_cpu_seconds() <= cpu_seconds());
        // After a reset the peak is the current resident set, and it
        // rises again with memory this process touches.
        if reset_peak_rss() {
            let base = peak_rss_mib();
            assert!(base <= rss_mib() + 0.5);
            let v = std::hint::black_box(vec![1u8; 64 << 20]);
            assert!(peak_rss_mib() >= base + 60.0, "{} vs {base}", peak_rss_mib());
            drop(v);
        }
        assert!(nproc() >= 1);
        assert!(!isa().is_empty());
        let (steal, total) = steal_ticks();
        assert!(steal <= total && total > 0);
        assert!((0.0..=1.0).contains(&steal_frac((steal, total))));
    }
}
