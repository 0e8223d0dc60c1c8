//! What the host is: the fingerprint every result carries, the
//! process's memory high-water mark, and the STREAM-triad ceiling.

use crate::json::Json;
use spmv_formats::LaneProfile;
use std::time::Instant;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Size in bytes of the unified or data cache at `level`, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let lvl: Option<u32> = read("level").and_then(|s| s.trim().parse().ok());
        let kind = read("type").unwrap_or_default();
        if lvl != Some(level) || kind.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

/// Size of the last-level cache in bytes (the deepest level sysfs
/// lists), with its level.
fn llc_bytes() -> Option<(u32, u64)> {
    (2..=4).rev().find_map(|l| cache_bytes(l).map(|b| (l, b)))
}

/// The commit the checkout came from, when it is a git work tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unavailable".into()),
        None => head,
    }
}

/// The host fingerprint: results from different hosts, thread counts
/// or lane profiles must never be compared silently.
pub fn fingerprint(lanes: LaneProfile, pool_threads: usize) -> Json {
    let env = |k: &str| std::env::var(k).map(Json::Str).unwrap_or(Json::Str("unset".into()));
    let opt =
        |v: Option<u64>| v.map(|b| Json::Int(b as i64)).unwrap_or(Json::Str("unknown".into()));
    let llc = llc_bytes();
    Json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        ("pool_threads", Json::Int(pool_threads as i64)),
        ("l2_bytes", opt(cache_bytes(2))),
        ("llc_bytes", opt(llc.map(|(_, b)| b))),
        ("llc_level", opt(llc.map(|(l, _)| u64::from(l)))),
        ("lane_width", Json::Int(lanes.width.lanes() as i64)),
        ("sell_c", Json::Int(lanes.sell_c as i64)),
        ("SPMV_THREADS", env("SPMV_THREADS")),
        ("SPMV_LANES", env("SPMV_LANES")),
        ("git_rev", Json::Str(git_rev())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
    ])
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// STREAM triad `a = b + s·c` on `threads` threads over three arrays
/// whose combined size is `working_set_bytes` (at least 24 MiB);
/// returns the median GB/s over `reps` passes, counting 24 bytes moved
/// per element.
pub fn triad_gbs(working_set_bytes: usize, threads: usize, reps: usize) -> f64 {
    let n = (working_set_bytes / 24).max(1 << 20);
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let mut a = vec![0.0f64; n];
    let s = std::hint::black_box(3.0);
    let chunk = n.div_ceil(threads.max(1));
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        std::hint::black_box(&mut a);
        rates.push(24.0 * n as f64 / t.elapsed().as_secs_f64() * 1e-9);
    }
    crate::stats::median(&rates).expect("at least one pass")
}
