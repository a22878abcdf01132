//! Host fingerprint and process memory, recorded with every result.

use std::fmt::Write as _;
use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub(crate) fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// CPU model name from `/proc/cpuinfo`.
pub(crate) fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in bytes of cpu0's unified/data cache at `level`, from sysfs.
pub(crate) fn cache_bytes(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let Some(lv) = read("level") else { break };
        if lv.trim() != level.to_string() || read("type").is_some_and(|t| t.trim() == "Instruction")
        {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

/// `rustc --version` of the toolchain on `PATH`.
pub(crate) fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout in the current directory, read from `.git`
/// without starting git (and without looking above the checkout); a
/// checkout that is not a git repository reports `unknown`.
pub(crate) fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                // Packed refs: "<sha> <ref>" lines.
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// The fingerprint as a JSON object body.
pub fn fingerprint_json(threads: usize) -> String {
    let mut s = String::new();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
    let _ = write!(
        s,
        "{{\"nproc\": {}, \"threads_used\": {threads}, \"cpu\": \"{}\", \"l2_bytes\": {}, \
         \"l3_bytes\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        nproc(),
        cpu_model().replace('"', "'"),
        opt(cache_bytes(2)),
        opt(cache_bytes(3)),
        rustc_version().replace('"', "'"),
        commit()
    );
    s
}
