//! Process and host facts read from `/proc`.

use std::path::Path;

/// User + system CPU time of this whole process (all threads, live and
/// exited), µs. `/proc` reports it in clock ticks of 1/100 s.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0.0))
        .collect();
    if f.len() < 13 {
        return 0.0;
    }
    (f[11] + f[12]) * 10_000.0
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bytes received on the loopback interface so far.
pub fn loopback_rx_bytes() -> u64 {
    let dev = std::fs::read_to_string("/proc/net/dev").unwrap_or_default();
    dev.lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
