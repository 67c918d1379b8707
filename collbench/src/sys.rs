//! Process and host readings from `/proc`, plus the small statistics the
//! metrics are built from.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads, living and exited), in µs.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S * 1e6
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size, in kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Number of memory mappings the process holds.
pub fn maps() -> f64 {
    std::fs::read_to_string("/proc/self/maps").map_or(0.0, |m| m.lines().count() as f64)
}

/// `/proc/self/io` counters: read syscalls, write syscalls, bytes sent to
/// the storage layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub syscr: f64,
    pub syscw: f64,
    pub write_bytes: f64,
}

impl Io {
    pub fn now() -> Io {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let get = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        Io {
            syscr: get("syscr:"),
            syscw: get("syscw:"),
            write_bytes: get("write_bytes:"),
        }
    }

    pub fn since(self, start: Io) -> Io {
        Io {
            syscr: self.syscr - start.syscr,
            syscw: self.syscw - start.syscw,
            write_bytes: self.write_bytes - start.write_bytes,
        }
    }
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The host record printed with every result: what the numbers were
/// measured on.
pub fn host_json(workers: usize, wal_dir: &Path) -> String {
    format!(
        "{{\"available_parallelism\": {workers}, \"os\": \"{}\", \"arch\": \"{}\", \
         \"kernel\": \"{}\", \"wal_fs\": \"{}\", \"vm_max_map_count\": \"{}\", \
         \"network\": \"loopback only (TCP 127.0.0.1 and Unix domain sockets); no real link\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        read_trim("/proc/sys/kernel/osrelease"),
        fs_type(wal_dir),
        read_trim("/proc/sys/vm/max_map_count"),
    )
}

/// Nearest-rank quantile of unsorted samples; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
