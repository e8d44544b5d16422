//! What the host spent: process CPU time, peak memory, thread count.
//! Linux-only (`/proc`), like the rest of the benchmark's tooling.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports them in USER_HZ, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, including
/// threads that have already exited. Resolution 10 ms.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ')'.
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Live OS threads of the process right now.
pub fn threads() -> usize {
    status_field("Threads:").expect("Threads in /proc/self/status") as usize
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
