//! Host readings from `/proc`: peak RSS, CPU time and steal time. They
//! tell host noise apart from a regression; none of them is a result of
//! the program. Also the CPU pinning of the load generator's threads.

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds used by this process and its reaped children (worker
/// processes), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesized command name; utime is field 14.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11, 12, 13, 14]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum();
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks / 100.0
}

/// Aggregate `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_default();
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Pins the calling thread to CPU `cpu`. Returns false where the host
/// has no such CPU (or no affinity call); the thread then stays free.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A 1024-CPU `cpu_set_t`.
        let mut mask = [0u64; 16];
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, properly sized cpu_set_t for the call
        // to read, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}
