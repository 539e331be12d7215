//! Readings of the process and the host from `/proc`.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time, all threads, user plus system.
pub struct ProcSample {
    pub cpu_s: f64,
}

impl ProcSample {
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Self {
            cpu_s: (tick(11) + tick(12)) / TICKS_PER_S,
        }
    }
}

/// The machine-wide CPU counters of `/proc/stat`.
pub struct HostSample {
    busy: u64,
    steal: u64,
    total: u64,
}

/// Host shares over an interval, in percent of all CPU time.
pub struct HostDelta {
    /// Time the hypervisor gave to other guests.
    pub steal_pct: f64,
    /// Time spent running anything (user, nice, system, irq, softirq).
    pub cpu_util: f64,
}

impl HostSample {
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = stat.lines().next().unwrap_or("");
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        Self {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
            total: (0..8).map(at).sum(),
        }
    }

    pub fn since(&self, earlier: &HostSample) -> HostDelta {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        HostDelta {
            steal_pct: 100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total,
            cpu_util: 100.0 * self.busy.saturating_sub(earlier.busy) as f64 / total,
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
