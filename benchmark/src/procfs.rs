//! Readers of `/proc`: CPU time, peak memory, context switches and threads
//! of a process, and the host's steal time. The benchmark observes the
//! program under test from outside through these.

use std::fs;

/// Linux reports process times in clock ticks of `USER_HZ`, which is 100 on
/// every supported architecture.
const TICKS_PER_S: f64 = 100.0;

fn read(path: String) -> String {
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `"self"` or a pid, as a `/proc` path component.
pub fn pid_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "self".to_string(), |p| p.to_string())
}

/// User + system CPU seconds consumed so far by all threads of the process.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let stat = read(format!("/proc/{}/stat", pid_dir(pid)));
    // the command name (field 2) may hold spaces: parse after its ')'
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3, so utime (14) and stime (15) are 11 and 12
    let ticks: u64 = [11, 12]
        .iter()
        .map(|&i| fields[i].parse::<u64>().expect("tick count"))
        .sum();
    ticks as f64 / TICKS_PER_S
}

fn status_number(pid: Option<u32>, key: &str) -> u64 {
    read(format!("/proc/{}/status", pid_dir(pid)))
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc status has no {key}"))
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_number(pid, "VmHWM") as f64 / 1024.0
}

/// Voluntary + involuntary context switches of the thread-group leader
/// plus every other thread.
pub fn ctx_switches(pid: Option<u32>) -> u64 {
    let dir = format!("/proc/{}/task", pid_dir(pid));
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .filter_map(|entry| fs::read_to_string(entry.ok()?.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

pub fn threads(pid: Option<u32>) -> u64 {
    status_number(pid, "Threads")
}

/// `(steal, total)` jiffies of the whole host from the first line of
/// `/proc/stat`.
pub fn host_cpu() -> (u64, u64) {
    let stat = read("/proc/stat".to_string());
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal
    (fields[7], fields[..8].iter().sum())
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds(None) > 0.0);
        assert!(peak_rss_mb(None) > 0.5);
        assert!(threads(None) >= 1);
        assert!(ctx_switches(None) >= 1 || ctx_switches(Some(std::process::id())) == 0);
        let (steal, total) = host_cpu();
        assert!(total > steal);
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share((10, 100), (10, 100)), 0.0);
        assert_eq!(steal_share((10, 100), (15, 200)), 0.05);
    }
}
