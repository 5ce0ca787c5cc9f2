//! Process-level measurements read from `/proc/self`: CPU time, voluntary
//! context switches and peak resident set. No libc dependency.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`: `USER_HZ`, which Linux fixes at 100 on every
/// architecture it exposes `/proc` on.
const USER_HZ: f64 = 100.0;

#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// User and system CPU time of the whole process, exited threads included.
pub fn cpu_times() -> CpuTimes {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may hold spaces:
    // count fields from the last ')'. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (tick(), tick());
    CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary context switches summed over the live threads. Threads that
/// exited take their count with them, so take both readings while the
/// workload's threads are alive.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// The modelled waits are `thread::sleep`s of 50 to 500 us. Linux lets a
/// sleeping thread wake up to its timer slack late, 50 us by default, so
/// that a 100 us wire would cost about 155 us, and by how much depends on
/// what else the host runs. A slack of 1 ns makes a wait what the model says
/// it is. Threads inherit the slack of the thread that spawns them. Where
/// `/proc` refuses the write the default stays, for parent and change alike.
pub fn tighten_timer_slack() {
    let _ = fs::write("/proc/self/timerslack_ns", "1");
}

pub fn timer_slack_ns() -> u64 {
    fs::read_to_string("/proc/self/timerslack_ns")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let before = cpu_times();
        let mut x = 0u64;
        while cpu_times().since(before).total_s() < 0.03 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(peak_rss_mib() > 1.0);
        // Reading /proc blocks at least never; the count only has to parse.
        let _ = voluntary_ctx_switches();
    }
}
