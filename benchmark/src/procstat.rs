//! Process accounting from `/proc/self`: CPU time, minor page faults and
//! peak resident set. Every reader returns `None` where `/proc` does not
//! exist (anything but Linux), and the metrics then print as `null`.

/// Kernel clock ticks per second as exposed to user space. `USER_HZ` is
/// 100 on every Linux architecture; reading it properly needs `sysconf`,
/// which safe Rust does not have.
const USER_HZ: f64 = 100.0;

/// One reading of the process's cumulative counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcSample {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Option<ProcSample> {
        parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
    }

    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat(stat: &str) -> Option<ProcSample> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcSample {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// CPU nanoseconds consumed so far by the threads alive now, summed over
/// `/proc/self/task/*/schedstat` — nanosecond resolution where
/// `/proc/self/stat` counts 10 ms ticks, which an idle daemon never fills.
pub fn live_threads_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read; skip it.
        let path = task.ok()?.path().join("schedstat");
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_command_name_parses() {
        let line =
            "4242 (a b) c) S 1 4242 4242 0 -1 4194560 1234 0 7 0 250 130 0 0 20 0 9 0 100 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 1.3);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_converts_kb_to_mb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  250000 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(256.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn deltas_subtract_fieldwise() {
        let a = ProcSample {
            user_s: 1.0,
            sys_s: 0.5,
            minor_faults: 10,
        };
        let b = ProcSample {
            user_s: 1.75,
            sys_s: 1.0,
            minor_faults: 25,
        };
        let d = b.since(&a);
        assert_eq!((d.user_s, d.sys_s, d.minor_faults), (0.75, 0.5, 15));
    }
}
