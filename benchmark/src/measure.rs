//! Clocks and host facts every report carries.

use std::time::Instant;

/// Process CPU seconds, all threads, including threads that already
/// exited (the sharded workload's worker thread is gone by the time the
/// rep returns).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std itself links; it
    // writes one `timespec` (two 64-bit fields on 64-bit Linux, matching
    // `Timespec`) through the valid, exclusive pointer and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds `f` took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu0)
}

/// Confine this process, and every thread it starts from here on, to
/// the CPU it is running on. A timed child does this first, so that its
/// reps and its yardstick laps share one vCPU and the laps see whatever
/// the hypervisor does to the reps, and so that the one workload with a
/// helper thread (`fleet_full_16k`: coordinator and shard worker take
/// strict turns) hands over by a context switch, not by waking a second
/// vCPU, whose latency on a busy host added 25 % to its wall time.
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let Some(word) = usize::try_from(cpu).ok().and_then(|c| mask.get_mut(c / 64)) else {
        return;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `sched_setaffinity` reads `size` bytes through `mask`, which
    // points at a live array of exactly that size, and writes nothing.
    // A refusal (a container that forbids it) leaves the process unpinned,
    // which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim_matches([':', ' ', '\t']).to_string())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let Some(line) = proc_field("/proc/stat", "cpu ") else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user, so the first eight sum to the total.
    (
        v.get(7).copied().unwrap_or(0),
        v.iter().take(8).sum::<u64>(),
    )
}

/// Share of all CPU time the hypervisor withheld between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// What every output names about the machine and the build.
#[derive(Debug, Clone)]
pub struct Host {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
}

impl Host {
    pub fn read() -> Host {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
        };
        Host {
            // The pipeline's checkout is not a git repository.
            commit: run("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > c0, "{x}");
    }
}
