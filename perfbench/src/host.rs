//! Host diagnostics: peak memory, CPU time and a fixed reference
//! kernel, so that a slow host or a slow memory layout shows apart
//! from a slow program.

use std::time::Instant;

/// Parses the `VmHWM` line (peak resident set, in kB) of a
/// `/proc/<pid>/status` text and returns it in MiB.
#[must_use]
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// User CPU seconds this process has used, summed over its threads
/// (`utime` of `/proc/self/stat`, in the kernel's 100 Hz user ticks).
#[must_use]
pub fn cpu_user_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let utime: f64 = rest.split_whitespace().nth(11)?.parse().ok()?;
    Some(utime / 100.0)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor gave this VM's virtual CPUs to someone else.
#[must_use]
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Times a fixed, allocation-free CPU kernel (a dependent integer and
/// float chain) in milliseconds. It touches no program code, so it
/// moves with the host (frequency, steal, co-tenants) and not with
/// the program's memory layout.
#[must_use]
pub fn host_ref_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64 + i as f64 * 1e-9);
    }
    std::hint::black_box((x, acc));
    t.elapsed().as_secs_f64() * 1e3
}

/// Times a fixed memory-bound kernel in milliseconds: a dependent
/// random walk over 16 MiB, larger than the last-level cache, so it
/// moves with memory bandwidth and latency that co-tenants share
/// (which [`host_ref_ms`] does not see).
#[must_use]
pub fn host_mem_ref_ms() -> f64 {
    const WORDS: usize = 1 << 21;
    // A single cycle through every slot (Sattolo's shuffle), fixed seed.
    let mut next: Vec<u32> = (0..WORDS as u32).collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..WORDS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tps3-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
    }

    #[test]
    fn rejects_missing_or_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_user_s().is_some_and(|s| s >= 0.0));
    }
}
