//! Host facts for self-describing benchmark artifacts: how much hardware
//! parallelism a run actually had, and how much CPU time it burned (so
//! wall-vs-CPU ratios expose "parallel speedup ≈ 1×" as the 1-core
//! container artifact it is rather than a regression).

/// What the host offered a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()`, 1 when unknown.
    pub available_parallelism: usize,
    /// Process CPU time (user + system) in milliseconds, when the
    /// platform exposes it (`/proc/self/stat` on Linux).
    pub cpu_time_ms: Option<u64>,
}

/// Reads the current host facts.
pub fn host_info() -> HostInfo {
    HostInfo {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_time_ms: cpu_time_ms(),
    }
}

/// Process CPU time from `/proc/self/stat`: fields 14 (utime) and 15
/// (stime) in clock ticks, past the parenthesised comm field. The tick
/// rate is the kernel's `USER_HZ`, fixed at 100 on every Linux ABI this
/// stack targets.
/// The host-provenance fields every BENCH report ends with, so a number
/// in a CI artifact can be read against the machine that produced it:
/// available parallelism, the worker count the run used (`jobs`), its wall
/// time and the process CPU time (CPU ≫ wall means the figures include
/// parallel contention; `cpu_ms` is `null` where the platform offers no
/// process CPU clock).
///
/// Returns indented `"key": value` lines, one field each, without braces
/// or a trailing comma, ready to close a flat BENCH JSON object.
pub fn host_json_fields(jobs: usize, wall_ms: f64) -> String {
    let host = host_info();
    format!(
        "  \"host_parallelism\": {},\n  \"jobs\": {jobs},\n  \
         \"wall_ms\": {wall_ms:.0},\n  \"cpu_ms\": {}",
        host.available_parallelism,
        host.cpu_time_ms
            .map_or_else(|| "null".into(), |ms| ms.to_string()),
    )
}

#[cfg(target_os = "linux")]
fn cpu_time_ms() -> Option<u64> {
    const TICKS_PER_SEC: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &stat[stat.rfind(')')? + 2..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000 / TICKS_PER_SEC)
}

#[cfg(not(target_os = "linux"))]
fn cpu_time_ms() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(host_info().available_parallelism >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_time_reads_and_grows() {
        let before = cpu_time_ms().expect("/proc/self/stat readable");
        // Burn a little CPU so the counter can only move forward.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        assert!(x != 42);
        let after = cpu_time_ms().expect("/proc/self/stat readable");
        assert!(after >= before);
    }
}
