//! Readers for the `/proc` figures the benchmark reports: process CPU
//! time, peak resident memory, CPU masks and host steal time.

use std::io;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the last `)`.
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status_field(status, "VmHWM:")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The caught-signal mask (`SigCgt`, bit `n - 1` for signal `n`) from
/// the text of `/proc/<pid>/status`.
#[must_use]
pub fn parse_signals_caught(status: &str) -> Option<u64> {
    u64::from_str_radix(status_field(status, "SigCgt:")?, 16).ok()
}

/// `Cpus_allowed_list` from the text of `/proc/<pid>/status`.
#[must_use]
pub fn parse_cpus_allowed(status: &str) -> Option<String> {
    status_field(status, "Cpus_allowed_list:").map(str::to_string)
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

/// Host-wide CPU tick counters from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// Ticks stolen by the hypervisor for other tenants.
    pub steal: u64,
    /// All ticks: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl HostTicks {
    /// Steal as a percentage of all ticks elapsed since `earlier`.
    #[must_use]
    pub fn steal_pct_since(self, earlier: HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
#[must_use]
pub fn parse_host_ticks(proc_stat: &str) -> Option<HostTicks> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (values.len() == 8).then(|| HostTicks {
        steal: values[7],
        total: values.iter().sum(),
    })
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU counters.
#[must_use]
pub fn clock_ticks_per_second() -> u64 {
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100)
}

fn bad(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {path}"))
}

/// User plus system CPU time of process `pid`, in milliseconds.
///
/// # Errors
///
/// The read error, or `InvalidData` for unparsable contents.
pub fn process_cpu_ms(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/stat");
    let ticks = parse_stat_cpu_ticks(&std::fs::read_to_string(&path)?).ok_or_else(|| bad(&path))?;
    Ok(ticks as f64 * 1e3 / clock_ticks_per_second() as f64)
}

/// Peak resident set of process `pid`, in kB.
///
/// # Errors
///
/// The read error, or `InvalidData` for unparsable contents.
pub fn process_vmhwm_kb(pid: u32) -> io::Result<u64> {
    let path = format!("/proc/{pid}/status");
    parse_vmhwm_kb(&std::fs::read_to_string(&path)?).ok_or_else(|| bad(&path))
}

/// The signals process `pid` has handlers for, as a bit mask.
///
/// # Errors
///
/// The read error, or `InvalidData` for unparsable contents.
pub fn process_signals_caught(pid: u32) -> io::Result<u64> {
    let path = format!("/proc/{pid}/status");
    parse_signals_caught(&std::fs::read_to_string(&path)?).ok_or_else(|| bad(&path))
}

/// The CPUs process `pid` may run on, as the kernel prints them.
///
/// # Errors
///
/// The read error, or `InvalidData` for unparsable contents.
pub fn process_cpus_allowed(pid: u32) -> io::Result<String> {
    let path = format!("/proc/{pid}/status");
    parse_cpus_allowed(&std::fs::read_to_string(&path)?).ok_or_else(|| bad(&path))
}

/// The host's tick counters now.
///
/// # Errors
///
/// The read error, or `InvalidData` for unparsable contents.
pub fn host_ticks() -> io::Result<HostTicks> {
    parse_host_ticks(&std::fs::read_to_string("/proc/stat")?).ok_or_else(|| bad("/proc/stat"))
}
