//! CPU placement through `sched_setaffinity(2)`.
//!
//! The placement of the load generator and of the serving processes
//! decides most of the wall-clock time on a small machine, so the
//! benchmark fixes it explicitly. A thread's mask is inherited by the
//! threads and processes it creates afterwards.

use std::io;

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

#[repr(C)]
struct CpuSet([u64; SET_WORDS]);

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
}

/// A sorted, duplicate-free list of CPU numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuList(Vec<usize>);

impl CpuList {
    /// Parses `"1"`, `"0-1"` or `"0,2-3"`.
    ///
    /// # Errors
    ///
    /// A message naming the malformed or out-of-range part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cpus = Vec::new();
        for part in text.split(',') {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let num = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&c| c < SET_WORDS * 64)
                    .ok_or_else(|| format!("bad CPU `{s}` in `{text}`"))
            };
            let (lo, hi) = (num(lo)?, num(hi)?);
            if lo > hi {
                return Err(format!("bad CPU range `{part}`"));
            }
            cpus.extend(lo..=hi);
        }
        cpus.sort_unstable();
        cpus.dedup();
        Ok(Self(cpus))
    }

    /// The CPU numbers.
    #[must_use]
    pub fn cpus(&self) -> &[usize] {
        &self.0
    }

    /// Comma-separated CPU numbers, as `Cpus_allowed_list` prints
    /// single CPUs.
    #[must_use]
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.0.iter().map(ToString::to_string).collect();
        parts.join(",")
    }

    fn to_set(&self) -> CpuSet {
        let mut set = CpuSet([0; SET_WORDS]);
        for &c in &self.0 {
            set.0[c / 64] |= 1 << (c % 64);
        }
        set
    }
}

/// Restricts the calling thread to `cpus`.
///
/// # Errors
///
/// The OS error, e.g. when no CPU of the list is available.
pub fn pin_current_thread(cpus: &CpuList) -> io::Result<()> {
    let set = cpus.to_set();
    // SAFETY: `set` is a live, fully initialised `cpu_set_t`-sized value
    // and the size passed is exactly its size; pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The calling thread's current CPU mask.
///
/// # Errors
///
/// The OS error from `sched_getaffinity`.
pub fn current_thread() -> io::Result<CpuList> {
    let mut set = CpuSet([0; SET_WORDS]);
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // the exclusively borrowed `set`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpus = (0..SET_WORDS * 64)
        .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    Ok(CpuList(cpus))
}
