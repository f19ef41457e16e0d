//! The benchmark's clock, its percentile helper and CPU pinning.
//!
//! Per-call timings read the CPU's time-stamp counter: it costs a few
//! nanoseconds (against ~20 ns for `Instant::now`), which matters on the
//! cached path where a whole call takes tens of nanoseconds. Ticks are
//! converted to nanoseconds with a rate calibrated against the monotonic
//! clock over the whole run, so reported times keep all their digits
//! rather than snapping to whole nanoseconds.

use std::sync::OnceLock;
use std::time::Instant;

/// Reads the tick counter.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn now() -> u64 {
    // SAFETY: `rdtsc` has no preconditions; it only reads a counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the tick counter (nanoseconds since first use where no
/// time-stamp counter is available).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn now() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| (Instant::now(), now_raw()))
}

#[cfg(target_arch = "x86_64")]
fn now_raw() -> u64 {
    now()
}

#[cfg(not(target_arch = "x86_64"))]
fn now_raw() -> u64 {
    0
}

/// Starts the calibration window (call once, early).
pub fn start() {
    epoch();
}

/// Ticks per nanosecond, measured from [`start`] to this call.
pub fn ticks_per_ns() -> f64 {
    let (t0, c0) = *epoch();
    let elapsed = t0.elapsed().as_nanos() as f64;
    let ticks = now_raw().wrapping_sub(c0) as f64;
    if cfg!(target_arch = "x86_64") && elapsed > 0.0 && ticks > 0.0 {
        ticks / elapsed
    } else {
        1.0
    }
}

/// Runs `f`, pushing its duration in ticks to `sink` when `on`.
#[inline(always)]
pub fn timed<R>(on: bool, sink: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let start = now();
    let out = f();
    sink.push(now().wrapping_sub(start));
    out
}

/// Nearest-rank `q`-quantile of `samples` (reorders them); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Room for 1024 CPUs, as glibc's `cpu_set_t`.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// CPUs this process may run on.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable mask of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024).filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0).collect()
    }

    /// Restricts the calling thread to `cpu`; false if the kernel refused.
    pub fn pin(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid mask of the size passed; pid 0 names
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

/// Pins the calling thread to the `index`-th CPU this process may use
/// (wrapping). Best effort: an unpinned thread still runs correctly.
pub fn pin_to_cpu(index: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
        let allowed = ALLOWED.get_or_init(affinity::allowed);
        !allowed.is_empty() && affinity::pin(allowed[index % allowed.len()])
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = index;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [7], 0.99), 7);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
