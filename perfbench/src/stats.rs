//! Order statistics and process memory readings.

/// The median of `xs` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (n * p).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in whole percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentile `p` of latency samples taken in order, as the median over
/// consecutive windows of `window` samples of each window's own
/// percentile `p`. An incomplete last window is dropped unless it is the
/// only one. A percentile over a whole run follows the host's rare
/// scheduling stalls; a typical window's does not.
pub fn windowed(samples: &[f64], p: usize, window: usize) -> f64 {
    let window = window.max(1);
    let full = samples.len() / window * window;
    let used = if full == 0 { samples } else { &samples[..full] };
    let per_window: Vec<f64> = used
        .chunks(window)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect();
    median(&per_window)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time the calling thread has used, in seconds. Unlike the wall
/// clock it stops while the thread waits for a CPU, whether another
/// thread has it or the hypervisor has taken it: a single-threaded leg
/// timed by it measures the program's work, not the shared host's
/// scheduling.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have used, in seconds.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// Cumulative `(steal, total)` CPU time of the machine, in clock ticks,
/// from the first line of `/proc/stat`; `None` where the file is absent.
/// Steal is time the hypervisor ran someone else on this VM's CPUs.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 500.0);
        assert_eq!(percentile(&sorted, 99), 990.0);
    }

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let (thread, process) = (thread_cpu_secs(), process_cpu_secs());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_secs() - thread < 0.01);
        let mut x = 0u64;
        while thread_cpu_secs() - thread < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        // The process clock also counts the work of other threads.
        std::thread::spawn(|| {
            let start = thread_cpu_secs();
            while thread_cpu_secs() - start < 0.02 {}
        })
        .join()
        .unwrap();
        assert!(process_cpu_secs() - process >= 0.04);
    }

    #[test]
    fn windowed_percentiles_ignore_one_stalled_window() {
        // Five windows of 200 samples; one of them stalls throughout.
        let mut samples: Vec<f64> = (0..1000).map(|i| (i % 200) as f64).collect();
        for s in &mut samples[200..400] {
            *s += 10_000.0;
        }
        assert_eq!(windowed(&samples, 95, 200), 189.0);
        assert_eq!(windowed(&samples, 50, 200), 99.0);
        assert_eq!(windowed(&samples[..150], 50, 200), 74.0);
    }
}
