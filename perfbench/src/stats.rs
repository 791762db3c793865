//! Sample statistics, timing helpers and process facts.

use std::time::Instant;

/// Seconds elapsed since `t0`, as a float.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle pair for even counts). `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs`. `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`). `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Number of samples strictly above the `q`-quantile — a percentile is
/// only reported when at least ten samples lie beyond it.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

/// Peak resident set size of this process (`VmHWM`), in MB. `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free memory back to the kernel, then restart
/// the peak resident set (`VmHWM`) from the resident set that is left,
/// so that `peak_rss_mb` covers only what follows. False when the
/// kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases memory the allocator holds
    // free; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `f` `k` times, timing each run; returns the last run's value and
/// every run's wall time in seconds. Each run's value is dropped before
/// the next run starts, so runs never overlap in memory.
pub fn repeat_timed<T>(k: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(secs(t0));
    }
    (last.expect("at least one run"), times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&hundred, 0.9), 10);
    }
}
