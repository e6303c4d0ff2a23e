//! Small numeric helpers: percentiles, the seeded generator every input is
//! drawn from, and the process's peak resident set.

use lasagne_qc::rng::SplitMix64;

/// The `p`-th percentile (0–100) of `xs` by the nearest-rank method; 0 for
/// an empty slice. Sorts a copy, so callers keep samples in arrival order.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median as the mean of the samples ranked from the 45th to the 55th
/// percentile. `translate-cold` and `execute` time whole passes over 28
/// programs, so the middle rank falls exactly between the 14th and the
/// 15th program's run times. A nearest-rank median jumps across that gap
/// whenever one run crosses it: on `execute`, p50 read 2849 or 3462 ref_us,
/// run by run. The window mean moves by a small share of the gap instead.
pub fn central_median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let lo = (n * 45 / 100).min(n - 1);
    let hi = (n * 55).div_ceil(100).clamp(lo + 1, n);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Length of one slice of a run. Each end-to-end timing is computed per
/// slice and reported as the median over slices, so a few seconds of
/// contention from other tenants of the host move one or two slices, not
/// the run's figure.
pub const SLICE_SECS: f64 = 2.0;

/// The calibration kernel's time on the reference host, in µs. The
/// reference host is defined by this constant, not by a machine: every
/// timing the benchmark reports is scaled to it and carries a `ref_` unit
/// (`ref_us`, `1/ref_s`, …), except `setup_s`, whose unit the benchmark
/// format fixes as `s`.
pub const CALIBRATION_REF_US: f64 = 500.0;

/// Runs a fixed, self-contained kernel (sorting, ordered-map inserts and
/// string formatting; no translator code) and returns its wall time in
/// µs. Timed next to the workload, it tracks how fast the shared host is
/// running at that moment.
pub fn calibration_us() -> f64 {
    let t0 = std::time::Instant::now();
    let mut v: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut m = std::collections::BTreeMap::new();
    for (i, x) in v.iter().enumerate() {
        m.insert(*x >> 7, i);
    }
    v.sort_unstable();
    let mut st: Vec<String> = v.iter().take(1024).map(|x| format!("{x:x}")).collect();
    st.sort();
    std::hint::black_box((&m, &st));
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// The operations of one slice of a run.
#[derive(Default)]
pub struct Slice {
    /// Calibration kernel times taken in this slice, with no load of the
    /// benchmark's own running.
    pub cal_us: Vec<f64>,
    pub lat_us: Vec<f64>,
    /// Seconds the slice's rates are taken over: the time spent in its
    /// timed operations.
    pub secs: f64,
    /// Operations completed.
    pub ops: u64,
    /// Units of work done (instructions translated, served or retired).
    pub work: u64,
}

/// `f` per non-empty slice, then the median over slices.
pub fn over_slices(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.lat_us.is_empty() && s.ops > 0 && s.secs > 0.0)
        .map(f)
        .collect();
    median(&per)
}

/// How much slower than the reference the host ran, given the median
/// calibration time taken beside the work (1 without one). Times are
/// divided by it and rates multiplied to give reference units.
pub fn slowdown(calibration_us: f64) -> f64 {
    if calibration_us > 0.0 {
        calibration_us / CALIBRATION_REF_US
    } else {
        1.0
    }
}

fn host_slowdown(s: &Slice) -> f64 {
    slowdown(median(&s.cal_us))
}

/// The four timing figures every workload reports: p50 and p95 latency
/// (`ref_us`), operations and thousands of work units per reference
/// second.
/// Each is computed per slice, scaled to the reference host by that
/// slice's calibration (latencies divided by the slowdown, rates
/// multiplied), and reported as the median over slices. Co-tenants of a
/// shared host swing raw figures by 20–40% for seconds at a time; the
/// calibration taken in the same slice cancels most of that swing, while
/// a change to the translator moves the figure and not the calibration.
/// The kernel fits in the L1 and L2 caches, so it tracks CPU speed but
/// not contention for memory bandwidth.
/// p50 is [`central_median`]; p95 is the highest percentile with at least
/// ten samples beyond it in every slice of every workload.
pub fn slice_figures(slices: &[Slice]) -> [(&'static str, f64); 4] {
    [
        (
            "p50_us",
            over_slices(slices, |s| central_median(&s.lat_us) / host_slowdown(s)),
        ),
        (
            "p95_us",
            over_slices(slices, |s| percentile(&s.lat_us, 95.0) / host_slowdown(s)),
        ),
        (
            "ops_per_s",
            over_slices(slices, |s| s.ops as f64 / s.secs * host_slowdown(s)),
        ),
        (
            "kinsts_per_s",
            over_slices(slices, |s| s.work as f64 / s.secs / 1e3 * host_slowdown(s)),
        ),
    ]
}

/// The run's median calibration time (µs).
pub fn calibration_median(slices: &[Slice]) -> f64 {
    let all: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.cal_us.iter().copied())
        .collect();
    median(&all)
}

/// Runs one set-up right after three calibration runs and returns its
/// result with its time in seconds, scaled to the reference host by
/// those runs' median. Set-up happens before any slice, so it carries its
/// own calibration.
pub fn timed_setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cal = median(&[calibration_us(), calibration_us(), calibration_us()]);
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * CALIBRATION_REF_US / cal)
}

/// Geometric mean of positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The benchmark's only source of randomness: every input, order and mix
/// is a function of the `--seed` argument through this generator.
pub struct Rng(SplitMix64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent consumers
    /// (one per load round) drawn from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SplitMix64::new(
            seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(central_median(&[4.0]), 4.0);
    }

    #[test]
    fn central_median_averages_across_a_gap() {
        // Two programs, 100 runs each, 2x apart: the window takes ten runs
        // of each, and one slow run of the faster program moves it by a
        // tenth of the gap, not all of it.
        let mut xs: Vec<f64> = [vec![1.0; 100], vec![2.0; 100]].concat();
        assert_eq!(central_median(&xs), 1.5);
        assert_eq!(percentile(&xs, 50.0), 1.0);
        xs[0] = 2.5;
        assert!((central_median(&xs) - 1.55).abs() < 1e-9);
        assert_eq!(percentile(&xs, 50.0), 2.0);
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
