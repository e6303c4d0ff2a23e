//! Monotonic counters and fixed-bucket histograms.
//!
//! Counters are **lock-striped**: each worker track hashes to one of
//! [`COUNTER_STRIPES`] independent maps, so concurrent `par_map` workers
//! increment without contending; [`MetricsRegistry::snapshot`] merges the
//! stripes. Totals are therefore exact and independent of scheduling —
//! a parallel run and a serial run of the same work produce identical
//! snapshots.
//!
//! Histograms use fixed, caller-supplied bucket bounds. Value `v` lands in
//! the first bucket whose upper bound satisfies `v <= bounds[i]`, with one
//! implicit overflow bucket at the end, so bucket assignment is a pure
//! function of `(bounds, v)`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{json, lock_clean};

/// Number of counter stripes.
pub const COUNTER_STRIPES: usize = 8;

/// A fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the last
    /// entry is the overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub total: u64,
}

impl Histogram {
    /// An empty histogram with the given bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    /// The bucket index `value` falls into: the first `i` with
    /// `value <= bounds[i]`, or the overflow bucket.
    pub fn bucket_index(bounds: &[u64], value: u64) -> usize {
        bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(bounds.len())
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let i = Histogram::bucket_index(&self.bounds, value);
        self.counts[i] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Folds every observation of `other` into `self` (bucket-wise; both
    /// histograms must share bounds). Used to replay an externally
    /// maintained histogram — e.g. the work-stealing pool's queue-depth
    /// buckets — into a run's registry.
    ///
    /// # Panics
    ///
    /// Panics if the bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.total += other.total;
    }

    /// Number of recorded values (accessor form of the public field, for
    /// call sites holding the histogram behind an interface).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `p`-th percentile (0–100) estimated from the bucket counts by
    /// linear interpolation inside the target bucket.
    ///
    /// The target rank is the nearest-rank `ceil(p/100 · total)`; the
    /// serve daemon and its replay client both read their latencies
    /// through this one estimator. Within the bucket holding that rank
    /// the estimate interpolates between the bucket's bounds — bucket
    /// `i` covers `(bounds[i-1], bounds[i]]`, with an implicit lower
    /// edge of 0 — so the error is bounded by one bucket width. Ranks
    /// landing in the overflow bucket return the last finite bound (a
    /// floor: the true value is at least that), and an empty histogram
    /// returns 0.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 || self.bounds.is_empty() {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil() as u64;
        let target = target.clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if i >= self.bounds.len() {
                    // Overflow bucket: no upper bound to interpolate
                    // toward; report the largest finite bound.
                    return self.bounds[self.bounds.len() - 1];
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (target - seen) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * into).round() as u64;
            }
            seen += c;
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// The observations recorded in `self` but not in `earlier`: the
    /// bucket-wise difference of two snapshots of one monotonically
    /// growing histogram. Saturating, so a mismatched pair degrades to
    /// zeros instead of wrapping.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new(&self.bounds);
        for (i, c) in self.counts.iter().enumerate() {
            d.counts[i] = c.saturating_sub(earlier.counts.get(i).copied().unwrap_or(0));
        }
        d.sum = self.sum.saturating_sub(earlier.sum);
        d.total = self.total.saturating_sub(earlier.total);
        d
    }

    /// Renders the histogram as a JSON object.
    pub fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(u64::to_string).collect();
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!(
            "{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"total\":{}}}",
            bounds.join(","),
            counts.join(","),
            self.sum,
            self.total
        )
    }
}

/// The counter/histogram store shared by all clones of an enabled
/// `TraceCtx`.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Vec<Mutex<BTreeMap<String, u64>>>,
    histos: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: (0..COUNTER_STRIPES)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            histos: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `delta` to counter `name`, striping by `track`.
    pub fn add(&self, track: u32, name: &str, delta: u64) {
        let mut stripe = lock_clean(&self.counters[track as usize % COUNTER_STRIPES]);
        match stripe.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                stripe.insert(name.to_string(), delta);
            }
        }
    }

    /// Records `value` into histogram `name`, creating it with `bounds` on
    /// first use.
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        self.with_histogram(name, bounds, |h| h.record(value));
    }

    /// Folds an externally maintained histogram into histogram `name`
    /// (creating it with `src`'s bounds on first use). The pipeline uses
    /// this to publish the shared pool's per-run queue-depth delta into a
    /// registry.
    pub fn merge_histogram(&self, name: &str, src: &Histogram) {
        self.with_histogram(name, &src.bounds, |h| h.merge(src));
    }

    /// Applies `f` to histogram `name`, creating it with `bounds` first
    /// if absent. The name is looked up before it is copied, so only the
    /// first use of a name allocates.
    fn with_histogram(&self, name: &str, bounds: &[u64], f: impl FnOnce(&mut Histogram)) {
        let mut histos = lock_clean(&self.histos);
        match histos.get_mut(name) {
            Some(h) => f(h),
            None => f(histos
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds))),
        }
    }

    /// Merges every stripe into one deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for stripe in &self.counters {
            for (k, v) in lock_clean(stripe).iter() {
                *counters.entry(k.clone()).or_insert(0) += v;
            }
        }
        MetricsSnapshot {
            counters,
            histos: lock_clean(&self.histos).clone(),
        }
    }
}

/// A merged, immutable view of all counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histos: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// A counter's total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"histograms":{...}}` with keys sorted.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::escape(k)));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histos.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json::escape(k), h.to_json()));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let bounds = [10, 100, 1000];
        assert_eq!(Histogram::bucket_index(&bounds, 0), 0);
        assert_eq!(Histogram::bucket_index(&bounds, 10), 0);
        assert_eq!(Histogram::bucket_index(&bounds, 11), 1);
        assert_eq!(Histogram::bucket_index(&bounds, 100), 1);
        assert_eq!(Histogram::bucket_index(&bounds, 101), 2);
        assert_eq!(Histogram::bucket_index(&bounds, 1000), 2);
        assert_eq!(Histogram::bucket_index(&bounds, 1001), 3);
        assert_eq!(Histogram::bucket_index(&bounds, u64::MAX), 3);
    }

    #[test]
    fn histogram_records_sum_and_total() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.total, 8);
        assert_eq!(h.sum, 1045);
    }

    /// Exact nearest-rank percentile of a value list, the reference the
    /// bucket estimator is pinned against.
    fn exact_percentile(values: &mut Vec<u64>, p: f64) -> u64 {
        values.sort_unstable();
        let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
        values[rank.clamp(1, values.len()) - 1]
    }

    #[test]
    fn percentile_interpolates_within_one_bucket_width() {
        // Uniform 1..=1000 over ten equal buckets: the estimator must land
        // within one bucket width (100) of the exact percentile, and is
        // expected to be much closer under a uniform distribution.
        let bounds: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        let mut h = Histogram::new(&bounds);
        let mut values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile(&mut values, p);
            let est = h.percentile(p);
            let err = est.abs_diff(exact);
            assert!(
                err <= 100,
                "p{p}: estimate {est} vs exact {exact} (err {err} > bucket width)"
            );
            assert!(
                err <= 2,
                "uniform data should interpolate tightly: p{p} err {err}"
            );
        }
    }

    #[test]
    fn percentile_on_skewed_data_stays_within_its_bucket() {
        // Exponentially spread values against doubling bounds: every
        // estimate must stay inside the bucket holding the exact value.
        let bounds: Vec<u64> = (0..16).map(|i| 1u64 << i).collect();
        let mut h = Histogram::new(&bounds);
        let mut values = Vec::new();
        for i in 0..14u64 {
            // 2^i observations of value 2^i: heavy head, long tail.
            for _ in 0..(1 << i) {
                values.push(1 << i);
                h.record(1 << i);
            }
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile(&mut values, p);
            let est = h.percentile(p);
            let bi = Histogram::bucket_index(&bounds, exact);
            let lower = if bi == 0 { 0 } else { bounds[bi - 1] };
            let upper = bounds[bi.min(bounds.len() - 1)];
            assert!(
                (lower..=upper).contains(&est),
                "p{p}: estimate {est} left exact value {exact}'s bucket [{lower},{upper}]"
            );
        }
    }

    #[test]
    fn percentile_edge_cases() {
        let bounds = [10, 100, 1000];
        let empty = Histogram::new(&bounds);
        assert_eq!(empty.percentile(50.0), 0, "empty histogram yields 0");

        let mut single = Histogram::new(&bounds);
        single.record(42);
        // One value in (10, 100]: every percentile interpolates inside
        // that bucket.
        for p in [0.0, 50.0, 100.0] {
            let est = single.percentile(p);
            assert!((11..=100).contains(&est), "p{p} = {est} outside bucket");
        }

        // Overflow-bucket ranks floor to the last finite bound.
        let mut over = Histogram::new(&bounds);
        over.record(5000);
        assert_eq!(over.percentile(99.0), 1000);
    }

    #[test]
    fn accessors_track_sum_and_total() {
        let mut h = Histogram::new(&[10, 100]);
        assert_eq!((h.total(), h.sum()), (0, 0));
        assert_eq!(h.mean(), 0.0);
        h.record(5);
        h.record(45);
        assert_eq!((h.total(), h.sum()), (2, 50));
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn striped_counters_merge_exactly() {
        let r = MetricsRegistry::new();
        for track in 0..32u32 {
            r.add(track, "x", 1);
        }
        r.add(0, "y", 7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), 32);
        assert_eq!(snap.counter("y"), 7);
        assert_eq!(snap.counter("absent"), 0);
    }
}
