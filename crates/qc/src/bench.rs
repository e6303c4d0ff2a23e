//! A minimal wall-clock benchmark runner (the in-tree `criterion`
//! replacement).
//!
//! Methodology: a warm-up phase both warms caches and calibrates how many
//! iterations fit in one sample; then `samples` timed samples of that many
//! iterations each are collected, and per-iteration median, mean, and
//! standard deviation are reported. A human-readable line is printed per
//! benchmark as it completes; [`Runner::finish`] emits a machine-readable
//! JSON summary to stdout (and to `$LASAGNE_BENCH_JSON` if set).
//!
//! Environment knobs: `LASAGNE_BENCH_WARMUP_MS`, `LASAGNE_BENCH_SAMPLES`,
//! `LASAGNE_BENCH_SAMPLE_MS`, `LASAGNE_BENCH_JSON`.

use lasagne_trace::json::escape;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing parameters for one [`Runner`].
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Warm-up / calibration budget per benchmark, in milliseconds.
    pub warmup_ms: u64,
    /// Number of timed samples per benchmark.
    pub samples: u32,
    /// Target wall-clock length of one sample, in milliseconds.
    pub sample_ms: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            warmup_ms: 200,
            samples: 10,
            sample_ms: 50,
        }
    }
}

impl BenchConfig {
    /// The default configuration with `LASAGNE_BENCH_*` overrides applied.
    pub fn from_env() -> BenchConfig {
        let get = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        let d = BenchConfig::default();
        BenchConfig {
            warmup_ms: get("LASAGNE_BENCH_WARMUP_MS").unwrap_or(d.warmup_ms),
            samples: get("LASAGNE_BENCH_SAMPLES")
                .map(|v| v as u32)
                .unwrap_or(d.samples),
            sample_ms: get("LASAGNE_BENCH_SAMPLE_MS").unwrap_or(d.sample_ms),
        }
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Benchmark id within its group.
    pub name: String,
    /// Iterations per timed sample (calibrated during warm-up).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: u32,
    /// Median of the per-sample means.
    pub median_ns: f64,
    /// Mean of the per-sample means.
    pub mean_ns: f64,
    /// Standard deviation of the per-sample means.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// Formats nanoseconds with a human-appropriate unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Collects and reports a group of benchmarks.
pub struct Runner {
    group: String,
    cfg: BenchConfig,
    results: Vec<Summary>,
    meta: Vec<(String, u64)>,
}

impl Runner {
    /// A runner for the named group, configured from the environment.
    pub fn new(group: &str) -> Runner {
        Runner {
            group: group.to_string(),
            cfg: BenchConfig::from_env(),
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// A runner with an explicit configuration.
    pub fn with_config(group: &str, cfg: BenchConfig) -> Runner {
        Runner {
            group: group.to_string(),
            cfg,
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Records a group-level counter (e.g. cache hits) emitted under
    /// `"meta"` in the JSON summary. Later notes with the same key
    /// overwrite earlier ones.
    pub fn note(&mut self, key: &str, value: u64) {
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Measures `f`, printing one progress line and recording a summary.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warm-up doubles as calibration.
        let warmup = Duration::from_millis(self.cfg.warmup_ms.max(1));
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter_ns = (start.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
        let iters = (self.cfg.sample_ms.max(1) * 1_000_000 / per_iter_ns).max(1);

        let mut samples: Vec<f64> = Vec::with_capacity(self.cfg.samples as usize);
        for _ in 0..self.cfg.samples.max(1) {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let summary = Summary {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: n as u32,
            median_ns: median,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            min_ns: samples[0],
            max_ns: samples[n - 1],
        };
        println!(
            "{:<40} median {:>12}   σ {:>12}   ({} iters × {} samples)",
            format!("{}/{}", self.group, summary.name),
            fmt_ns(summary.median_ns),
            fmt_ns(summary.stddev_ns),
            summary.iters_per_sample,
            summary.samples,
        );
        self.results.push(summary);
    }

    /// Serializes the group's results as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"group\":{},\"warmup_ms\":{},\"samples\":{},\"sample_ms\":{},\"benches\":[",
            escape(&self.group),
            self.cfg.warmup_ms,
            self.cfg.samples,
            self.cfg.sample_ms
        ));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"iters_per_sample\":{},\"samples\":{},\"median_ns\":{:.1},\
                 \"mean_ns\":{:.1},\"stddev_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1}}}",
                escape(&r.name),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.mean_ns,
                r.stddev_ns,
                r.min_ns,
                r.max_ns
            ));
        }
        s.push(']');
        if !self.meta.is_empty() {
            s.push_str(",\"meta\":{");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{}:{v}", escape(k)));
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Prints the JSON summary (and writes `$LASAGNE_BENCH_JSON` if set).
    pub fn finish(self) {
        let json = self.to_json();
        println!("{json}");
        if let Some(path) = std::env::var_os("LASAGNE_BENCH_JSON") {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!(
                    "[lasagne-qc] could not write {}: {e}",
                    path.to_string_lossy()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serializes() {
        let cfg = BenchConfig {
            warmup_ms: 1,
            samples: 3,
            sample_ms: 1,
        };
        let mut r = Runner::with_config("unit", cfg);
        let mut acc = 0u64;
        r.bench("wrapping_sum", || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(r.results.len(), 1);
        let json = r.to_json();
        assert!(json.contains("\"group\":\"unit\""), "{json}");
        assert!(json.contains("\"name\":\"wrapping_sum\""), "{json}");
        assert!(json.contains("median_ns"), "{json}");
        assert!(!json.contains("\"meta\""), "{json}");
        r.note("cache_hits", 7);
        r.note("cache_hits", 9);
        r.note("cache_misses", 1);
        let json = r.to_json();
        assert!(
            json.ends_with(",\"meta\":{\"cache_hits\":9,\"cache_misses\":1}}"),
            "{json}"
        );
    }
}
