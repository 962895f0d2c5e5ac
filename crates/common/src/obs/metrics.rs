//! Process-wide named metrics: counters, gauges, and power-of-two-bucket
//! histograms, interned in a registry and updated lock-free.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Set the gauge to `n`.
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets; bucket `i` counts values whose
/// most-significant bit is `i` (i.e. value in `[2^i, 2^(i+1))`), with the
/// last bucket absorbing the tail.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-shape power-of-two histogram (no allocation on record).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        let idx = (63 - u64::leading_zeros(value.max(1)) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` ≈ values in `[2^i, 2^(i+1))`).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (`2^(i+1) - 1`) of the bucket containing the `q`-quantile
    /// observation, `q` in `[0, 1]`. Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry interning metrics by name. Lookup takes a lock; updates on
/// the returned handles are lock-free, so callers resolve handles once
/// (per query / per object) and bump them at batch granularity.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (used by tests; production code shares
    /// [`MetricsRegistry::global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.inner.lock();
        for (n, metric) in m.iter() {
            if n == name {
                if let Metric::Counter(c) = metric {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::default());
        m.push((name.to_string(), Metric::Counter(Arc::clone(&c))));
        c
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.inner.lock();
        for (n, metric) in m.iter() {
            if n == name {
                if let Metric::Gauge(g) = metric {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::default());
        m.push((name.to_string(), Metric::Gauge(Arc::clone(&g))));
        g
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.inner.lock();
        for (n, metric) in m.iter() {
            if n == name {
                if let Metric::Histogram(h) = metric {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::default());
        m.push((name.to_string(), Metric::Histogram(Arc::clone(&h))));
        h
    }

    /// Render every metric as one `name value` line, sorted by name.
    /// Histograms render as `name count=N sum=S mean=M p99<=B`.
    pub fn render_text(&self) -> String {
        let mut lines: Vec<String> = self
            .inner
            .lock()
            .iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => format!("{name} {}", c.get()),
                Metric::Gauge(g) => format!("{name} {}", g.get()),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    format!(
                        "{name} count={} sum={} mean={:.1} p99<={}",
                        s.count,
                        s.sum,
                        s.mean(),
                        s.quantile_upper_bound(0.99)
                    )
                }
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_intern_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("exec.batch.rows");
        let b = r.counter("exec.batch.rows");
        a.add(5);
        b.inc();
        assert_eq!(a.get(), 6);
        let g = r.gauge("pool.in_use");
        g.add(10);
        g.add(-3);
        assert_eq!(r.gauge("pool.in_use").get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 700, 700, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 2106);
        // Half the observations are <= 3, so the median bucket bound is small.
        assert!(s.quantile_upper_bound(0.5) <= 3);
        // 700 lands in bucket 9 ([512, 1024)).
        assert_eq!(s.quantile_upper_bound(1.0), 1023);
    }

    #[test]
    fn render_text_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.histogram("c.waits").record(100);
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.first 1"));
        assert!(lines[2].contains("count=1"));
    }
}
