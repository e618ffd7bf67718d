//! Hand-rolled, lock-free runtime metrics: counters, gauges, and
//! log-linear histograms with p50/p99/max, plus a [`MetricsHub`] registry
//! that renders the whole inventory as Prometheus text exposition.
//!
//! The offline build rules out registry crates, so the plane is built
//! from `std::sync::atomic` only:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`;
//! * [`Gauge`] — signed instantaneous level (`AtomicI64`);
//! * [`Histogram`] — a fixed array of atomic buckets, log-linear with
//!   eight sub-buckets per power of two (≤ 6.25 % relative quantile
//!   error), plus exact `count`, `sum`, and `max`.
//!
//! Recording on any instrument is a handful of relaxed atomic RMWs —
//! no locks, no allocation — so instruments are safe to hit from the
//! engine's hot loops. The hub's mutex guards *registration only*:
//! callers register once, keep the returned `Arc` handle, and record
//! through it.
//!
//! ```
//! use cts_core::metrics::MetricsHub;
//!
//! let hub = MetricsHub::new();
//! let jobs = hub.counter("cts_jobs_submitted_total");
//! jobs.inc();
//! let lat = hub.histogram_scaled("cts_stage_seconds", 1e-9); // records ns
//! lat.record(1_500_000); // 1.5 ms
//! let text = hub.render_prometheus();
//! assert!(text.contains("cts_jobs_submitted_total 1"));
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, slots in use, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values `0..=15` get exact buckets; beyond that each power of two is
/// split into eight linear sub-buckets keyed by the three bits after the
/// leading one.
const LINEAR_CUTOFF: u64 = 16;
const SUB_BUCKETS: u32 = 8;
/// 16 exact + 8 per octave for exponents 4..=63.
const BUCKETS: usize = 16 + 60 * SUB_BUCKETS as usize;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= 4
    let sub = ((v >> (msb - 3)) & 0x7) as usize;
    16 + (msb as usize - 4) * SUB_BUCKETS as usize + sub
}

/// Upper edge of bucket `idx` — the value reported for quantiles landing
/// in that bucket (a ≤ 6.25 % overestimate in the log-linear range).
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let oct = (idx - 16) / SUB_BUCKETS as usize;
    let sub = ((idx - 16) % SUB_BUCKETS as usize) as u64;
    let msb = (oct + 4) as u32;
    let lower = (1u64 << msb) | (sub << (msb - 3));
    lower + (1u64 << (msb - 3)) - 1
}

/// A lock-free log-linear histogram of `u64` samples.
///
/// ~4 KiB of atomic buckets per instrument; recording is three relaxed
/// RMWs plus a compare-exchange loop for the exact maximum.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wraps only after `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket upper edge); `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        // Rank of the sample we want, 1-based, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Never report beyond the exact max.
                return Some(bucket_upper(idx).min(self.max()));
            }
        }
        Some(self.max())
    }

    /// Median (approximate).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// How a histogram's raw `u64` samples map to the exposition unit
/// (e.g. `1e-9` for nanosecond samples rendered as seconds).
#[derive(Clone, Copy, Debug)]
struct Scale(f64);

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>, Scale),
}

struct Registration {
    name: String,
    /// Optional single `key="value"` Prometheus label pair.
    label: Option<(String, String)>,
    instrument: Instrument,
}

impl Registration {
    fn series(&self) -> String {
        match &self.label {
            None => self.name.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
        }
    }

    fn series_with(&self, extra_key: &str, extra_val: &str) -> String {
        match &self.label {
            None => format!("{}{{{}=\"{}\"}}", self.name, extra_key, extra_val),
            Some((k, v)) => {
                format!(
                    "{}{{{}=\"{}\",{}=\"{}\"}}",
                    self.name, k, v, extra_key, extra_val
                )
            }
        }
    }
}

/// The process-wide metric registry.
///
/// Registration is idempotent: asking for the same `(name, label)` twice
/// returns the same instrument, so independent subsystems can share a
/// series without coordination. The internal mutex is touched only at
/// registration and render time — never on the record path.
#[derive(Default)]
pub struct MetricsHub {
    inner: Mutex<Vec<Registration>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("MetricsHub")
            .field("series", &inner.len())
            .finish()
    }
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    fn lookup<T, F>(&self, name: &str, label: Option<(&str, &str)>, pick: F) -> Option<T>
    where
        F: Fn(&Instrument) -> Option<T>,
    {
        let inner = self.inner.lock().unwrap();
        inner
            .iter()
            .find(|r| {
                r.name == name && r.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
            })
            .and_then(|r| pick(&r.instrument))
    }

    /// Registers (or fetches) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.lookup(name, None, |i| match i {
            Instrument::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        }) {
            return c;
        }
        let c = Arc::new(Counter::new());
        self.inner.lock().unwrap().push(Registration {
            name: name.to_string(),
            label: None,
            instrument: Instrument::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.lookup(name, None, |i| match i {
            Instrument::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        }) {
            return g;
        }
        let g = Arc::new(Gauge::new());
        self.inner.lock().unwrap().push(Registration {
            name: name.to_string(),
            label: None,
            instrument: Instrument::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers (or fetches) a histogram whose raw samples are scaled by
    /// `scale` at render time (e.g. `1e-9` for ns recorded, seconds shown).
    pub fn histogram_scaled(&self, name: &str, scale: f64) -> Arc<Histogram> {
        self.histogram_with_opt(name, None, scale)
    }

    /// Labeled variant of [`histogram_scaled`](MetricsHub::histogram_scaled).
    pub fn histogram_with(&self, name: &str, key: &str, value: &str, scale: f64) -> Arc<Histogram> {
        self.histogram_with_opt(name, Some((key, value)), scale)
    }

    fn histogram_with_opt(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        scale: f64,
    ) -> Arc<Histogram> {
        if let Some(h) = self.lookup(name, label, |i| match i {
            Instrument::Histogram(h, _) => Some(Arc::clone(h)),
            _ => None,
        }) {
            return h;
        }
        let h = Arc::new(Histogram::new());
        self.inner.lock().unwrap().push(Registration {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            instrument: Instrument::Histogram(Arc::clone(&h), Scale(scale)),
        });
        h
    }

    /// Renders every registered series as Prometheus text exposition.
    ///
    /// Counters and gauges emit one sample line each; histograms emit the
    /// summary form (`{quantile="0.5"|"0.99"}`, `_max`, `_sum`, `_count`)
    /// with sample values multiplied by the registered scale.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for reg in inner.iter() {
            let kind = match &reg.instrument {
                Instrument::Counter(_) => "counter",
                Instrument::Gauge(_) => "gauge",
                Instrument::Histogram(..) => "summary",
            };
            if !typed.contains(&reg.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", reg.name, kind));
                typed.push(reg.name.as_str());
            }
            match &reg.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{} {}\n", reg.series(), c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", reg.series(), g.get()));
                }
                Instrument::Histogram(h, Scale(s)) => {
                    let scale = |v: u64| v as f64 * s;
                    let p50 = h.p50().unwrap_or(0);
                    let p99 = h.p99().unwrap_or(0);
                    out.push_str(&format!(
                        "{} {}\n",
                        reg.series_with("quantile", "0.5"),
                        scale(p50)
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        reg.series_with("quantile", "0.99"),
                        scale(p99)
                    ));
                    let base = reg.series();
                    let (bare, labels) = match base.find('{') {
                        Some(i) => base.split_at(i),
                        None => (base.as_str(), ""),
                    };
                    out.push_str(&format!("{}_max{} {}\n", bare, labels, scale(h.max())));
                    out.push_str(&format!("{}_sum{} {}\n", bare, labels, scale(h.sum())));
                    out.push_str(&format!("{}_count{} {}\n", bare, labels, h.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < 1 << 20 {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
            v = v * 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, 1 << 40] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < member {v}");
            // Log-linear guarantee: ≤ 1/8 relative width above the cutoff.
            if v >= LINEAR_CUTOFF {
                assert!(
                    (upper - v) as f64 <= v as f64 / 8.0 + 1.0,
                    "bucket too wide at {v}: upper {upper}"
                );
            }
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_quantiles_track_uniform_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!(
            (450..=560).contains(&p50),
            "p50 {p50} off for uniform 1..=1000"
        );
        assert!(
            (980..=1000).contains(&p99),
            "p99 {p99} off for uniform 1..=1000"
        );
        // Quantiles never exceed the exact max.
        assert!(h.quantile(1.0).unwrap() <= h.max());
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        h.record(0);
        assert_eq!(h.p50(), Some(0));
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn hub_registration_is_idempotent() {
        let hub = MetricsHub::new();
        let a = hub.counter("x_total");
        let b = hub.counter("x_total");
        a.inc();
        assert_eq!(b.get(), 1);
        // Different label, different series.
        let c = hub.histogram_with("x_seconds", "stage", "Map", 1.0);
        c.record(5);
        assert_eq!(
            hub.histogram_with("x_seconds", "stage", "Reduce", 1.0)
                .count(),
            0
        );
        assert_eq!(
            hub.histogram_with("x_seconds", "stage", "Map", 1.0).count(),
            1
        );
    }

    #[test]
    fn prometheus_render_has_types_and_series() {
        let hub = MetricsHub::new();
        hub.counter("jobs_total").add(3);
        hub.gauge("depth").set(-2);
        let h = hub.histogram_with("stage_seconds", "stage", "Map", 1e-9);
        h.record(2_000_000_000); // 2 s in ns
        let text = hub.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 3"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("# TYPE stage_seconds summary"));
        assert!(text.contains("stage_seconds{stage=\"Map\",quantile=\"0.99\"}"));
        assert!(text.contains("stage_seconds_count{stage=\"Map\"} 1"));
        // Scale applied: the 2e9 ns sample renders as ~2 seconds.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("stage_seconds_sum"))
            .unwrap();
        let val: f64 = sum_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((val - 2.0).abs() < 1e-9, "sum {val} not scaled to seconds");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 10_000 + i);
                    c.inc();
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.max(), 39_999);
    }
}
