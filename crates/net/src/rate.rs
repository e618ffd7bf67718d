//! Real-time NIC emulation: token-bucket egress shaping plus per-transfer
//! pacing.
//!
//! The paper caps every EC2 instance at 100 Mbps with `tc` (§V-B, footnote
//! 5). [`TokenBucket`] reproduces that in *real time*: a transport wrapped
//! with a bucket sleeps long enough that sustained egress never exceeds the
//! configured rate. [`NicProfile`] extends the emulation with the other two
//! parameters of the netsim network model — a fixed per-transfer setup
//! latency and the logarithmic software-multicast penalty `α` — so
//! *measured* shuffle wall-clock under a rate-limited run can be compared
//! against the *modeled* time from `cts-netsim` for the same trace: the
//! fabric-ablation bench's validation oracle. The table benchmarks still
//! use the virtual-time model, which is exact and doesn't burn wall-clock
//! seconds.
//!
//! ```
//! use cts_net::rate::{Nic, NicProfile};
//!
//! // 1 MB/s egress, 0.1 ms per transfer, α = 0.3 — an emulated paper NIC.
//! let profile = NicProfile::rate_limited(8e6)
//!     .with_latency_s(1e-4)
//!     .with_multicast_alpha(0.3);
//! let nic = Nic::new(profile);
//! nic.pace_transfer(); // one transfer's setup cost (~0.1 ms)
//! nic.charge(512);     // 512 payload bytes through the shaped egress
//! assert!(profile.multicast_penalty(4) > 1.0);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cts_core::metrics::{Counter, Histogram};
use parking_lot::Mutex;

struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// A classic token bucket: `rate` tokens (bytes) per second, holding at most
/// `burst` tokens.
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// A bucket replenishing `rate_bytes_per_sec`, with a burst allowance of
    /// `burst_bytes`.
    ///
    /// # Panics
    /// Panics if `rate_bytes_per_sec <= 0` or `burst_bytes <= 0`.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "rate must be positive");
        assert!(burst_bytes > 0.0, "burst must be positive");
        TokenBucket {
            rate: rate_bytes_per_sec,
            burst: burst_bytes,
            state: Mutex::new(BucketState {
                tokens: burst_bytes,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Blocks until `n` bytes worth of tokens are available, then consumes
    /// them. Requests larger than the burst size are admitted by letting the
    /// token count go negative (debt), which delays subsequent senders —
    /// this keeps long-run throughput exact for arbitrarily large messages.
    ///
    /// Returns how long the caller was stalled (`Duration::ZERO` when the
    /// burst absorbed the request) — the raw signal behind the
    /// per-job NIC-wait metrics.
    pub fn acquire(&self, n: u64) -> Duration {
        let needed = n as f64;
        let wait = {
            let mut st = self.state.lock();
            let now = Instant::now();
            let elapsed = now.duration_since(st.last_refill).as_secs_f64();
            st.tokens = (st.tokens + elapsed * self.rate).min(self.burst);
            st.last_refill = now;
            st.tokens -= needed;
            if st.tokens >= 0.0 {
                None
            } else {
                Some(Duration::from_secs_f64(-st.tokens / self.rate))
            }
        };
        match wait {
            Some(d) => {
                std::thread::sleep(d);
                d
            }
            None => Duration::ZERO,
        }
    }
}

/// Per-NIC observability sink: totals of token-bucket stalls, owned by
/// whoever built the NIC (the shared fabric keeps one per job so `cts
/// stats` can attribute egress backpressure to tenants). Plain atomics —
/// recording allocates nothing.
#[derive(Debug, Default)]
pub struct NicMeter {
    /// Nanoseconds spent stalled in the token bucket.
    pub wait_ns: Counter,
    /// Number of sends that stalled (zero-wait sends are not counted).
    pub waits: Counter,
}

impl NicMeter {
    /// A zeroed meter.
    pub fn new() -> NicMeter {
        NicMeter::default()
    }
}

/// Parameters of one emulated NIC, mirroring the netsim network model
/// (`rate`, per-transfer latency, multicast penalty `α`) so measured and
/// modeled shuffle times describe the same machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicProfile {
    /// Sustained egress rate in bytes/second; `None` leaves egress
    /// unshaped (memory/loopback speed).
    pub rate_bytes_per_sec: Option<f64>,
    /// Token-bucket burst allowance in bytes.
    pub burst_bytes: f64,
    /// Fixed setup cost per transfer, seconds (connection/envelope
    /// overhead — the model's `per_transfer_latency_s`).
    pub latency_s: f64,
    /// Software-multicast penalty coefficient: one native multicast to `m`
    /// receivers occupies the egress for `1 + α·log2(m)` times the unicast
    /// duration of the same bytes.
    pub multicast_alpha: f64,
}

impl Default for NicProfile {
    fn default() -> Self {
        NicProfile::unlimited()
    }
}

impl NicProfile {
    /// No shaping at all: memory/loopback speed, zero latency.
    pub fn unlimited() -> Self {
        NicProfile {
            rate_bytes_per_sec: None,
            burst_bytes: 64.0 * 1024.0,
            latency_s: 0.0,
            multicast_alpha: 0.0,
        }
    }

    /// Egress capped at `rate_bytes_per_sec` with a 64 KiB burst.
    pub fn rate_limited(rate_bytes_per_sec: f64) -> Self {
        NicProfile {
            rate_bytes_per_sec: Some(rate_bytes_per_sec),
            ..NicProfile::unlimited()
        }
    }

    /// The paper's emulated NIC: 100 Mbps `tc` cap, 0.1 ms per transfer,
    /// `α = 0.30` — the same constants the calibrated netsim model uses.
    pub fn paper_100mbps() -> Self {
        NicProfile::rate_limited(100e6 / 8.0)
            .with_latency_s(1e-4)
            .with_multicast_alpha(0.30)
    }

    /// Sets the per-transfer setup latency.
    pub fn with_latency_s(mut self, latency_s: f64) -> Self {
        self.latency_s = latency_s;
        self
    }

    /// Sets the software-multicast penalty coefficient.
    pub fn with_multicast_alpha(mut self, alpha: f64) -> Self {
        self.multicast_alpha = alpha;
        self
    }

    /// The multicast slowdown factor for `fanout` receivers
    /// (`1 + α·log2(fanout)`), matching the netsim model's formula.
    pub fn multicast_penalty(&self, fanout: u32) -> f64 {
        if fanout <= 1 {
            1.0
        } else {
            1.0 + self.multicast_alpha * (fanout as f64).log2()
        }
    }
}

/// A live emulated NIC built from a [`NicProfile`]: one per rank, shared by
/// that rank's communicator.
pub struct Nic {
    profile: NicProfile,
    bucket: Option<TokenBucket>,
    meter: Option<Arc<NicMeter>>,
    wait_hist: Option<Arc<Histogram>>,
}

impl Nic {
    /// Instantiates the NIC (allocating the token bucket if shaped).
    pub fn new(profile: NicProfile) -> Self {
        Nic {
            bucket: profile
                .rate_bytes_per_sec
                .map(|rate| TokenBucket::new(rate, profile.burst_bytes)),
            profile,
            meter: None,
            wait_hist: None,
        }
    }

    /// Attaches a per-job wait meter (totals) and an optional shared
    /// histogram (distribution of individual stall durations, ns).
    pub fn with_meter(mut self, meter: Arc<NicMeter>, hist: Option<Arc<Histogram>>) -> Self {
        self.meter = Some(meter);
        self.wait_hist = hist;
        self
    }

    /// The attached meter, if any.
    pub fn meter(&self) -> Option<&Arc<NicMeter>> {
        self.meter.as_ref()
    }

    fn note_wait(&self, waited: Duration) {
        if waited.is_zero() {
            return;
        }
        let ns = waited.as_nanos() as u64;
        if let Some(m) = &self.meter {
            m.wait_ns.add(ns);
            m.waits.inc();
        }
        if let Some(h) = &self.wait_hist {
            h.record(ns);
        }
    }

    /// The profile this NIC was built from.
    pub fn profile(&self) -> &NicProfile {
        &self.profile
    }

    /// Pays one transfer's fixed setup latency (no-op at zero latency).
    /// Short waits are spun for accuracy; longer ones sleep.
    pub fn pace_transfer(&self) {
        let latency = self.profile.latency_s;
        if latency <= 0.0 {
            return;
        }
        precise_wait(Duration::from_secs_f64(latency));
    }

    /// Pushes `bytes` through the shaped egress (blocking as needed).
    pub fn charge(&self, bytes: u64) {
        if let Some(bucket) = &self.bucket {
            self.note_wait(bucket.acquire(bytes));
        }
    }

    /// Pushes `bytes × factor` through the shaped egress — the multicast
    /// penalty path (`factor = multicast_penalty(fanout)`).
    pub fn charge_scaled(&self, bytes: u64, factor: f64) {
        if let Some(bucket) = &self.bucket {
            self.note_wait(bucket.acquire((bytes as f64 * factor).round() as u64));
        }
    }
}

/// Waits `d` with much better accuracy than `thread::sleep` for
/// sub-millisecond durations: spin below 200 µs (sleep granularity would
/// otherwise inflate short NIC latencies several-fold), sleep above.
fn precise_wait(d: Duration) {
    if d >= Duration::from_micros(200) {
        std::thread::sleep(d);
        return;
    }
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_free() {
        let bucket = TokenBucket::new(1000.0, 1000.0);
        let start = Instant::now();
        bucket.acquire(1000);
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 100 KB/s, send 10 KB beyond the 1 KB burst → ~100 ms.
        let bucket = TokenBucket::new(100_000.0, 1_000.0);
        let start = Instant::now();
        for _ in 0..11 {
            bucket.acquire(1_000);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "rate limit not enforced: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(500),
            "rate limit too aggressive: {elapsed:?}"
        );
    }

    #[test]
    fn oversized_request_goes_into_debt() {
        let bucket = TokenBucket::new(1_000_000.0, 1_000.0);
        let start = Instant::now();
        bucket.acquire(100_000); // 100 KB at 1 MB/s ≈ 100 ms of debt
        bucket.acquire(1);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(80), "{elapsed:?}");
    }

    #[test]
    fn concurrent_acquires_share_the_rate() {
        use std::sync::Arc;
        let bucket = Arc::new(TokenBucket::new(200_000.0, 1_000.0));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = Arc::clone(&bucket);
                s.spawn(move || {
                    for _ in 0..5 {
                        b.acquire(1_000);
                    }
                });
            }
        });
        // 20 KB total at 200 KB/s ≈ 100 ms (minus 1 KB burst).
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(70), "{elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn unlimited_nic_is_free() {
        let nic = Nic::new(NicProfile::unlimited());
        let start = Instant::now();
        nic.pace_transfer();
        nic.charge(100_000_000);
        nic.charge_scaled(100_000_000, 3.0);
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn nic_latency_paces_transfers() {
        let nic = Nic::new(NicProfile::unlimited().with_latency_s(2e-3));
        let start = Instant::now();
        for _ in 0..5 {
            nic.pace_transfer();
        }
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn nic_charge_scaled_applies_penalty() {
        // 1 MB/s, 1 KB burst: 100 KB at factor 2 ≈ 200 ms.
        let nic = Nic::new(NicProfile {
            rate_bytes_per_sec: Some(1_000_000.0),
            burst_bytes: 1_000.0,
            latency_s: 0.0,
            multicast_alpha: 1.0,
        });
        let start = Instant::now();
        nic.charge_scaled(100_000, 2.0);
        nic.charge(1);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
    }

    #[test]
    fn multicast_penalty_formula_matches_model() {
        let p = NicProfile::unlimited().with_multicast_alpha(0.5);
        assert_eq!(p.multicast_penalty(1), 1.0);
        assert!((p.multicast_penalty(4) - 2.0).abs() < 1e-12);
        assert_eq!(NicProfile::unlimited().multicast_penalty(8), 1.0);
    }

    #[test]
    fn meter_counts_stalls_and_reports_wait_time() {
        // 1 MB/s, 1 KB burst: the second 100 KB charge must stall ~100 ms.
        let meter = Arc::new(NicMeter::new());
        let hist = Arc::new(Histogram::new());
        let nic = Nic::new(NicProfile::rate_limited(1_000_000.0))
            .with_meter(Arc::clone(&meter), Some(Arc::clone(&hist)));
        nic.charge(100_000);
        nic.charge(100_000);
        assert!(meter.waits.get() >= 1, "stall not counted");
        assert!(
            meter.wait_ns.get() >= 50_000_000,
            "wait_ns {} too small",
            meter.wait_ns.get()
        );
        assert_eq!(hist.count(), meter.waits.get());
        // An unshaped NIC never stalls, metered or not.
        let free_meter = Arc::new(NicMeter::new());
        let free = Nic::new(NicProfile::unlimited()).with_meter(Arc::clone(&free_meter), None);
        free.charge(10_000_000);
        assert_eq!(free_meter.waits.get(), 0);
    }

    #[test]
    fn paper_profile_matches_calibration() {
        let p = NicProfile::paper_100mbps();
        assert_eq!(p.rate_bytes_per_sec, Some(12.5e6));
        assert!((p.latency_s - 1e-4).abs() < 1e-12);
        assert!((p.multicast_alpha - 0.30).abs() < 1e-12);
    }
}
