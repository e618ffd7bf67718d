//! Real-time NIC emulation: a token-bucket egress that drains by itself.
//!
//! The paper caps every EC2 instance at 100 Mbps with `tc` (§V-B, footnote
//! 5). A [`Nic`] reproduces that in *real time* for one rank: every
//! transfer handed to [`Nic::post`] is charged to a token bucket, so
//! sustained egress never exceeds the configured rate. [`NicProfile`]
//! carries the other two parameters of the netsim network model — a fixed
//! per-transfer setup latency and the logarithmic software-multicast
//! penalty `α` — so *measured* shuffle wall-clock under a rate-limited run
//! can be compared against the *modeled* time from `cts-netsim` for the
//! same trace: the fabric-ablation bench's validation oracle. The table
//! benchmarks still use the virtual-time model, which is exact and doesn't
//! burn wall-clock seconds.
//!
//! The NIC is a FIFO queue, not a sleep in the sender. A payload is handed
//! to the transport at the *start* of its drain: inline, on the caller's
//! thread, by a post on a free NIC, which books how long the NIC stays
//! busy with it; by a pacer thread — started with the first transfer
//! queued behind a busy NIC, gone when the queue runs empty — otherwise.
//! [`Nic::drain`] is the one wait: until everything posted has left the
//! NIC. A caller that drains after every post (a blocking send) never
//! starts a pacer, and an unshaped NIC is never busy.
//!
//! ```
//! use std::sync::Arc;
//! use cts_net::rate::{Nic, NicProfile};
//!
//! // 8 MB/s egress, 0.1 ms per transfer, α = 0.3 — an emulated paper NIC.
//! let profile = NicProfile::rate_limited(8e6)
//!     .with_latency_s(1e-4)
//!     .with_multicast_alpha(0.3);
//! let nic = Arc::new(Nic::new(profile));
//! // One 512-byte transfer: handed over at once, the NIC busy ~0.1 ms.
//! nic.post(512, || Ok(())).unwrap();
//! nic.drain().unwrap();
//! assert!(cts_net::fabric::multicast_penalty(profile.multicast_alpha, 4) > 1.0);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cts_core::metrics::{Counter, Histogram};
use parking_lot::{Condvar, Mutex};

use crate::error::{NetError, Result};

/// Per-NIC observability sink: totals of token-bucket stalls, owned by
/// whoever built the NIC (the shared fabric keeps one per job so `cts
/// stats` can attribute egress backpressure to tenants). Plain atomics —
/// recording allocates nothing.
#[derive(Debug, Default)]
pub struct NicMeter {
    /// Nanoseconds the egress spent repaying token-bucket debt — how long
    /// the transfers would have stalled a sender that waited for each.
    pub wait_ns: Counter,
    /// Number of transfers that ran the bucket into debt (transfers the
    /// burst absorbed are not counted).
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
}

/// What the pacer runs at the start of a queued transfer's drain: the
/// hand-over to the transport.
type Deliver = Box<dyn FnOnce() -> Result<()> + Send>;

/// The egress side of a [`Nic`], under its lock.
struct Egress {
    /// The token bucket (bytes; negative: debt) as of `refilled`.
    tokens: f64,
    refilled: Instant,
    /// When the transfers booked so far will have left the NIC.
    busy_until: Instant,
    /// Transfers posted while the NIC was busy, in post order, each with
    /// the bytes it is charged.
    queue: VecDeque<(u64, Deliver)>,
    /// A pacer thread is alive (and will look at `queue` again before it
    /// exits).
    pacing: bool,
    /// The first failed queued transfer, or the abort: every later post
    /// and drain returns it.
    failed: Option<NetError>,
}

/// A live emulated NIC built from a [`NicProfile`]: one per rank, shared by
/// that rank's communicator.
pub struct Nic {
    profile: NicProfile,
    latency: Duration,
    meter: Option<Arc<NicMeter>>,
    wait_hist: Option<Arc<Histogram>>,
    egress: Mutex<Egress>,
    /// Signalled when the pacer exits and when the NIC fails — what
    /// [`drain`](Nic::drain) and a pacer waiting out `busy_until` block on.
    changed: Condvar,
}

impl Nic {
    /// Instantiates the NIC, its token bucket full.
    pub fn new(profile: NicProfile) -> Self {
        let rate = profile.rate_bytes_per_sec.unwrap_or(f64::INFINITY);
        assert!(rate > 0.0, "rate must be positive");
        assert!(profile.burst_bytes > 0.0, "burst must be positive");
        let now = Instant::now();
        Nic {
            latency: Duration::from_secs_f64(profile.latency_s.max(0.0)),
            egress: Mutex::new(Egress {
                tokens: profile.burst_bytes,
                refilled: now,
                busy_until: now,
                queue: VecDeque::new(),
                pacing: false,
                failed: None,
            }),
            changed: Condvar::new(),
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

    /// The profile this NIC was built from.
    pub fn profile(&self) -> &NicProfile {
        &self.profile
    }

    /// Books one transfer that starts at `start`: the fixed setup latency,
    /// then `bytes` out of a classic token bucket — `rate` tokens a second,
    /// at most `burst` of them. A request the bucket cannot cover is admitted
    /// by letting the count go negative, and the NIC is busy until the debt
    /// is repaid: long-run throughput is exact for any message size.
    fn book(&self, egress: &mut Egress, start: Instant, bytes: u64) {
        let at = start + self.latency;
        egress.busy_until = at;
        let Some(rate) = self.profile.rate_bytes_per_sec else {
            return;
        };
        let refill = at.saturating_duration_since(egress.refilled).as_secs_f64() * rate;
        egress.tokens = (egress.tokens + refill).min(self.profile.burst_bytes) - bytes as f64;
        egress.refilled = at;
        if egress.tokens < 0.0 {
            let stall = Duration::from_secs_f64(-egress.tokens / rate);
            egress.busy_until += stall;
            let ns = stall.as_nanos() as u64;
            if let Some(m) = &self.meter {
                m.wait_ns.add(ns);
                m.waits.inc();
            }
            if let Some(h) = &self.wait_hist {
                h.record(ns);
            }
        }
    }

    /// Posts one transfer of `bytes` charged bytes without waiting for it:
    /// `deliver` hands the payload to the transport at the start of the
    /// transfer's drain — now, on this thread, when the NIC is free (always,
    /// when unshaped), else on the pacer once every earlier transfer has
    /// drained. An inline hand-over's error is returned; a queued one's
    /// comes out of the next post or [`drain`](Nic::drain).
    pub fn post<F>(self: &Arc<Self>, bytes: u64, deliver: F) -> Result<()>
    where
        F: FnOnce() -> Result<()> + Send + 'static,
    {
        let mut egress = self.egress.lock();
        if let Some(e) = &egress.failed {
            return Err(e.clone());
        }
        let now = Instant::now();
        if !egress.pacing && now >= egress.busy_until {
            self.book(&mut egress, now, bytes);
            drop(egress);
            return deliver();
        }
        egress.queue.push_back((bytes, Box::new(deliver)));
        if !egress.pacing {
            egress.pacing = true;
            let nic = Arc::clone(self);
            std::thread::Builder::new()
                .name("cts-nic-pacer".into())
                .spawn(move || nic.pace())
                .expect("spawn NIC pacer");
        }
        Ok(())
    }

    /// The pacer: hands each queued transfer over when the one before it
    /// has drained, and exits when the queue is empty. A backlog drains back
    /// to back in booked time — a transfer starts when its predecessor ends,
    /// not when this thread got to run — so waking late never adds up.
    fn pace(&self) {
        let mut egress = self.egress.lock();
        loop {
            let until = egress.busy_until;
            if Instant::now() < until && !egress.queue.is_empty() {
                // An abort empties the queue and wakes this early.
                self.changed.wait_until(&mut egress, until);
                continue;
            }
            let Some((bytes, deliver)) = egress.queue.pop_front() else {
                break;
            };
            self.book(&mut egress, until, bytes);
            drop(egress);
            // Nobody joins this thread: a hand-over that panics must fail
            // the NIC like one that errs, not strand whoever drains it.
            let sent = catch_unwind(AssertUnwindSafe(deliver)).unwrap_or_else(|_| {
                Err(NetError::Io {
                    what: "a queued transfer's hand-over panicked".into(),
                })
            });
            egress = self.egress.lock();
            if let Err(e) = sent {
                egress.fail(e);
            }
        }
        egress.pacing = false;
        drop(egress);
        self.changed.notify_all();
    }

    /// Blocks until every posted transfer has left the NIC — no earlier
    /// than the last booked byte — or fails with the first queued
    /// transfer's error (or the abort's).
    pub fn drain(&self) -> Result<()> {
        let mut egress = self.egress.lock();
        loop {
            if let Some(e) = &egress.failed {
                return Err(e.clone());
            }
            let until = egress.busy_until;
            if egress.pacing {
                self.changed.wait(&mut egress);
            } else if Instant::now() < until {
                self.changed.wait_until(&mut egress, until);
            } else {
                return Ok(());
            }
        }
    }

    /// Fails the NIC with `why`: queued transfers are dropped unsent and
    /// every blocked or later [`drain`](Nic::drain) and post returns `why`.
    pub fn abort(&self, why: NetError) {
        self.egress.lock().fail(why);
        self.changed.notify_all();
    }
}

impl Egress {
    fn fail(&mut self, why: NetError) {
        self.failed.get_or_insert(why);
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn shaped(rate: f64, burst: f64) -> Arc<Nic> {
        let mut profile = NicProfile::rate_limited(rate);
        profile.burst_bytes = burst;
        Arc::new(Nic::new(profile))
    }

    /// Posts `n` transfers of `bytes`, draining after each: a blocking send.
    fn send_each(nic: &Arc<Nic>, n: usize, bytes: u64) {
        for _ in 0..n {
            nic.post(bytes, || Ok(())).unwrap();
            nic.drain().unwrap();
        }
    }

    #[test]
    fn burst_is_free() {
        let nic = shaped(1000.0, 1000.0);
        let start = Instant::now();
        send_each(&nic, 1, 1000);
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 100 KB/s, send 10 KB beyond the 1 KB burst → ~100 ms.
        let nic = shaped(100_000.0, 1_000.0);
        let start = Instant::now();
        send_each(&nic, 11, 1_000);
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
        let nic = shaped(1_000_000.0, 1_000.0);
        let start = Instant::now();
        send_each(&nic, 1, 100_000); // 100 KB at 1 MB/s ≈ 100 ms of debt
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(80), "{elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        Nic::new(NicProfile::rate_limited(0.0));
    }

    #[test]
    fn unlimited_nic_is_free_and_starts_no_pacer() {
        let nic = Arc::new(Nic::new(NicProfile::unlimited()));
        let start = Instant::now();
        let me = std::thread::current().id();
        for _ in 0..100 {
            // Inline, on the poster's thread, whatever was posted before.
            nic.post(100_000_000, move || {
                assert_eq!(std::thread::current().id(), me);
                Ok(())
            })
            .unwrap();
        }
        nic.drain().unwrap();
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn nic_latency_paces_transfers() {
        let nic = Arc::new(Nic::new(NicProfile::unlimited().with_latency_s(2e-3)));
        let start = Instant::now();
        send_each(&nic, 5, 1);
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn a_post_on_a_busy_nic_returns_at_once_and_is_delivered_in_fifo_order() {
        // 1 MB/s, 1 KB burst: each 20 KB transfer keeps the NIC busy 20 ms.
        let nic = shaped(1_000_000.0, 1_000.0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        for i in 0..5usize {
            let (order, posted) = (Arc::clone(&order), Instant::now());
            nic.post(20_000, move || {
                order.lock().push((i, start.elapsed()));
                Ok(())
            })
            .unwrap();
            assert!(
                posted.elapsed() < Duration::from_millis(1),
                "post {i}: {:?}",
                posted.elapsed()
            );
        }
        nic.drain().unwrap();
        // No earlier than the last booked byte: 100 KB less the burst.
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(300), "{elapsed:?}");
        let order = order.lock();
        assert_eq!(
            order.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        // Each payload was handed over at the start of its drain: transfer
        // i when the i before it had left, ~19 ms + (i − 1) × 20 ms in.
        for &(i, at) in order.iter().skip(1) {
            let due = Duration::from_millis(19 + 20 * (i as u64 - 1));
            assert!(at >= due - Duration::from_millis(2), "{i}: {at:?}");
            assert!(at < due + Duration::from_millis(40), "{i}: {at:?}");
        }
    }

    #[test]
    fn blocking_sends_take_what_the_bucket_says() {
        // The benchmark's pacing canary: 32 sends of 64 KiB through the
        // paper's NIC. The burst absorbs the first; each later one costs
        // its bytes (the 0.1 ms latency is time the bucket refills in) —
        // 0.1 ms + 31 × 5.24 ms = 162.6 ms, what sleeping in the sender
        // took before the NIC had a queue.
        let nic = Arc::new(Nic::new(NicProfile::paper_100mbps()));
        let start = Instant::now();
        send_each(&nic, 32, 64 * 1024);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            (0.1626 * 0.95..0.1626 * 1.05).contains(&elapsed),
            "{elapsed}"
        );
    }

    #[test]
    fn a_queued_transfers_error_comes_out_of_drain_and_drops_the_rest() {
        let nic = shaped(1_000_000.0, 1_000.0);
        let delivered = Arc::new(AtomicUsize::new(0));
        let io = || NetError::Io {
            what: "wire cut".into(),
        };
        for i in 0..4 {
            let delivered = Arc::clone(&delivered);
            nic.post(10_000, move || {
                delivered.fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    Err(io())
                } else {
                    Ok(())
                }
            })
            .unwrap();
        }
        assert_eq!(nic.drain(), Err(io()));
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            2,
            "nothing after the failure"
        );
        // Sticky: the NIC stays failed.
        assert_eq!(nic.post(1, || Ok(())), Err(io()));
        // So does a hand-over that panics on the pacer.
        let nic = shaped(1_000_000.0, 1_000.0);
        nic.post(10_000, || Ok(())).unwrap();
        nic.post(10_000, || panic!("transport bug")).unwrap();
        assert!(matches!(nic.drain(), Err(NetError::Io { .. })));
        // An inline hand-over's error is the post's own and fails nothing.
        let free = Arc::new(Nic::new(NicProfile::unlimited()));
        assert_eq!(free.post(1, move || Err(io())), Err(io()));
        free.drain().unwrap();
    }

    #[test]
    fn abort_releases_a_blocked_drain() {
        // 1 KB/s: the second transfer is due in 10 s, the drain in 20.
        let nic = shaped(1_000.0, 1.0);
        let delivered = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let delivered = Arc::clone(&delivered);
            nic.post(10_000, move || {
                delivered.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
        }
        let start = Instant::now();
        let down = NetError::Disconnected { rank: 3 };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| nic.drain());
            std::thread::sleep(Duration::from_millis(20));
            nic.abort(down.clone());
            assert_eq!(waiter.join().unwrap(), Err(down.clone()));
        });
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            1,
            "the queued one is dropped"
        );
    }

    #[test]
    fn meter_counts_stalls_and_reports_wait_time() {
        // 1 MB/s, 64 KiB burst: the second 100 KB transfer runs ~100 ms
        // into debt.
        let meter = Arc::new(NicMeter::new());
        let hist = Arc::new(Histogram::new());
        let nic = Arc::new(
            Nic::new(NicProfile::rate_limited(1_000_000.0))
                .with_meter(Arc::clone(&meter), Some(Arc::clone(&hist))),
        );
        send_each(&nic, 2, 100_000);
        assert!(meter.waits.get() >= 1, "stall not counted");
        assert!(
            meter.wait_ns.get() >= 50_000_000,
            "wait_ns {} too small",
            meter.wait_ns.get()
        );
        assert_eq!(hist.count(), meter.waits.get());
        // An unshaped NIC never stalls, metered or not.
        let free_meter = Arc::new(NicMeter::new());
        let free =
            Arc::new(Nic::new(NicProfile::unlimited()).with_meter(Arc::clone(&free_meter), None));
        send_each(&free, 1, 10_000_000);
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
