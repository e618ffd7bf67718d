//! Real-time NIC emulation: a token-bucket egress schedule.
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
//! The NIC is a schedule, like the kernel queue `tc` shapes — not a sleep
//! in the sender, not a thread. [`Nic::post`] books a transfer behind
//! everything booked before it and returns the booked end, which the
//! communicator stamps on the message it hands the transport at once; the
//! receiving [`Mailbox`](crate::mailbox::Mailbox) holds the message until
//! then. [`Nic::drain`] waits until everything posted has left the NIC; a
//! blocking send is a post and a drain. What a NIC booked is its
//! [`NicLedger`], the one account of its time: a job's egress floor is
//! read there, not modeled.
//!
//! ```
//! use cts_net::rate::{Nic, NicProfile};
//!
//! // 8 MB/s egress, 0.1 ms per transfer, α = 0.3 — an emulated paper NIC.
//! let profile = NicProfile::rate_limited(8e6)
//!     .with_latency_s(1e-4)
//!     .with_multicast_alpha(0.3);
//! let nic = Nic::new(profile);
//! // One 512-byte transfer: booked at once, the NIC busy ~0.1 ms.
//! let first = nic.post(512).unwrap().expect("a shaped NIC books");
//! // The next one starts where it ends.
//! assert!(nic.post(512).unwrap().unwrap() > first);
//! nic.drain().unwrap();
//! assert!(cts_net::fabric::multicast_penalty(profile.multicast_alpha, 4) > 1.0);
//! ```

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cts_core::metrics::Histogram;
use cts_core::sync::{lock, unpoison};

use crate::error::{NetError, Result};

/// What one rank's [`Nic`] booked: every transfer [`Nic::post`] charged to
/// it, kept under the lock the post takes. A NIC books each transfer behind
/// the one before, so no two bookings overlap and `busy` never exceeds
/// `last_end − first_start`: the busiest rank's `busy` is the egress floor
/// of a job, the least time its Shuffle can take ([`NicLedger::egress_floor`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicLedger {
    /// Transfers booked.
    pub transfers: u64,
    /// Charged bytes booked ([`ShuffleFabric::egress`](crate::fabric::ShuffleFabric::egress)).
    pub bytes: u64,
    /// The sum over the bookings of each one's time on the NIC: from its
    /// start (its post, or the end of the one before) to its booked end.
    pub busy: Duration,
    /// Transfers that ran the token bucket into debt (transfers the burst
    /// absorbed are not counted).
    pub stalls: u64,
    /// Time the NIC spent repaying that debt — how long the transfers
    /// would have stalled a sender that waited for each.
    pub stalled: Duration,
    /// When the first booking started; `None` until one did.
    pub first_start: Option<Instant>,
    /// When the last booking ends; `None` until one was made.
    pub last_end: Option<Instant>,
}

impl NicLedger {
    /// The egress floor of a job behind these NICs, one ledger per rank:
    /// the busiest rank's booked time. A rank's Shuffle runs from its first
    /// post to its NIC drained, so it covers every booking and no Shuffle
    /// wall is shorter.
    pub fn egress_floor(ledgers: &[NicLedger]) -> Duration {
        ledgers.iter().map(|l| l.busy).max().unwrap_or_default()
    }

    /// Books one transfer of `bytes` from `start` to `end`.
    fn book(&mut self, start: Instant, end: Instant, bytes: u64) {
        self.transfers += 1;
        self.bytes += bytes;
        self.busy += end - start;
        self.first_start.get_or_insert(start);
        self.last_end = Some(end);
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

/// The egress side of a [`Nic`], under its lock.
struct Egress {
    /// The token bucket (bytes; negative: debt) as of `refilled`.
    tokens: f64,
    refilled: Instant,
    /// When the transfers booked so far will have left the NIC.
    busy_until: Instant,
    /// What was booked so far.
    ledger: NicLedger,
    /// The abort: every later post and drain returns it.
    failed: Option<NetError>,
}

/// A live emulated NIC built from a [`NicProfile`]: one per rank, shared by
/// that rank's communicator.
pub struct Nic {
    profile: NicProfile,
    latency: Duration,
    /// Where each token-bucket stall's duration (ns) is recorded as well.
    wait_hist: Option<Arc<Histogram>>,
    egress: Mutex<Egress>,
    /// Signalled by the abort — what a [`drain`](Nic::drain) waiting out
    /// `busy_until` blocks on.
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
                ledger: NicLedger::default(),
                failed: None,
            }),
            changed: Condvar::new(),
            profile,
            wait_hist: None,
        }
    }

    /// Records each token-bucket stall's duration (ns) in `hist` as well
    /// as in the NIC's own ledger.
    pub(crate) fn with_wait_hist(mut self, hist: Arc<Histogram>) -> Self {
        self.wait_hist = Some(hist);
        self
    }

    /// The profile this NIC was built from.
    pub fn profile(&self) -> &NicProfile {
        &self.profile
    }

    /// What this NIC has booked so far.
    pub fn ledger(&self) -> NicLedger {
        lock(&self.egress).ledger
    }

    /// Books one transfer that starts at `start`: the fixed setup latency,
    /// then `bytes` out of a classic token bucket — `rate` tokens a second,
    /// at most `burst` of them. The bucket refills while the latency
    /// elapses, so a transfer the bucket covers leaves after the latency
    /// alone, and one sent hard behind another is booked for about
    /// `max(latency, bytes ÷ rate)`, not their sum. A request the bucket
    /// cannot cover is admitted by letting the count go negative, and the NIC
    /// is busy until the debt is repaid: long-run throughput is exact for
    /// any message size. The booking goes into the NIC's [`NicLedger`].
    fn book(&self, egress: &mut Egress, start: Instant, bytes: u64) {
        let at = start + self.latency;
        egress.busy_until = at;
        if let Some(rate) = self.profile.rate_bytes_per_sec {
            let refill = at.saturating_duration_since(egress.refilled).as_secs_f64() * rate;
            egress.tokens = (egress.tokens + refill).min(self.profile.burst_bytes) - bytes as f64;
            egress.refilled = at;
            if egress.tokens < 0.0 {
                let stall = Duration::from_secs_f64(-egress.tokens / rate);
                egress.busy_until += stall;
                egress.ledger.stalls += 1;
                egress.ledger.stalled += stall;
                if let Some(h) = &self.wait_hist {
                    h.record(stall.as_nanos() as u64);
                }
            }
        }
        let end = egress.busy_until;
        egress.ledger.book(start, end, bytes);
    }

    /// Books one transfer of `bytes` charged bytes, starting when the last
    /// booked one ends (or now), and returns when it will have left the NIC:
    /// when its receivers may see it. `None` on a NIC with no rate and no
    /// latency, where a transfer leaves as it is posted. Nothing waits here;
    /// after an [`abort`](Nic::abort) every post returns its error.
    pub fn post(&self, bytes: u64) -> Result<Option<Instant>> {
        let mut egress = lock(&self.egress);
        if let Some(e) = &egress.failed {
            return Err(e.clone());
        }
        if self.profile.rate_bytes_per_sec.is_none() && self.latency.is_zero() {
            return Ok(None);
        }
        let start = Instant::now().max(egress.busy_until);
        self.book(&mut egress, start, bytes);
        Ok(Some(egress.busy_until))
    }

    /// Blocks until every posted transfer has left the NIC — no earlier
    /// than the last booked byte — or fails with the abort's error.
    pub fn drain(&self) -> Result<()> {
        let mut egress = lock(&self.egress);
        loop {
            if let Some(e) = &egress.failed {
                return Err(e.clone());
            }
            let left = egress.busy_until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            egress = unpoison(self.changed.wait_timeout(egress, left)).0;
        }
    }

    /// Fails the NIC with `why`: every blocked or later
    /// [`drain`](Nic::drain) and post returns `why`.
    pub fn abort(&self, why: NetError) {
        lock(&self.egress).failed.get_or_insert(why);
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shaped(rate: f64, burst: f64) -> Nic {
        let mut profile = NicProfile::rate_limited(rate);
        profile.burst_bytes = burst;
        Nic::new(profile)
    }

    /// Posts `n` transfers of `bytes`, draining after each: a blocking send.
    fn send_each(nic: &Nic, n: usize, bytes: u64) {
        for _ in 0..n {
            nic.post(bytes).unwrap();
            nic.drain().unwrap();
        }
    }

    /// The gaps between consecutive booked ends.
    fn gaps(ends: &[Instant]) -> Vec<Duration> {
        ends.windows(2).map(|w| w[1] - w[0]).collect()
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
    fn unlimited_nic_is_free_and_books_nothing() {
        let nic = Nic::new(NicProfile::unlimited());
        let start = Instant::now();
        for _ in 0..100 {
            // Ripe on arrival: no stamp, whatever was posted before.
            assert_eq!(nic.post(100_000_000), Ok(None));
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

    /// Posts `bytes` and returns its booked end, bracketed by the moments
    /// just before and just after the post.
    fn post_timed(nic: &Nic, bytes: u64) -> (Instant, Instant, Instant) {
        let posted = Instant::now();
        let end = nic.post(bytes).unwrap().expect("a shaped NIC books");
        (posted, end, Instant::now())
    }

    #[test]
    fn a_post_on_a_busy_nic_returns_at_once_with_its_booked_end_in_fifo_order() {
        // 1 MB/s, 1 KB burst: each 20 KB transfer keeps the NIC busy 20 ms.
        let nic = shaped(1_000_000.0, 1_000.0);
        let posts: Vec<_> = (0..5).map(|_| post_timed(&nic, 20_000)).collect();
        for (i, &(posted, _, returned)) in posts.iter().enumerate() {
            let took = returned - posted;
            assert!(took < Duration::from_millis(1), "post {i}: {took:?}");
        }
        // The first drains its 19 KB of debt from the moment it was posted;
        // each later one starts where the one before it ends, to the
        // nanosecond.
        let (posted, first, returned) = posts[0];
        let debt = Duration::from_millis(19);
        assert!(posted + debt <= first && first <= returned + debt);
        let ends: Vec<Instant> = posts.iter().map(|&(_, end, _)| end).collect();
        assert_eq!(gaps(&ends), vec![Duration::from_millis(20); 4]);
        nic.drain().unwrap();
        // No earlier than the last booked byte: 100 KB less the burst.
        let elapsed = posted.elapsed();
        assert!(Instant::now() >= ends[4]);
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(300), "{elapsed:?}");
    }

    #[test]
    fn the_paper_nic_books_32_posts_of_64_kib_to_the_nanosecond() {
        // The burst absorbs the first: it is booked 0.1 ms after its post.
        // Each later one starts where the one before it ends and leaves
        // 65 536 B ÷ 12.5 MB/s = 5.24288 ms after it — its bytes alone: the
        // bucket refills 1 250 B during its 0.1 ms latency, and the stall
        // repays the other 64 286 B in 5.14288 ms. 0.1 ms + 31 × 5.24288 ms
        // in all. (32 blocking sends book the same, as long as no drain
        // wakes a whole transfer late.)
        let nic = Nic::new(NicProfile::paper_100mbps());
        let (posted, first, returned) = post_timed(&nic, 64 * 1024);
        let latency = Duration::from_micros(100);
        assert!(posted + latency <= first && first <= returned + latency);
        let rest = (1..32).map(|_| nic.post(64 * 1024).unwrap().expect("booked"));
        let ends: Vec<Instant> = std::iter::once(first).chain(rest).collect();
        assert_eq!(gaps(&ends), vec![Duration::from_nanos(5_242_880); 31]);
        assert_eq!(ends[31] - ends[0], Duration::from_nanos(31 * 5_242_880));
        // The ledger books the same, to the nanosecond.
        let ledger = nic.ledger();
        assert_eq!((ledger.transfers, ledger.bytes), (32, 2 * 1024 * 1024));
        assert_eq!(ledger.busy, Duration::from_nanos(100_000 + 31 * 5_242_880));
        assert_eq!(ledger.stalls, 31);
        assert_eq!(ledger.stalled, Duration::from_nanos(31 * 5_142_880));
        assert_eq!(ledger.first_start, Some(first - latency));
        assert_eq!(ledger.last_end, Some(ends[31]));
        assert_eq!(
            NicLedger::egress_floor(&[NicLedger::default(), ledger]),
            ledger.busy
        );
        nic.drain().unwrap();
        assert!(Instant::now() >= ends[31]);
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
    fn an_abort_fails_every_later_post_and_drain() {
        let nic = shaped(1_000_000.0, 1_000.0);
        assert!(nic.post(10_000).unwrap().is_some());
        let cut = NetError::Io {
            what: "wire cut".into(),
        };
        nic.abort(cut.clone());
        // Sticky: the NIC stays failed, and the first abort is the one
        // it reports.
        nic.abort(NetError::Disconnected { rank: 1 });
        assert_eq!(nic.post(1), Err(cut.clone()));
        assert_eq!(nic.drain(), Err(cut.clone()));
        // A free NIC is failed the same way.
        let free = Nic::new(NicProfile::unlimited());
        free.abort(cut.clone());
        assert_eq!(free.post(1), Err(cut));
    }

    #[test]
    fn abort_releases_a_blocked_drain() {
        // 1 KB/s: the second transfer is booked to end in 20 s.
        let nic = shaped(1_000.0, 1.0);
        for _ in 0..2 {
            nic.post(10_000).unwrap();
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
    }

    #[test]
    fn the_ledger_counts_stalls_and_the_histogram_sees_each() {
        // 1 MB/s, 64 KiB burst: the second 100 KB transfer runs ~100 ms
        // into debt (the first one's too: 100 KB is over the burst).
        let hist = Arc::new(Histogram::new());
        let nic = Nic::new(NicProfile::rate_limited(1_000_000.0)).with_wait_hist(Arc::clone(&hist));
        send_each(&nic, 2, 100_000);
        let ledger = nic.ledger();
        assert_eq!((ledger.transfers, ledger.bytes), (2, 200_000));
        assert_eq!(ledger.stalls, 2);
        assert!(ledger.stalled >= Duration::from_millis(100), "{ledger:?}");
        // Without latency a booking is its stall.
        assert_eq!(ledger.busy, ledger.stalled);
        let (first, last) = (ledger.first_start.unwrap(), ledger.last_end.unwrap());
        assert!(last - first >= ledger.busy);
        assert_eq!(hist.count(), ledger.stalls);
        // An unshaped NIC books nothing, however much it is handed.
        let free = Nic::new(NicProfile::unlimited());
        assert_eq!(free.post(10_000_000), Ok(None));
        assert_eq!(free.ledger(), NicLedger::default());
        assert_eq!(NicLedger::egress_floor(&[]), Duration::ZERO);
    }

    #[test]
    fn paper_profile_matches_calibration() {
        let p = NicProfile::paper_100mbps();
        assert_eq!(p.rate_bytes_per_sec, Some(12.5e6));
        assert!((p.latency_s - 1e-4).abs() < 1e-12);
        assert!((p.multicast_alpha - 0.30).abs() < 1e-12);
    }
}
