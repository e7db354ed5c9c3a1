//! The serve path's two admission limits: the token bucket behind the
//! per-connection rate cap, and the per-window `ByteBudget` behind
//! `--memory-budget-bytes`.
//!
//! The serve path charges every data frame against a per-connection
//! bucket sized in **reports per second** (`--max-rps-per-conn`). The
//! bucket refills continuously at `rate` tokens/second up to `burst`
//! tokens; a frame of `cost` reports is admitted only when that many
//! tokens are available, and a refused frame is *shed* with a `!busy`
//! retry hint instead of being absorbed — the client re-sends the same
//! frame after the hinted delay, so rate limiting never loses or reorders
//! a report.
//!
//! The core is deliberately clock-free: [`TokenBucket::admit_at`] takes
//! the current instant as an argument, so the invariant the overload
//! suite pins — over any window `w`, admitted cost ≤ `rate × w + burst` —
//! is testable deterministically, with simulated time.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// A continuous-refill token bucket.
///
/// Starts full (a new connection may burst immediately). Costs larger
/// than the whole burst are clamped to it, so one giant frame drains the
/// bucket completely instead of being refused forever.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate in tokens per second (> 0).
    rate: f64,
    /// Bucket capacity: the largest instantaneous burst.
    burst: f64,
    /// Tokens available at `refilled_at`.
    tokens: f64,
    /// The instant `tokens` was last brought up to date.
    refilled_at: Instant,
}

impl TokenBucket {
    /// Creates a full bucket refilling at `rate` tokens/second with
    /// capacity `burst` (both clamped to ≥ a small positive floor so a
    /// misconfigured zero never divides or deadlocks).
    #[must_use]
    pub fn new(rate: f64, burst: f64, now: Instant) -> TokenBucket {
        let rate = if rate > 0.0 { rate } else { 1.0 };
        let burst = if burst > 0.0 { burst } else { 1.0 };
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            refilled_at: now,
        }
    }

    /// Charges `cost` tokens at instant `now`. `Ok(())` admits; `Err(d)`
    /// refuses and reports how long the caller should wait before the
    /// bucket could admit this cost — the `!busy` retry hint.
    ///
    /// `now` instants must be non-decreasing per bucket (elapsed time is
    /// measured against the previous call); a stale instant is treated as
    /// zero elapsed time, never a negative refill.
    pub fn admit_at(&mut self, cost: u64, now: Instant) -> Result<(), Duration> {
        let elapsed = now.saturating_duration_since(self.refilled_at);
        self.refilled_at = now;
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
        // A cost above the whole capacity could never be admitted; clamp
        // it so the frame drains a full bucket instead of wedging retries.
        let cost = (cost as f64).min(self.burst);
        if self.tokens >= cost {
            self.tokens -= cost;
            return Ok(());
        }
        let deficit = cost - self.tokens;
        Err(Duration::from_secs_f64(deficit / self.rate))
    }

    /// The refill rate in tokens per second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The bucket capacity in tokens.
    #[must_use]
    pub fn burst(&self) -> f64 {
        self.burst
    }
}

/// One window's pipeline byte budget: a charge counter shared by every
/// reactor thread. A frame body is charged before its buffer exists and
/// released once its commit has applied (or on an early-out path), so the
/// budget bounds in-flight decode memory.
///
/// A charge is admitted when it fits under the limit, or when nothing is
/// charged at all — one frame larger than the whole budget still makes
/// progress instead of parking forever. The high-water mark of charged
/// bytes is recorded for [`crate::server::ServeSummary::peak_queue_bytes`].
///
/// Waiting is the caller's: a refused connection calls
/// [`ByteBudget::park`] and then retries [`ByteBudget::try_charge`] once
/// more. [`ByteBudget::release`] reports whether anyone is parked, and
/// only then does the caller wake the other reactors. Because both sides
/// are sequentially consistent, either the re-check sees the release or
/// the release sees the park, so no release is missed.
#[derive(Debug)]
pub(crate) struct ByteBudget {
    /// The byte limit (`usize::MAX` = unbounded).
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    /// Connections currently parked on this budget.
    parked: AtomicUsize,
}

impl ByteBudget {
    /// A budget of `limit` bytes; `0` = unbounded (charges are still
    /// counted, so the peak is measured).
    pub(crate) fn new(limit: usize) -> Self {
        ByteBudget {
            limit: if limit == 0 { usize::MAX } else { limit },
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
        }
    }

    /// Charges `bytes` if the budget admits them right now.
    pub(crate) fn try_charge(&self, bytes: usize) -> bool {
        let mut used = self.used.load(SeqCst);
        loop {
            if used != 0 && used.saturating_add(bytes) > self.limit {
                return false;
            }
            let next = used.saturating_add(bytes);
            match self.used.compare_exchange_weak(used, next, SeqCst, SeqCst) {
                Ok(_) => {
                    self.peak.fetch_max(next, SeqCst);
                    return true;
                }
                Err(now) => used = now,
            }
        }
    }

    /// Returns a charge. `true` means a connection is parked on this
    /// budget and should be woken to retry.
    pub(crate) fn release(&self, bytes: usize) -> bool {
        self.used.fetch_sub(bytes, SeqCst);
        self.parked.load(SeqCst) > 0
    }

    /// Counts a connection as parked. Retry [`ByteBudget::try_charge`]
    /// after this call, so a release that raced the refusal is not missed.
    pub(crate) fn park(&self) {
        self.parked.fetch_add(1, SeqCst);
    }

    /// Uncounts a parked connection (its charge was granted, or it closed).
    pub(crate) fn unpark(&self) {
        self.parked.fetch_sub(1, SeqCst);
    }

    /// The most bytes ever charged at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(start: Instant, ms: u64) -> Instant {
        start + Duration::from_millis(ms)
    }

    #[test]
    fn a_fresh_bucket_admits_a_full_burst_then_refuses() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 5.0, start);
        for _ in 0..5 {
            bucket.admit_at(1, start).unwrap();
        }
        let wait = bucket.admit_at(1, start).unwrap_err();
        assert!(wait > Duration::ZERO);
        // The hint is exactly the time to refill one token at 10/s.
        assert!((wait.as_secs_f64() - 0.1).abs() < 1e-9, "wait {wait:?}");
    }

    #[test]
    fn waiting_the_hinted_delay_admits_the_refused_cost() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(20.0, 10.0, start);
        bucket.admit_at(10, start).unwrap();
        let wait = bucket.admit_at(4, start).unwrap_err();
        bucket.admit_at(4, start + wait).unwrap();
    }

    #[test]
    fn costs_above_the_burst_drain_a_full_bucket_instead_of_wedging() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 8.0, start);
        bucket.admit_at(1_000, start).unwrap();
        // The oversize admit drained everything: next frame must wait.
        assert!(bucket.admit_at(1, start).is_err());
        // And it becomes admittable again after a refill — no dead state.
        bucket.admit_at(1, at(start, 200)).unwrap();
    }

    #[test]
    fn stale_instants_never_refill_backwards() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 2.0, start);
        bucket.admit_at(2, at(start, 500)).unwrap();
        // An instant before the last refill point is zero elapsed time.
        assert!(bucket.admit_at(2, start).is_err());
    }

    #[test]
    fn zero_parameters_are_clamped_not_divided_by() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(0.0, 0.0, start);
        assert!(bucket.rate() > 0.0 && bucket.burst() > 0.0);
        bucket.admit_at(1, start).unwrap();
        assert!(bucket.admit_at(1, start).is_err());
    }

    /// The satellite property, pinned over randomized schedules with
    /// simulated time: for any sequence of admit attempts inside a window
    /// `w`, the bucket never admits more than `rate × w + burst` cost.
    #[test]
    fn never_admits_more_than_rate_times_window_plus_burst() {
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64* — the workspace's deterministic test PRNG idiom.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let start = Instant::now();
        for case in 0..200 {
            let rate = 1.0 + (next() % 500) as f64 / 10.0; // 1..51 tok/s
            let burst = 1.0 + (next() % 400) as f64 / 10.0; // 1..41 tok
            let mut bucket = TokenBucket::new(rate, burst, start);
            let mut admitted = 0.0_f64;
            let mut clock_ms = 0u64;
            let attempts = 50 + next() % 200;
            for _ in 0..attempts {
                clock_ms += next() % 40; // bursty, irregular arrivals
                let cost = 1 + next() % 8;
                if bucket.admit_at(cost, at(start, clock_ms)).is_ok() {
                    admitted += (cost as f64).min(burst);
                }
            }
            let window = clock_ms as f64 / 1_000.0;
            let bound = rate * window + burst;
            assert!(
                admitted <= bound + 1e-6,
                "case {case}: admitted {admitted} > rate {rate} x window {window} + burst {burst}"
            );
        }
    }

    #[test]
    fn byte_budget_refuses_over_the_limit_and_admits_after_release() {
        let budget = ByteBudget::new(100);
        assert!(budget.try_charge(60));
        assert!(!budget.try_charge(60), "120 > 100");
        assert!(!budget.release(60), "nobody is parked");
        assert!(budget.try_charge(60));
        budget.release(60);
        assert_eq!(budget.peak(), 60, "the two charges never overlapped");
    }

    #[test]
    fn an_oversized_charge_is_admitted_when_nothing_is_charged() {
        let budget = ByteBudget::new(10);
        assert!(budget.try_charge(50));
        assert!(!budget.try_charge(1));
        budget.release(50);
        assert!(budget.try_charge(1));
        assert_eq!(budget.peak(), 50);
    }

    #[test]
    fn an_unbounded_budget_still_measures_its_peak() {
        let budget = ByteBudget::new(0);
        assert!(budget.try_charge(1 << 40));
        assert!(budget.try_charge(1 << 40));
        assert_eq!(budget.peak(), 2 << 40);
    }

    #[test]
    fn a_release_reports_parked_connections() {
        let budget = ByteBudget::new(10);
        assert!(budget.try_charge(10));
        assert!(!budget.try_charge(5));
        budget.park();
        assert!(budget.release(10), "a parked connection must be woken");
        assert!(budget.try_charge(5), "the re-check after parking succeeds");
        budget.unpark();
        assert!(!budget.release(5));
    }

    #[test]
    fn concurrent_chargers_never_exceed_the_limit() {
        const PAYLOAD: usize = 64;
        let budget = ByteBudget::new(PAYLOAD + PAYLOAD / 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        while !budget.try_charge(PAYLOAD) {
                            std::thread::yield_now();
                        }
                        budget.release(PAYLOAD);
                    }
                });
            }
        });
        assert_eq!(budget.peak(), PAYLOAD, "one payload fits at a time");
        assert!(budget.try_charge(PAYLOAD + PAYLOAD / 2), "all released");
    }
}
