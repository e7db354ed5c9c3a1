//! A bounded multi-producer, single-consumer channel with **nonblocking
//! producers**.
//!
//! The queue shape for many event-loop producers feeding one consumer
//! thread, with a hard bound on in-flight work so fast producers cannot
//! balloon memory. An event loop cannot park on a condvar, so producers
//! never block: [`Sender::try_push`] hands a value back when the channel
//! is full, the producer **parks** the work item, and retries once the
//! consumer signals progress.
//! Nothing is ever silently discarded: every pushed value is either
//! delivered to the receiver or handed back in a [`TrySendError`].
//!
//! Disconnection is symmetric and explicit:
//!
//! - when every [`Sender`] has been dropped, [`Receiver::pop`] drains the
//!   remaining values and then returns `None`;
//! - when the [`Receiver`] is dropped, every later push hands its value
//!   back with `full = false`, and every later reservation fails.
//!
//! # Byte-weighted bounds
//!
//! A count bound alone cannot cap memory: 32 queued frames may be 32 KiB
//! or 2 GiB. [`bounded_weighted`] adds a **byte budget** shared by queued
//! values *and* outstanding [`Sender::try_reserve`] reservations, so a
//! producer can charge a payload's bytes against the budget **before
//! allocating its buffer** — the budget then covers in-flight decode
//! buffers, not just what sits in the queue. One oversized charge is
//! still admitted whenever no bytes are outstanding (backpressure parks,
//! never drops, even when a single item exceeds the whole budget), and
//! [`Receiver::peak_bytes`] records the high-water mark for capacity
//! verification.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// The channel's shared core.
struct Chan<T> {
    state: Mutex<State<T>>,
    /// The consumer parks here while the buffer is empty.
    not_empty: Condvar,
}

struct State<T> {
    /// Each buffered value carries the byte weight it was charged.
    buf: VecDeque<(T, usize)>,
    capacity: usize,
    /// Byte budget shared by queued weights and outstanding reservations
    /// (`usize::MAX` = unweighted channel).
    byte_budget: usize,
    /// Bytes currently charged: queued weights + reservations not yet
    /// pushed or released.
    used_bytes: usize,
    /// High-water mark of `used_bytes` over the channel's lifetime.
    peak_bytes: usize,
    senders: usize,
    receiver_alive: bool,
}

impl<T> State<T> {
    /// Whether `bytes` more can be charged right now. An oversized charge
    /// is admitted whenever nothing else is outstanding, so progress never
    /// deadlocks on a budget smaller than one item.
    fn admits_bytes(&self, bytes: usize) -> bool {
        self.used_bytes == 0 || self.used_bytes.saturating_add(bytes) <= self.byte_budget
    }

    fn charge(&mut self, bytes: usize) {
        self.used_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
    }
}

/// A [`Sender::try_reserve`] on a channel whose receiver was dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the channel's receiver was dropped")
    }
}

/// Creates a bounded MPSC channel with **two** bounds: at most `capacity`
/// values (clamped to ≥ 1) and at most `byte_budget` charged bytes
/// (queued weights plus outstanding [`Sender::try_reserve`]
/// reservations). `byte_budget = 0` means unweighted — byte charges are
/// tracked but never refused. Producers clone the [`Sender`]; the single
/// [`Receiver`] is the consumer end.
#[must_use]
pub fn bounded_weighted<T>(capacity: usize, byte_budget: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            byte_budget: if byte_budget == 0 {
                usize::MAX
            } else {
                byte_budget
            },
            used_bytes: 0,
            peak_bytes: 0,
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// The producing end of a [`bounded_weighted`] channel. Cloneable; dropping the
/// last clone disconnects the channel (the receiver drains, then sees
/// `None`).
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Releases a charge previously acquired with [`Sender::try_reserve`]
    /// without delivering a value (the producer's error path).
    pub fn unreserve(&self, bytes: usize) {
        let mut state = self.chan.state.lock();
        state.used_bytes = state.used_bytes.saturating_sub(bytes);
    }

    /// Delivers `value` at weight 0 if there is room right now. Returns
    /// the value back on a full channel (`Err` with `full = true`; an
    /// over-budget channel counts as full) or a dropped receiver
    /// (`full = false`).
    pub fn try_push(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.chan.state.lock();
        if !state.receiver_alive {
            return Err(TrySendError { value, full: false });
        }
        if state.buf.len() < state.capacity && state.admits_bytes(0) {
            state.buf.push_back((value, 0));
            drop(state);
            self.chan.not_empty.notify_one();
            Ok(())
        } else {
            Err(TrySendError { value, full: true })
        }
    }

    /// Charges `bytes` against the byte budget **without queueing
    /// anything yet**, only if the budget admits them right now. Call this
    /// *before* allocating a payload buffer so the budget covers in-flight
    /// decode memory; follow up with [`Sender::try_push_reserved`] to hand
    /// the decoded value over (the charge transfers to the queued value)
    /// or [`Sender::unreserve`] to release the charge on an error path.
    ///
    /// `Ok(true)` means the charge was taken; `Ok(false)` means the budget
    /// is currently exhausted (nothing charged, try again later); `Err`
    /// means the receiver is gone (nothing charged).
    pub fn try_reserve(&self, bytes: usize) -> Result<bool, SendError<()>> {
        let mut state = self.chan.state.lock();
        if !state.receiver_alive {
            return Err(SendError(()));
        }
        if state.admits_bytes(bytes) {
            state.charge(bytes);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Queues a value whose `bytes` were already charged by
    /// [`Sender::try_reserve`], only if a count slot is free right now. On a full channel the value comes back with
    /// `full = true` and the reservation is **kept** (the producer still
    /// owns the charge and will retry); on a dropped receiver the value
    /// comes back with `full = false` and the reservation is released
    /// (it can never be delivered).
    pub fn try_push_reserved(&self, value: T, bytes: usize) -> Result<(), TrySendError<T>> {
        let mut state = self.chan.state.lock();
        if !state.receiver_alive {
            state.used_bytes = state.used_bytes.saturating_sub(bytes);
            return Err(TrySendError { value, full: false });
        }
        if state.buf.len() < state.capacity {
            state.buf.push_back((value, bytes));
            drop(state);
            self.chan.not_empty.notify_one();
            Ok(())
        } else {
            Err(TrySendError { value, full: true })
        }
    }
}

/// The value and cause of a failed [`Sender::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub struct TrySendError<T> {
    /// The undelivered value.
    pub value: T,
    /// `true` when the channel was full; `false` when the receiver was
    /// dropped.
    pub full: bool,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut state = self.chan.state.lock();
            state.senders -= 1;
            state.senders
        };
        if remaining == 0 {
            // Wake the consumer so it can observe the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

/// The consuming end of a [`bounded_weighted`] channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next value in FIFO order, blocking while the channel is
    /// empty. Returns `None` once every sender has been dropped **and**
    /// the buffer is drained — the clean end-of-stream signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.chan.state.lock();
        loop {
            if let Some((value, bytes)) = state.buf.pop_front() {
                state.used_bytes = state.used_bytes.saturating_sub(bytes);
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            self.chan.not_empty.wait(&mut state);
        }
    }

    /// Bytes currently charged against the budget (queued weights plus
    /// outstanding reservations).
    #[cfg(test)]
    fn used_bytes(&self) -> usize {
        self.chan.state.lock().used_bytes
    }

    /// High-water mark of charged bytes over the channel's lifetime — the
    /// number to compare against the budget when verifying a capacity
    /// plan.
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.chan.state.lock().peak_bytes
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let drained = {
            let mut state = self.chan.state.lock();
            state.receiver_alive = false;
            let drained: Vec<(T, usize)> = state.buf.drain(..).collect();
            for (_, bytes) in &drained {
                state.used_bytes = state.used_bytes.saturating_sub(*bytes);
            }
            drained
        };
        // Undelivered values can never be delivered now, so their
        // destructors must run *here*, not when the last sender goes away:
        // a queued value may hold the only sender of a reply channel that
        // a producer thread is blocked on, and that producer also holds a
        // Sender to *this* channel — waiting for it to drop first is a
        // deadlock. Dropping outside the lock keeps destructors free to
        // take other locks.
        drop(drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `value` at weight 0, yielding while the channel is full —
    /// a producer that parks and retries, as an event loop does.
    fn push_parked<T>(tx: &Sender<T>, mut value: T) {
        loop {
            match tx.try_push(value) {
                Ok(()) => return,
                Err(e) => {
                    assert!(e.full, "the receiver is alive");
                    value = e.value;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Reserves `bytes` and then queues `value` on them, yielding while
    /// the budget or the count bound pushes back.
    fn reserve_and_push_parked<T>(tx: &Sender<T>, mut value: T, bytes: usize) {
        while !tx.try_reserve(bytes).unwrap() {
            std::thread::yield_now();
        }
        loop {
            match tx.try_push_reserved(value, bytes) {
                Ok(()) => return,
                Err(e) => {
                    assert!(e.full, "the receiver is alive");
                    value = e.value;
                    std::thread::yield_now();
                }
            }
        }
    }

    #[test]
    fn fifo_order_within_one_producer() {
        let (tx, rx) = bounded_weighted(8, 0);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        drop(tx);
        let drained: Vec<i32> = std::iter::from_fn(|| rx.pop()).collect();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn multi_producer_values_all_arrive() {
        let (tx, rx) = bounded_weighted(4, 0);
        std::thread::scope(|s| {
            for p in 0..4 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..25 {
                        push_parked(&tx, p * 100 + i);
                    }
                });
            }
            drop(tx);
            let mut got: Vec<i32> = std::iter::from_fn(|| rx.pop()).collect();
            got.sort_unstable();
            let mut expected: Vec<i32> = (0..4)
                .flat_map(|p| (0..25).map(move |i| p * 100 + i))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn dropping_all_senders_disconnects_after_drain() {
        let (tx, rx) = bounded_weighted(4, 0);
        let tx2 = tx.clone();
        tx.try_push("a").unwrap();
        drop(tx);
        tx2.try_push("b").unwrap();
        drop(tx2);
        assert_eq!(rx.pop(), Some("a"));
        assert_eq!(rx.pop(), Some("b"));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.pop(), None, "disconnect is sticky");
    }

    #[test]
    fn dropping_the_receiver_fails_pushes_with_the_value() {
        let (tx, rx) = bounded_weighted(1, 0);
        tx.try_push(7).unwrap(); // fills the buffer
        drop(rx);
        // Full before, disconnected now: the value comes back either way,
        // flagged as undeliverable rather than full.
        assert_eq!(
            tx.try_push(8),
            Err(TrySendError {
                value: 8,
                full: false
            })
        );
    }

    #[test]
    fn try_push_reports_full_and_disconnected_distinctly() {
        let (tx, rx) = bounded_weighted(1, 0);
        tx.try_push(1).unwrap();
        let err = tx.try_push(2).unwrap_err();
        assert!(err.full);
        assert_eq!(err.value, 2);
        assert_eq!(rx.pop(), Some(1));
        tx.try_push(2).unwrap();
        drop(rx);
        let err = tx.try_push(3).unwrap_err();
        assert!(!err.full);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let (tx, rx) = bounded_weighted(0, 0);
        tx.try_push(42).unwrap();
        assert!(tx.try_push(43).unwrap_err().full, "one slot, now taken");
        assert_eq!(rx.pop(), Some(42));
    }

    #[test]
    fn unweighted_channels_never_block_on_bytes() {
        let (tx, rx) = bounded_weighted(4, 0);
        assert_eq!(tx.try_reserve(usize::MAX / 2), Ok(true));
        assert_eq!(tx.try_reserve(usize::MAX / 2), Ok(true));
        tx.try_push_reserved(1, usize::MAX / 2).unwrap();
        tx.try_push_reserved(2, usize::MAX / 2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.used_bytes(), 0);
    }

    #[test]
    fn byte_budget_blocks_and_releases_on_pop() {
        let (tx, rx) = bounded_weighted(8, 100);
        assert_eq!(tx.try_reserve(60), Ok(true));
        tx.try_push_reserved("a", 60).unwrap();
        // 120 > 100: the budget pushes back.
        assert_eq!(tx.try_reserve(60), Ok(false));
        assert_eq!(rx.used_bytes(), 60);
        // Popping releases the value's charge.
        assert_eq!(rx.pop(), Some("a"));
        assert_eq!(rx.used_bytes(), 0);
        assert_eq!(tx.try_reserve(60), Ok(true));
        tx.try_push_reserved("b", 60).unwrap();
        assert_eq!(rx.pop(), Some("b"));
        assert_eq!(rx.used_bytes(), 0);
        assert!(rx.peak_bytes() <= 100, "peak {} > budget", rx.peak_bytes());
    }

    #[test]
    fn oversized_item_is_admitted_when_nothing_is_charged() {
        // Parks-never-drops even when one item exceeds the whole budget.
        let (tx, rx) = bounded_weighted(2, 10);
        assert_eq!(tx.try_reserve(50), Ok(true));
        tx.try_push_reserved(vec![0u8; 50], 50).unwrap();
        // Over budget now: a weight-0 push waits for the pop.
        assert!(tx.try_push(Vec::new()).unwrap_err().full);
        assert_eq!(rx.pop().unwrap().len(), 50);
        assert_eq!(rx.used_bytes(), 0);
        tx.try_push(Vec::new()).unwrap();
    }

    #[test]
    fn reserve_charges_before_the_value_exists() {
        let (tx, rx) = bounded_weighted(8, 100);
        assert_eq!(tx.try_reserve(70), Ok(true));
        assert_eq!(rx.used_bytes(), 70);
        // A second reservation must wait for the first to resolve.
        assert_eq!(tx.try_reserve(70), Ok(false));
        // Resolving the first reservation as a push keeps its charge…
        tx.try_push_reserved("first", 70).unwrap();
        assert_eq!(tx.try_reserve(70), Ok(false));
        // …until the consumer pops it, which admits the second.
        assert_eq!(rx.pop(), Some("first"));
        assert_eq!(tx.try_reserve(70), Ok(true));
        // Error path: an unreserve releases the charge without a value.
        tx.unreserve(70);
        assert_eq!(rx.used_bytes(), 0);
        // The two 70-byte charges never overlapped, so the peak is 70.
        assert_eq!(rx.peak_bytes(), 70);
    }

    #[test]
    fn depth_one_small_budget_soak_blocks_never_drops() {
        // Six writers through the narrowest possible channel: depth 1 and
        // a budget smaller than two payloads. Byte accounting must not
        // break the parks-never-drops guarantee, and the recorded peak
        // must respect the budget (no payload here exceeds it alone).
        const WRITERS: usize = 6;
        const PER_WRITER: usize = 50;
        const PAYLOAD: usize = 64;
        let (tx, rx) = bounded_weighted(1, PAYLOAD + PAYLOAD / 2);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        reserve_and_push_parked(&tx, (w, i), PAYLOAD);
                    }
                });
            }
            drop(tx);
            let mut got: Vec<(usize, usize)> = std::iter::from_fn(|| rx.pop()).collect();
            got.sort_unstable();
            let mut expected: Vec<(usize, usize)> = (0..WRITERS)
                .flat_map(|w| (0..PER_WRITER).map(move |i| (w, i)))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "every value must arrive exactly once");
            assert!(
                rx.peak_bytes() <= PAYLOAD + PAYLOAD / 2,
                "peak {} exceeded the byte budget",
                rx.peak_bytes()
            );
        });
    }

    #[test]
    fn dropping_the_receiver_drops_undelivered_values() {
        // A queued value may hold the only sender of a reply channel that
        // some other thread is blocked popping (a queue of work items that
        // carry completion handles looks exactly like this).
        // When the receiver is dropped, the undelivered value's destructor
        // must run so the reply waiter observes a disconnect instead of
        // wedging.
        let (tx, rx) = bounded_weighted(4, 0);
        let (reply_tx, reply_rx) = bounded_weighted::<()>(1, 0);
        assert!(tx.try_push(reply_tx).is_ok());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| reply_rx.pop());
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(rx); // must drop the queued reply sender
            assert_eq!(waiter.join().unwrap(), None);
        });
        // And the channel itself reports the disconnect to new pushes.
        assert!(
            !tx.try_push(bounded_weighted::<()>(1, 0).0)
                .unwrap_err()
                .full
        );
    }

    #[test]
    fn try_reserve_charges_only_when_the_budget_admits() {
        let (tx, rx) = bounded_weighted::<()>(8, 100);
        assert_eq!(tx.try_reserve(60), Ok(true));
        assert_eq!(rx.used_bytes(), 60);
        // Budget exhausted: nothing charged, caller should retry later.
        assert_eq!(tx.try_reserve(60), Ok(false));
        assert_eq!(rx.used_bytes(), 60);
        tx.unreserve(60);
        // Oversized single charge admitted when nothing is outstanding.
        assert_eq!(tx.try_reserve(500), Ok(true));
        tx.unreserve(500);
        drop(rx);
        assert_eq!(tx.try_reserve(1), Err(SendError(())));
    }

    #[test]
    fn try_push_reserved_keeps_the_charge_on_full_releases_on_disconnect() {
        let (tx, rx) = bounded_weighted(1, 100);
        assert_eq!(tx.try_reserve(30), Ok(true));
        assert_eq!(tx.try_reserve(30), Ok(true));
        tx.try_push_reserved("a", 30).unwrap();
        // Count bound hit: the value comes back, the charge stays ours.
        let err = tx.try_push_reserved("b", 30).unwrap_err();
        assert!(err.full);
        assert_eq!(err.value, "b");
        assert_eq!(rx.used_bytes(), 60, "full retry keeps the reservation");
        assert_eq!(rx.pop(), Some("a"));
        tx.try_push_reserved("b", 30).unwrap();
        assert_eq!(rx.pop(), Some("b"));
        // Disconnect: the value comes back and the charge is released.
        assert_eq!(tx.try_reserve(30), Ok(true));
        drop(rx);
        let err = tx.try_push_reserved("c", 30).unwrap_err();
        assert!(!err.full);
    }

    #[test]
    fn dropped_receiver_fails_reserve_and_push_reserved() {
        let (tx, rx) = bounded_weighted(2, 100);
        assert_eq!(tx.try_reserve(40), Ok(true));
        drop(rx);
        assert_eq!(
            tx.try_push_reserved(1, 40),
            Err(TrySendError {
                value: 1,
                full: false
            })
        );
        assert_eq!(tx.try_reserve(10), Err(SendError(())));
    }
}
