//! `ldp-reactor` — minimal epoll reactor primitives for the collector's
//! nonblocking serve path.
//!
//! The collector must multiplex hundreds of framed TCP sessions over a
//! small thread set (the paper's setting is a fleet of millions of
//! reporting devices). This crate supplies exactly the event-loop
//! machinery that takes, nothing more:
//!
//! - [`Epoll`] — a thin safe wrapper over one `epoll` instance
//!   (create1/ctl/pwait issued as direct syscalls in [`sys`]; the
//!   workspace vendors no `libc`), registering fds edge- or
//!   level-triggered under caller-chosen `u64` tokens;
//! - [`Waker`] — an eventfd for cross-thread nudges (durable-flush
//!   answers, newly accepted connections, released byte budget,
//!   shutdown);
//! - [`Poller`] — an [`Epoll`] with its [`Waker`] pre-registered under a
//!   reserved token, the per-reactor-thread bundle;
//! - [`Slab`] — generation-tagged connection slots whose tokens double
//!   as epoll registration tokens (stale events miss, never mis-land);
//! - [`TimerWheel`] — `(token, kind)` deadlines with lazy deletion, for
//!   idle timeouts, ack deadlines, and shutdown grace.
//!
//! This crate uses `unsafe` for the syscall layer and two fd-handle
//! `Send`/`Sync` assertions — one of the workspace's three places that
//! do, listed under "Unsafe code" in `docs/ARCHITECTURE.md`; everything
//! above it — including the collector's framing state machine — stays
//! under `#![forbid(unsafe_code)]`.
//!
//! # Examples
//!
//! A slot wakes for a readable socket; another thread nudges the loop:
//!
//! ```
//! use ldp_reactor::{Events, Interest, Poller};
//! use std::io::Write;
//! use std::net::{TcpListener, TcpStream};
//! use std::time::Duration;
//!
//! let poller = Poller::new().unwrap();
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
//! let (server, _) = listener.accept().unwrap();
//! server.set_nonblocking(true).unwrap();
//! poller.add(&server, 7, Interest::edge_rw()).unwrap();
//!
//! client.write_all(b"ping").unwrap();
//! let mut events = Events::with_capacity(8);
//! poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
//! assert!(events.iter().any(|e| e.token == 7 && e.readable));
//!
//! let waker = poller.waker();
//! std::thread::spawn(move || waker.wake()).join().unwrap();
//! let woken = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
//! assert!(woken);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "ldp-reactor drives Linux epoll via direct syscalls and supports \
     x86_64/aarch64 only; the collector's serve path (ldp-collector) \
     is therefore Linux x86_64/aarch64-only"
);

mod epoll;
mod slab;
pub mod sys;
mod timer;
mod waker;

pub use epoll::{Epoll, Event, Events, Interest};
pub use slab::Slab;
pub use timer::TimerWheel;
pub use waker::Waker;

use std::io;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

/// The token [`Poller`] reserves for its own [`Waker`]. Slab tokens can
/// never collide with it: their generation half wraps at 32 bits, so a
/// real token is always `< u64::MAX`.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One reactor thread's event source: an [`Epoll`] with a [`Waker`]
/// registered under [`WAKE_TOKEN`].
///
/// [`Poller::wait`] hides the waker bookkeeping: it drains the eventfd,
/// filters the wake event out of the caller-visible set, and returns
/// whether a wake was among the reasons the loop is running — so the
/// loop body can check its mailboxes exactly when someone rang.
pub struct Poller {
    epoll: Epoll,
    waker: Arc<Waker>,
}

impl Poller {
    /// A fresh epoll instance with its waker registered.
    pub fn new() -> io::Result<Self> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);
        epoll.add(waker.fd(), WAKE_TOKEN, Interest::level_read())?;
        Ok(Poller { epoll, waker })
    }

    /// A cloneable handle other threads use to nudge this poller.
    #[must_use]
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Registers `fd` under `token` (which must not be [`WAKE_TOKEN`]).
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN);
        self.epoll.add(fd.as_raw_fd(), token, interest)
    }

    /// Changes an existing registration.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.modify(fd.as_raw_fd(), token, interest)
    }

    /// Removes a registration (closing the fd also deregisters it).
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.epoll.delete(fd.as_raw_fd())
    }

    /// Waits for readiness, a wake, or `timeout`. Returns `true` when a
    /// wake was posted (the wake event itself never appears in
    /// `events`).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<bool> {
        self.epoll.wait(events, timeout)?;
        let woken = events.iter().any(|e| e.token == WAKE_TOKEN);
        if woken {
            self.waker.drain();
        }
        Ok(woken)
    }
}

/// Iterate [`Events`] skipping the reserved wake token — the loop-body
/// companion to [`Poller::wait`].
pub fn ready_events(events: &Events) -> impl Iterator<Item = Event> + '_ {
    events.iter().filter(|e| e.token != WAKE_TOKEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_socket_wakes_its_token() {
        let poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, 42, Interest::edge_rw()).unwrap();
        client.write_all(b"hello").unwrap();
        let mut events = Events::with_capacity(4);
        let woken = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!woken);
        let ev: Vec<Event> = ready_events(&events).collect();
        assert!(ev.iter().any(|e| e.token == 42 && e.readable));
    }

    #[test]
    fn edge_triggered_reports_once_until_drained() {
        let poller = Poller::new().unwrap();
        let (mut client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, 1, Interest::edge_rw()).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(ready_events(&events).filter(|e| e.readable).count(), 1);
        // Without draining, the edge does not re-fire.
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(ready_events(&events).count(), 0);
        // Drain, write again: a fresh edge.
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(n, 1);
        client.write_all(b"y").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(ready_events(&events).any(|e| e.token == 1 && e.readable));
    }

    #[test]
    fn peer_close_is_visible_as_readable() {
        let poller = Poller::new().unwrap();
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, 9, Interest::edge_rw()).unwrap();
        drop(client);
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(ready_events(&events).any(|e| e.token == 9 && e.readable));
    }

    #[test]
    fn waker_crosses_threads_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        // Every wake lands before the wait, so all 100 must coalesce into
        // the one readable edge that wait drains (a wake still in flight
        // after the drain would legitimately re-arm the fd).
        std::thread::spawn(move || {
            for _ in 0..100 {
                waker.wake();
            }
        })
        .join()
        .unwrap();
        let mut events = Events::with_capacity(4);
        let woken = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(woken);
        assert_eq!(ready_events(&events).count(), 0, "wake token is filtered");
        // Drained: the next wait times out instead of spinning.
        let started = Instant::now();
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(60)))
            .unwrap();
        assert!(!woken);
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn wait_times_out_when_idle() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        let started = Instant::now();
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(80)))
            .unwrap();
        assert!(!woken);
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(70));
    }
}
