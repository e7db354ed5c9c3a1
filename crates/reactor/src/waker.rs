//! Cross-thread reactor wakeups over an eventfd.

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;

/// A nonblocking eventfd another thread writes to nudge a sleeping
/// reactor out of `epoll_wait` — durability answers from a snapshot writer,
/// new connections from the acceptor, shutdown.
///
/// Register [`Waker::fd`] level-triggered under a reserved token; when
/// that token shows up in a wait, call [`Waker::drain`] before handling
/// the work the wakeup advertised (drain-then-check, so a wake posted
/// mid-drain still leaves the fd readable for the next wait).
///
/// `Send + Sync`: [`Waker::wake`] is a single atomic 8-byte eventfd
/// write, safe from any thread. Wakes coalesce — the eventfd is a
/// counter, so N wakes before a drain produce one readable edge, which
/// is exactly what a "check your mailboxes" signal wants.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A fresh eventfd waker (`EFD_CLOEXEC | EFD_NONBLOCK`).
    pub fn new() -> io::Result<Self> {
        Ok(Waker {
            fd: sys::eventfd()?,
        })
    }

    /// The fd to register (level-triggered, readable) in the reactor's
    /// epoll set.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Nudges the owning reactor. Never blocks; an unconsumed counter at
    /// `u64::MAX - 1` (unreachable in practice) would make the kernel
    /// return `EAGAIN`, which is treated as "already plenty awake".
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = sys::write(self.fd, &one);
    }

    /// Consumes pending wakeups so the next `epoll_wait` sleeps again.
    /// One read suffices: a (non-semaphore) eventfd read returns the whole
    /// counter and resets it to zero. An `EAGAIN` (nothing pending) is
    /// the same outcome.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = sys::read(self.fd, &mut buf);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        let _ = sys::close(self.fd);
    }
}

// SAFETY: eventfd reads/writes are atomic kernel operations on an
// integer handle.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}
