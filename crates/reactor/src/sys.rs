//! Raw Linux syscalls for the reactor, invoked directly via inline
//! assembly.
//!
//! The workspace builds offline — no `libc` crate is available — so the
//! four kernel facilities the reactor needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_pwait`, `eventfd2`, plus `read`/`write`/`close`
//! on the eventfd) are issued as direct syscalls. Only the syscall
//! numbers differ per architecture; the calling convention is the
//! standard Linux one (`syscall` on x86_64, `svc 0` on aarch64).
//!
//! Every wrapper converts the kernel's `-errno` return into
//! [`std::io::Error`], so callers above this module never see a raw
//! return value.

use std::io;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` — both alias `O_CLOEXEC`.
pub const CLOEXEC: usize = 0o2000000;
/// `EFD_NONBLOCK` — aliases `O_NONBLOCK`.
pub const EFD_NONBLOCK: usize = 0o4000;

/// `epoll_ctl` op: register a new fd.
pub const EPOLL_CTL_ADD: usize = 1;
/// `epoll_ctl` op: remove a registration.
pub const EPOLL_CTL_DEL: usize = 2;
/// `epoll_ctl` op: change an existing registration.
pub const EPOLL_CTL_MOD: usize = 3;

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (both directions closed).
pub const EPOLLHUP: u32 = 0x010;
/// Peer half-closed its write side.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

/// `EINTR`, the one errno the wait loop handles specially.
pub const EINTR: i32 = 4;

/// The kernel's `struct epoll_event`. x86_64 declares it packed (12
/// bytes); every other architecture uses natural alignment (16 bytes).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLL*`).
    pub events: u32,
    /// The caller's registration token, returned verbatim.
    pub data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[inline]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret;
    // SAFETY: the caller passes arguments valid for syscall `n`; the asm
    // block clobbers only what the Linux syscall ABI says it clobbers
    // (rcx, r11, and the return register).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
#[inline]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret;
    // SAFETY: as for x86_64 — the aarch64 Linux syscall ABI preserves
    // everything except x0 (return).
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Converts a raw syscall return into `Ok(value)` or the `io::Error` for
/// its `-errno`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `epoll_create1(CLOEXEC)` — a new epoll instance fd.
pub fn epoll_create1() -> io::Result<i32> {
    // SAFETY: no pointers involved.
    check(unsafe { syscall6(nr::EPOLL_CREATE1, CLOEXEC, 0, 0, 0, 0, 0) }).map(|fd| fd as i32)
}

/// `epoll_ctl(epfd, op, fd, event)`. `event` may be null for
/// [`EPOLL_CTL_DEL`].
pub fn epoll_ctl(epfd: i32, op: usize, fd: i32, event: Option<&mut EpollEvent>) -> io::Result<()> {
    let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
    // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent; the
    // kernel only reads it during the call.
    check(unsafe {
        syscall6(
            nr::EPOLL_CTL,
            epfd as usize,
            op,
            fd as usize,
            ptr as usize,
            0,
            0,
        )
    })
    .map(|_| ())
}

/// `epoll_pwait(epfd, events, maxevents, timeout_ms, NULL, 0)` — used on
/// every architecture (plain `epoll_wait` does not exist on aarch64).
/// Returns the number of ready events.
pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `events` is a live, writable slice; the kernel writes at
    // most `events.len()` entries. The null sigmask (with size 8) means
    // "don't touch the signal mask", making this equivalent to
    // epoll_wait.
    check(unsafe {
        syscall6(
            nr::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0,
            8,
        )
    })
}

/// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)` — the reactor's wakeup fd.
pub fn eventfd() -> io::Result<i32> {
    // SAFETY: no pointers involved.
    check(unsafe { syscall6(nr::EVENTFD2, 0, CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })
        .map(|fd| fd as i32)
}

/// `write(fd, buf, len)` on a reactor-owned fd.
pub fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live readable slice for the duration of the
    // call.
    check(unsafe {
        syscall6(
            nr::WRITE,
            fd as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    })
}

/// `read(fd, buf, len)` on a reactor-owned fd.
pub fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live writable slice for the duration of the
    // call.
    check(unsafe {
        syscall6(
            nr::READ,
            fd as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    })
}

/// `close(fd)` — errors are reported but safe to ignore on drop paths.
pub fn close(fd: i32) -> io::Result<()> {
    // SAFETY: closing an owned fd.
    check(unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) }).map(|_| ())
}
