//! Structured long-lived service threads.
//!
//! The work-stealing [`Pool`](crate::Pool) is built for short, indexed,
//! CPU-bound jobs — it deliberately has no notion of a thread that lives
//! for the duration of a TCP session or a serve loop. [`service_scope`]
//! fills that gap: a thin structured-concurrency wrapper over
//! [`std::thread::scope`] that
//!
//! - names every spawned thread (`ldp-svc-<name>`), so stack traces and
//!   `/proc` are readable under load;
//! - contains panics: a panicking service unwinds its own thread (dropping
//!   its channel endpoints, which is how peers find out), every other
//!   service still runs to completion and is joined, and the whole call
//!   returns [`PoolError::JobPanicked`] instead of aborting the process;
//! - hands the body a [`ServiceScope`] handle that is `Copy`, so an
//!   acceptor service can itself spawn per-connection services.
//!
//! The scope guarantees every service has exited before [`service_scope`]
//! returns, so borrowed data (listener sockets, sessions, counters) can
//! live on the caller's stack.

use crate::PoolError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// A handle for spawning named service threads inside a
/// [`service_scope`]. `Copy`, so it can be captured by services that
/// spawn further services (e.g. an acceptor spawning one handler per
/// accepted connection).
#[derive(Clone, Copy)]
pub struct ServiceScope<'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> ServiceScope<'scope, 'env> {
    /// Spawns a service thread named `ldp-svc-<name>`. A panic inside
    /// `f` unwinds only that thread; the enclosing [`service_scope`]
    /// call reports it as an error after every service has joined.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread (resource
    /// exhaustion) — inside a scope this surfaces as the scope's
    /// [`PoolError::JobPanicked`], not a process abort.
    pub fn spawn<F>(&self, name: &str, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        thread::Builder::new()
            .name(format!("ldp-svc-{name}"))
            .spawn_scoped(self.scope, f)
            .unwrap_or_else(|e| panic!("failed to spawn service thread ldp-svc-{name}: {e}"));
    }
}

/// Runs `f` with a [`ServiceScope`], joins every spawned service, and
/// returns `f`'s value — or [`PoolError::JobPanicked`] if `f` or any
/// service panicked (all of them are still joined first, so no thread
/// ever outlives the scope).
pub fn service_scope<'env, F, R>(f: F) -> Result<R, PoolError>
where
    F: for<'scope> FnOnce(ServiceScope<'scope, 'env>) -> R,
{
    // std::thread::scope already joins every spawned thread and re-panics
    // on the caller if any of them panicked; containing that re-panic is
    // exactly the error boundary we want.
    catch_unwind(AssertUnwindSafe(|| {
        thread::scope(|scope| f(ServiceScope { scope }))
    }))
    .map_err(|_| PoolError::JobPanicked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{sync_channel, TrySendError};

    #[test]
    fn services_join_before_the_scope_returns() {
        let counter = AtomicUsize::new(0);
        let total = service_scope(|scope| {
            for _ in 0..4 {
                scope.spawn("adder", || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            &counter
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_panicking_service_fails_the_scope_without_aborting() {
        let survived = AtomicBool::new(false);
        let result = service_scope(|scope| {
            scope.spawn("doomed", || panic!("service panic"));
            scope.spawn("fine", || {
                survived.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(result, Err(PoolError::JobPanicked));
        assert!(
            survived.load(Ordering::SeqCst),
            "healthy services still run and join"
        );
    }

    #[test]
    fn scope_handle_is_copy_so_services_can_spawn_services() {
        let hits = AtomicUsize::new(0);
        let hits_ref = &hits;
        service_scope(|scope| {
            scope.spawn("acceptor", move || {
                for _ in 0..3 {
                    scope.spawn("handler", move || {
                        hits_ref.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_panicking_producer_disconnects_its_channel() {
        // The unwinding thread drops its Sender, so the consumer sees a
        // clean end-of-stream instead of hanging — panic containment and
        // channel disconnect semantics compose.
        let (tx, rx) = sync_channel(2);
        let drained = AtomicUsize::new(0);
        let drained_ref = &drained;
        let result = service_scope(|scope| {
            scope.spawn("producer", move || {
                tx.try_send(1).unwrap();
                panic!("producer dies mid-stream");
            });
            scope.spawn("consumer", move || {
                while rx.recv().is_ok() {
                    drained_ref.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(result, Err(PoolError::JobPanicked));
        assert_eq!(drained.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn services_pipeline_over_bounded_channels() {
        let (tx, rx) = sync_channel(2);
        let sum = AtomicUsize::new(0);
        let sum_ref = &sum;
        service_scope(|scope| {
            scope.spawn("producer", move || {
                for mut i in 1..=10usize {
                    // A full channel hands the value back: park and retry.
                    while let Err(e) = tx.try_send(i) {
                        let TrySendError::Full(v) = e else {
                            panic!("consumer hung up");
                        };
                        i = v;
                        std::thread::yield_now();
                    }
                }
            });
            scope.spawn("consumer", move || {
                while let Ok(v) = rx.recv() {
                    sum_ref.fetch_add(v, Ordering::SeqCst);
                }
            });
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::SeqCst), 55);
    }
}
