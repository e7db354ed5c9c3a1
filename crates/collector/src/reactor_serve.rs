//! The serve engine: N epoll reactor threads multiplexing every
//! admitted connection through the resumable protocol machine
//! ([`crate::machine`]) and committing each decoded frame into its window
//! themselves — plus the multi-window session router
//! ([`crate::server::serve_routed`]).
//!
//! # Shape
//!
//! ```text
//!             ┌ reactor thread 0 ── epoll ── conns… ┐   ┌ "default" session lock ── spool ── writer
//!  acceptor ──┤ reactor thread 1 ── epoll ── conns… ├───┤ "hourly"  session lock ── spool ── writer
//!  (admission,│ …                                   │   └ "coarse"  session lock ── spool ── writer
//!   quota,    └ reactor thread N ── epoll ── conns… ┘
//!   backoff)        read → decode → lock, merge → ack, all on one thread
//! ```
//!
//! The acceptor admits (open-connection bound, quota sheds,
//! `admission`/`accept` failpoints, EMFILE backoff) and deals admitted
//! sockets round-robin to the reactor threads' mailboxes. Each reactor
//! thread owns an epoll instance, a [`Slab`] of connections, and a
//! [`TimerWheel`] for idle/ack-deadline/shutdown deadlines; each
//! connection owns a [`Machine`] that turns bytes into [`Action`]s.
//!
//! A commit runs where the frame was decoded: the reactor locks the
//! window's session (one mutex per window), applies the hello, batch or
//! flush, and feeds the outcome straight back into the connection's
//! machine, so the ack goes out in the same `drive` pass. A frame never
//! crosses threads between its read and its ack. Two things still do:
//!
//! - a sequenced end-of-stream ack waits until its snapshot generation is
//!   durable. No reactor blocks on disk for it: the window's snapshot
//!   writer answers through a [`Done`] handle that posts to the owning
//!   reactor's mailbox and wakes its epoll;
//! - a connection over the window's byte budget **parks** and is retried
//!   when its thread wakes. A release wakes the reactors only while some
//!   connection is parked on that budget.
//!
//! Every window — the default one is window 0 — runs the same commit
//! step and writer.

use crate::error::CollectorError;
use crate::faults;
use crate::machine::{Action, CommitDone, CommitRequest, Machine, MachineConfig, MachineEnd};
use crate::protocol;
use crate::server::{
    absorb_commit, flush_when_written, is_fd_exhaustion, panic_message, run_writer, shed_at_accept,
    Applied, Done, ServeOptions, ServeSummary, SnapshotPolicy, Stats, Window, WindowRoute,
};
use crate::session::{BatchDecoder, CollectorSession};
use ldp_reactor::{Events, Interest, Poller, Slab, TimerWheel, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Timer kinds on the per-thread [`TimerWheel`].
const K_IDLE: u32 = 0;
const K_WRITE: u32 = 1;
const K_GRACE: u32 = 2;

/// Per-connection read chunk. Large enough that a busy peer drains in
/// few syscalls, small enough that one connection cannot monopolize a
/// reactor tick.
const READ_CHUNK: usize = 16 * 1024;

/// The longest a reactor thread sleeps in `epoll_wait` — the bound on
/// how late it notices a raised shutdown flag when nothing wakes it.
const POLL_TICK: Duration = Duration::from_millis(100);

/// How long a connection stalled mid-frame may keep the serve loop
/// waiting once shutdown is raised before it is dropped.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How long the acceptor sleeps between polls of a quiet listen socket.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// Longest the acceptor sleeps after a transient accept failure
/// (fd exhaustion). The backoff doubles from [`ACCEPT_TICK`] up to this
/// cap and resets on the next successful accept.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// A reactor thread's inbox: the acceptor posts admitted sockets, the
/// snapshot writers post durable-flush answers, and both wake the epoll
/// so the thread reacts immediately instead of on its next tick.
pub(crate) struct Mailbox {
    streams: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<(u64, Option<CommitDone>)>>,
    waker: Arc<Waker>,
}

impl Mailbox {
    fn post_stream(&self, stream: TcpStream) {
        self.streams.lock().expect("mailbox lock").push(stream);
        self.waker.wake();
    }

    /// Delivers a deferred commit answer for connection `token` (`None`:
    /// the pipeline stopped before answering). Called from `Done`'s
    /// `Drop`, so it must not panic: a poisoned lock still guards a valid
    /// queue (a push either lands whole or not at all).
    pub(crate) fn post_completion(&self, token: u64, reply: Option<CommitDone>) {
        self.completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((token, reply));
        self.waker.wake();
    }
}

/// Why a connection is leaving the slab.
enum Close {
    Completed,
    Shutdown,
    PeerClosed,
    Idle,
    Evicted,
    Failed(CollectorError),
}

/// A connection whose `Action::Reserve` found window `window`'s byte
/// budget exhausted. It is counted on the budget and retried every time
/// its thread wakes (a release wakes the reactors while anyone is parked).
#[derive(Clone, Copy)]
struct Parked {
    window: usize,
    bytes: usize,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    machine: Machine,
    /// The machine's pending action queue (also its scratch buffer —
    /// resolving one action may emit more).
    actions: Vec<Action>,
    /// Bytes read from the socket the machine has not consumed yet.
    pending_in: Vec<u8>,
    /// Bytes queued to the peer, flushed before anything else happens.
    out: Vec<u8>,
    out_pos: usize,
    parked: Option<Parked>,
    /// A sequenced flush is waiting for its snapshot to be durable; the
    /// machine is paused until the writer's answer posts back.
    awaiting: bool,
    eof_seen: bool,
    /// The machine ended; close with this reason once `out` drains.
    closing: Option<Close>,
    write_timer_armed: bool,
    grace_armed: bool,
}

/// What every serve thread shares, borrowed from [`serve_reactor`]'s
/// stack.
struct Shared<'a> {
    options: &'a ServeOptions,
    shutdown: &'a AtomicBool,
    machine_cfg: MachineConfig,
    decoders: Vec<Arc<dyn BatchDecoder>>,
    windows: Vec<Window<'a>>,
    mailboxes: Vec<Arc<Mailbox>>,
    stats: Stats,
    /// Connections admitted and not yet closed — the admission bound.
    open: AtomicUsize,
    /// Set (before the acceptor's last wake) once no more connections
    /// can arrive.
    accepting_done: AtomicBool,
    /// Reactor threads still running; the last one to exit closes every
    /// window's spool so the writers drain and exit.
    live_reactors: AtomicUsize,
    /// The first panic caught inside a commit.
    commit_panic: Mutex<Option<String>>,
    accept_error: Mutex<Option<CollectorError>>,
    reactor_error: Mutex<Option<CollectorError>>,
    writer_error: Mutex<Option<CollectorError>>,
}

impl Shared<'_> {
    fn wake_reactors(&self) {
        for mailbox in &self.mailboxes {
            mailbox.waker.wake();
        }
    }

    /// Returns `bytes` to window `window`'s budget, waking the reactors
    /// if a connection is parked on it.
    fn release(&self, window: usize, bytes: usize) {
        if self.windows[window].budget.release(bytes) {
            self.wake_reactors();
        }
    }

    /// Counts a session that ended badly and records why.
    fn session_error(&self, counter: fn(&mut ServeSummary) -> &mut u64, msg: String) {
        self.stats.update(|s| {
            *counter(s) += 1;
            s.last_session_error = Some(msg);
        });
    }
}

/// One reactor thread's view: the shared state and its own mailbox.
struct Reactor<'a> {
    shared: &'a Shared<'a>,
    mailbox: Arc<Mailbox>,
}

/// Marks one reactor thread's exit, on every path (a panic included): the
/// last reactor out closes every spool, since nothing can publish after
/// it, and the writers drain and exit.
struct ReactorExit<'a>(&'a Shared<'a>);

impl Drop for ReactorExit<'_> {
    fn drop(&mut self) {
        if self.0.live_reactors.fetch_sub(1, Ordering::SeqCst) == 1 {
            for window in &self.0.windows {
                window.spool.close();
            }
        }
    }
}

/// The engine behind [`crate::server::serve_routed`]. Window 0 is the
/// default (the `session`/`policy` arguments); each [`WindowRoute`] adds
/// a named window. Every window runs the same commit step and snapshot
/// writer.
pub(crate) fn serve_reactor(
    listener: &TcpListener,
    session: &mut dyn CollectorSession,
    policy: &SnapshotPolicy,
    options: &ServeOptions,
    routes: &mut [WindowRoute],
) -> Result<ServeSummary, CollectorError> {
    let mut names: Vec<String> = vec!["default".to_string()];
    let mut policies = vec![policy];
    let mut sessions = vec![session];
    for route in routes.iter_mut() {
        if !protocol::valid_session_id(&route.name) {
            return Err(CollectorError::Spec(format!(
                "window name {:?} must be 1-128 ASCII letters, digits, '.', '_', or '-'",
                route.name
            )));
        }
        if names.contains(&route.name) {
            return Err(CollectorError::Spec(format!(
                "window {:?} is declared twice",
                route.name
            )));
        }
        names.push(route.name.clone());
        policies.push(&route.policy);
        sessions.push(route.session.as_mut());
    }
    let machine_cfg = MachineConfig {
        max_frame_bytes: options.max_frame_bytes,
        rate: (options.max_rps_per_conn > 0.0).then_some(options.max_rps_per_conn),
        windows: names.clone(),
    };

    let reactor_threads = if options.reactor_threads > 0 {
        options.reactor_threads
    } else {
        ldp_pool::configured_threads()
    }
    .max(1);
    let mut pollers: Vec<Poller> = Vec::with_capacity(reactor_threads);
    let mut mailboxes: Vec<Arc<Mailbox>> = Vec::with_capacity(reactor_threads);
    for _ in 0..reactor_threads {
        let poller = Poller::new().map_err(|e| CollectorError::Io(format!("epoll: {e}")))?;
        mailboxes.push(Arc::new(Mailbox {
            streams: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(),
        }));
        pollers.push(poller);
    }

    let shared = Shared {
        options,
        shutdown: &options.shutdown,
        machine_cfg,
        decoders: sessions.iter().map(|s| s.batch_decoder()).collect(),
        windows: names
            .into_iter()
            .zip(policies)
            .zip(sessions)
            .map(|((name, policy), session)| {
                Window::new(name, session, policy, options.memory_budget_bytes)
            })
            .collect(),
        mailboxes,
        stats: Stats::default(),
        open: AtomicUsize::new(0),
        accepting_done: AtomicBool::new(false),
        live_reactors: AtomicUsize::new(reactor_threads),
        commit_panic: Mutex::new(None),
        accept_error: Mutex::new(None),
        reactor_error: Mutex::new(None),
        writer_error: Mutex::new(None),
    };
    let faults_before = faults::injected();

    listener
        .set_nonblocking(true)
        .map_err(|e| CollectorError::Io(format!("set_nonblocking: {e}")))?;

    let shared = &shared;
    let scope_result = ldp_pool::service_scope(|scope| {
        // A writer that gives up raises shutdown for the whole serve: a
        // window that can no longer persist should wind the fleet down,
        // not keep acking.
        for window in &shared.windows {
            scope.spawn("snapshot-writer", move || {
                run_writer(window, &shared.stats, &shared.writer_error, shared.shutdown);
            });
        }
        scope.spawn("acceptor", move || run_acceptor(listener, shared));
        for (poller, mailbox) in pollers.into_iter().zip(&shared.mailboxes) {
            let reactor = Reactor {
                shared,
                mailbox: Arc::clone(mailbox),
            };
            scope.spawn("reactor", move || run_reactor(poller, &reactor));
        }
    });

    let _ = listener.set_nonblocking(false);
    // Final durable snapshots for every window, attempted on every exit
    // path (a window poisoned by a panicked commit still holds every
    // acked frame); the first failure is the one reported.
    let mut final_snapshot = Ok(());
    let mut absorbed = Vec::with_capacity(shared.windows.len());
    for window in &shared.windows {
        let session = window
            .session
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let applied = window.policy.apply(&**session, session.count(), true);
        if final_snapshot.is_ok() {
            final_snapshot = applied;
        }
        absorbed.push(session.count() - window.start);
    }
    scope_result.map_err(|e| CollectorError::Io(format!("serve service failure: {e}")))?;
    if let Some(msg) = shared
        .commit_panic
        .lock()
        .expect("commit panic lock")
        .take()
    {
        final_snapshot?;
        // The commit stage keeps the name operators know it by.
        return Err(CollectorError::Panicked(format!("absorber: {msg}")));
    }
    for slot in [
        &shared.accept_error,
        &shared.reactor_error,
        &shared.writer_error,
    ] {
        if let Some(e) = slot.lock().expect("error slot lock").take() {
            return Err(e);
        }
    }
    final_snapshot?;
    let windows = &shared.windows;
    let mut summary = shared.stats.update(std::mem::take);
    summary.reports = absorbed.iter().sum();
    summary.snapshots_superseded = windows.iter().map(|w| w.spool.superseded()).sum();
    summary.peak_queue_bytes = windows
        .iter()
        .map(|w| w.budget.peak() as u64)
        .max()
        .unwrap_or(0);
    summary.faults_injected = faults::injected() - faults_before;
    if windows.len() > 1 {
        summary.window_reports = windows
            .iter()
            .map(|w| w.name.clone())
            .zip(absorbed)
            .collect();
    }
    Ok(summary)
}

/// The acceptor: admission (the open-connection bound, the report quota,
/// `admission`/`accept` faults, fd-exhaustion backoff). Admitted sockets
/// go nonblocking and are dealt round-robin to the reactor mailboxes.
fn run_acceptor(listener: &TcpListener, shared: &Shared<'_>) {
    let options = shared.options;
    let max_connections = options.max_connections.max(1);
    let mut accept_backoff = ACCEPT_TICK;
    let mut next_thread = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if options.connections > 0 && shared.stats.update(|s| s.accepted) >= options.connections {
            break;
        }
        if faults::hit("accept").is_some() {
            shared.stats.update(|s| s.accept_errors += 1);
            std::thread::sleep(accept_backoff);
            accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
            continue;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                accept_backoff = ACCEPT_TICK;
                let quota_met = options.report_quota > 0
                    && shared
                        .windows
                        .iter()
                        .map(|w| w.absorbed.load(Ordering::SeqCst))
                        .sum::<u64>()
                        >= options.report_quota;
                let shed: Option<fn(&mut ServeSummary)> = if quota_met {
                    Some(|s| s.quota_sheds += 1)
                } else if shared.open.load(Ordering::SeqCst) >= max_connections
                    || faults::hit("admission").is_some()
                {
                    Some(|s| s.admission_sheds += 1)
                } else {
                    None
                };
                if let Some(count) = shed {
                    let _ = stream.set_nonblocking(false);
                    shared.stats.update(count);
                    shed_at_accept(stream, options.busy_retry);
                    continue;
                }
                if let Err(e) = stream.set_nonblocking(true) {
                    shared.session_error(|s| &mut s.failed, format!("set_nonblocking: {e}"));
                    continue;
                }
                shared.open.fetch_add(1, Ordering::SeqCst);
                shared.stats.update(|s| s.accepted += 1);
                shared.mailboxes[next_thread].post_stream(stream);
                next_thread = (next_thread + 1) % shared.mailboxes.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_fd_exhaustion(&e) => {
                shared.stats.update(|s| s.accept_errors += 1);
                std::thread::sleep(accept_backoff);
                accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
            }
            Err(e) => {
                *shared.accept_error.lock().expect("accept error lock") =
                    Some(CollectorError::Io(format!("accept: {e}")));
                break;
            }
        }
    }
    shared.accepting_done.store(true, Ordering::SeqCst);
    shared.wake_reactors();
}

/// One reactor thread: wait on epoll, drain the mailbox, pump
/// connections, fire timers, and wind down once accepting is over and
/// the slab is empty.
fn run_reactor(poller: Poller, reactor: &Reactor<'_>) {
    let shared = reactor.shared;
    let _exit = ReactorExit(shared);
    let mut events = Events::with_capacity(256);
    let mut slab: Slab<Conn> = Slab::new();
    let mut timers = TimerWheel::new();
    loop {
        let now = Instant::now();
        let mut timeout = POLL_TICK;
        if let Some(deadline) = timers.next_deadline() {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        if let Err(e) = poller.wait(&mut events, Some(timeout)) {
            shared
                .reactor_error
                .lock()
                .expect("reactor error lock")
                .get_or_insert_with(|| CollectorError::Io(format!("epoll wait: {e}")));
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }

        // Admitted sockets: register, start the machine (which fires the
        // `frame-read` failpoint for the first frame), and pump.
        let new_streams: Vec<TcpStream> =
            std::mem::take(&mut *reactor.mailbox.streams.lock().expect("mailbox lock"));
        for stream in new_streams {
            let machine = Machine::new(shared.machine_cfg.clone(), Instant::now());
            let token = slab.insert(Conn {
                stream,
                machine,
                actions: Vec::new(),
                pending_in: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                parked: None,
                awaiting: false,
                eof_seen: false,
                closing: None,
                write_timer_armed: false,
                grace_armed: false,
            });
            let registered = {
                let conn = slab.get_mut(token).expect("just inserted");
                poller.add(&conn.stream, token, Interest::edge_rw())
            };
            if let Err(e) = registered {
                slab.remove(token);
                shared.open.fetch_sub(1, Ordering::SeqCst);
                reactor
                    .shared
                    .session_error(|s| &mut s.failed, format!("epoll add: {e}"));
                continue;
            }
            if let Some(idle) = shared.options.idle_timeout {
                timers.set(token, K_IDLE, Instant::now() + idle);
            }
            {
                let conn = slab.get_mut(token).expect("just inserted");
                conn.machine.start(&mut conn.actions);
                if let Some(close) = apply_actions(conn, token, reactor) {
                    conn.closing = Some(close);
                }
            }
            pump(token, &mut slab, &mut timers, &poller, reactor);
        }

        // Durable-flush answers from the snapshot writers. The slab's
        // generation check discards answers for connections that died
        // while they waited.
        let completions: Vec<(u64, Option<CommitDone>)> =
            std::mem::take(&mut *reactor.mailbox.completions.lock().expect("mailbox lock"));
        for (token, reply) in completions {
            let found = {
                let Some(conn) = slab.get_mut(token) else {
                    continue;
                };
                conn.awaiting = false;
                match reply {
                    Some(done) => conn.machine.commit_done(done, &mut conn.actions),
                    None => conn.machine.absorber_gone(&mut conn.actions),
                }
                if let Some(close) = apply_actions(conn, token, reactor) {
                    conn.closing = Some(close);
                }
                true
            };
            if found {
                pump(token, &mut slab, &mut timers, &poller, reactor);
            }
        }

        // Socket readiness.
        for event in ldp_reactor::ready_events(&events) {
            pump(event.token, &mut slab, &mut timers, &poller, reactor);
        }

        // Budget retries: a release wakes every reactor while anyone is
        // parked on its budget.
        for token in slab.tokens() {
            let is_parked = slab.get(token).is_some_and(|c| c.parked.is_some());
            if is_parked {
                pump(token, &mut slab, &mut timers, &poller, reactor);
            }
        }

        // Deadlines.
        let now = Instant::now();
        while let Some((token, kind)) = timers.pop_due(now) {
            enum Verdict {
                Nothing,
                Close(Close),
                Rearm(Duration),
            }
            let verdict = {
                let Some(conn) = slab.get_mut(token) else {
                    continue;
                };
                match kind {
                    K_IDLE => {
                        let idle_now = conn.machine.at_boundary()
                            && !conn.awaiting
                            && conn.parked.is_none()
                            && conn.closing.is_none()
                            && conn.pending_in.is_empty()
                            && conn.out_pos >= conn.out.len();
                        if idle_now {
                            Verdict::Close(Close::Idle)
                        } else if let Some(idle) = shared.options.idle_timeout {
                            // Mid-frame or mid-commit stalls are
                            // backpressure, not idleness.
                            Verdict::Rearm(idle)
                        } else {
                            Verdict::Nothing
                        }
                    }
                    K_WRITE => {
                        conn.write_timer_armed = false;
                        if conn.out_pos < conn.out.len() {
                            // A slow consumer: the committed state
                            // stands; only the ack is lost. A session
                            // that already failed keeps its own reason.
                            match conn.closing.take() {
                                Some(close @ Close::Failed(_))
                                | Some(close @ Close::PeerClosed) => Verdict::Close(close),
                                _ => Verdict::Close(Close::Evicted),
                            }
                        } else {
                            Verdict::Nothing
                        }
                    }
                    K_GRACE => {
                        conn.grace_armed = false;
                        if conn.closing.is_none() && conn.machine.mid_frame() {
                            Verdict::Close(Close::Failed(CollectorError::Protocol(
                                "peer stalled mid-frame during shutdown".into(),
                            )))
                        } else if shared.shutdown.load(Ordering::SeqCst) && !conn.machine.is_ended()
                        {
                            conn.grace_armed = true;
                            Verdict::Rearm(SHUTDOWN_GRACE)
                        } else {
                            Verdict::Nothing
                        }
                    }
                    _ => Verdict::Nothing,
                }
            };
            match verdict {
                Verdict::Nothing => {}
                Verdict::Close(close) => {
                    close_conn(token, close, &mut slab, &mut timers, &poller, reactor);
                }
                Verdict::Rearm(after) => timers.set(token, kind, now + after),
            }
        }

        // Shutdown: close every between-frames connection now, give the
        // mid-frame ones a bounded grace to finish their frame.
        if shared.shutdown.load(Ordering::SeqCst) {
            for token in slab.tokens() {
                pump(token, &mut slab, &mut timers, &poller, reactor);
                if let Some(conn) = slab.get_mut(token) {
                    if !conn.grace_armed {
                        conn.grace_armed = true;
                        timers.set(token, K_GRACE, Instant::now() + SHUTDOWN_GRACE);
                    }
                }
            }
        }

        // Done when no more connections can arrive and none are left.
        // (`accepting_done` is set before the acceptor's last wake, so
        // reading it first makes the mailbox check authoritative.)
        if shared.accepting_done.load(Ordering::SeqCst)
            && slab.is_empty()
            && reactor
                .mailbox
                .streams
                .lock()
                .expect("mailbox lock")
                .is_empty()
            && reactor
                .mailbox
                .completions
                .lock()
                .expect("mailbox lock")
                .is_empty()
        {
            return;
        }
    }
}

/// Drives one connection as far as it can go right now, closing it if
/// its session ended.
fn pump(
    token: u64,
    slab: &mut Slab<Conn>,
    timers: &mut TimerWheel,
    poller: &Poller,
    reactor: &Reactor<'_>,
) {
    let close = {
        let Some(conn) = slab.get_mut(token) else {
            return;
        };
        drive(conn, token, timers, reactor)
    };
    if let Some(close) = close {
        close_conn(token, close, slab, timers, poller, reactor);
    }
}

/// The per-connection state machine driver: flush output, resolve
/// backpressure, feed buffered bytes to the machine, read more, handle
/// EOF — until the connection blocks, pauses on a commit, or ends.
fn drive(
    conn: &mut Conn,
    token: u64,
    timers: &mut TimerWheel,
    reactor: &Reactor<'_>,
) -> Option<Close> {
    let shared = reactor.shared;
    loop {
        let now = Instant::now();
        // Output first: acks precede further reads.
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    return Some(Close::Failed(CollectorError::Io(
                        "writing ack: connection closed".into(),
                    )))
                }
                Ok(n) => {
                    conn.out_pos += n;
                    // Progress resets the slow-consumer clock.
                    if conn.write_timer_armed {
                        timers.clear(token, K_WRITE);
                        conn.write_timer_armed = false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Some(deadline) = shared.options.ack_deadline {
                        if !conn.write_timer_armed {
                            timers.set(token, K_WRITE, now + deadline);
                            conn.write_timer_armed = true;
                        }
                    }
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    return Some(Close::Failed(CollectorError::Io(format!(
                        "writing ack: {e}"
                    ))))
                }
            }
        }
        if conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.write_timer_armed {
                timers.clear(token, K_WRITE);
                conn.write_timer_armed = false;
            }
        }

        // An ended session leaves once its last bytes are out.
        if let Some(close) = conn.closing.take() {
            return Some(close);
        }

        // Shutdown is honored between frames.
        if shared.shutdown.load(Ordering::SeqCst)
            && conn.machine.at_boundary()
            && !conn.awaiting
            && conn.parked.is_none()
        {
            return Some(Close::Shutdown);
        }

        // Parked on the byte budget: retry now, stay parked on no
        // progress.
        if let Some(Parked { window, bytes }) = conn.parked {
            charge_budget(conn, window, bytes, reactor);
            if conn.parked.is_some() {
                return None;
            }
            if let Some(close) = apply_actions(conn, token, reactor) {
                conn.closing = Some(close);
            }
            continue;
        }

        // Feed what we have buffered.
        if !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
            && !conn.pending_in.is_empty()
        {
            let decoder = Arc::clone(&shared.decoders[conn.machine.window()]);
            let consumed =
                conn.machine
                    .on_bytes(&conn.pending_in, now, decoder.as_ref(), &mut conn.actions);
            conn.pending_in.drain(..consumed);
            let had_actions = !conn.actions.is_empty();
            if let Some(close) = apply_actions(conn, token, reactor) {
                conn.closing = Some(close);
                continue;
            }
            if consumed > 0 || had_actions {
                continue;
            }
        }

        // Read until the socket would block (edge-triggered: we must
        // drain it whenever we are able to consume).
        if !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
            && !conn.eof_seen
            && conn.pending_in.is_empty()
        {
            let mut buf = [0u8; READ_CHUNK];
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.eof_seen = true,
                Ok(n) => {
                    conn.pending_in.extend_from_slice(&buf[..n]);
                    if let Some(idle) = shared.options.idle_timeout {
                        timers.set(token, K_IDLE, now + idle);
                    }
                    if conn.grace_armed {
                        timers.set(token, K_GRACE, now + SHUTDOWN_GRACE);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Some(Close::Failed(CollectorError::Io(format!(
                        "reading frame: {e}"
                    ))))
                }
            }
        }

        // EOF is delivered only once everything read has been consumed
        // and nothing is pending, so the machine sees it in stream order.
        if conn.eof_seen
            && conn.pending_in.is_empty()
            && !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
        {
            conn.machine.on_eof(&mut conn.actions);
            if let Some(close) = apply_actions(conn, token, reactor) {
                conn.closing = Some(close);
                continue;
            }
        }

        return None;
    }
}

/// Resolves the machine's queued actions. Returns the close reason if
/// the session ended. Resolving one action (a granted budget, an applied
/// commit) may make the machine emit more — the outer loop drains until
/// quiescent.
fn apply_actions(conn: &mut Conn, token: u64, reactor: &Reactor<'_>) -> Option<Close> {
    let mut close = None;
    while !conn.actions.is_empty() {
        for action in std::mem::take(&mut conn.actions) {
            match action {
                Action::Send(bytes) => conn.out.extend_from_slice(&bytes),
                Action::Reserve { window, bytes } => charge_budget(conn, window, bytes, reactor),
                Action::Release { window, bytes } => reactor.shared.release(window, bytes),
                Action::Commit(request) => commit(conn, token, request, reactor),
                Action::RateShed => reactor.shared.stats.update(|s| s.rate_sheds += 1),
                Action::Oversized => reactor.shared.stats.update(|s| s.oversized_frames += 1),
                Action::End(end) => {
                    close = Some(match end {
                        MachineEnd::Completed => Close::Completed,
                        MachineEnd::Evicted => Close::Evicted,
                        MachineEnd::PeerClosed => Close::PeerClosed,
                        MachineEnd::Failed(e) => Close::Failed(e),
                    });
                }
            }
        }
    }
    close
}

/// Charges `bytes` of a frame body against window `window`'s budget.
/// A refused charge parks the connection: it is counted on the budget
/// and then re-checked, so a release that raced the refusal is never
/// missed; a parked connection retries here whenever its thread wakes.
/// A window whose commit panicked fails the session through the machine.
fn charge_budget(conn: &mut Conn, window: usize, bytes: usize, reactor: &Reactor<'_>) {
    let target = &reactor.shared.windows[window];
    let was_parked = conn.parked.take().is_some();
    if target.session.is_poisoned() {
        if was_parked {
            target.budget.unpark();
        }
        conn.machine.absorber_gone(&mut conn.actions);
        return;
    }
    if !was_parked {
        if target.budget.try_charge(bytes) {
            conn.machine.budget_granted();
            return;
        }
        target.budget.park();
    }
    if target.budget.try_charge(bytes) {
        target.budget.unpark();
        conn.machine.budget_granted();
    } else {
        conn.parked = Some(Parked { window, bytes });
    }
}

/// Applies one commit on this thread: lock the window's session, run the
/// commit step, release the batch's byte charge, and feed the outcome
/// straight back into the machine (its ack lands in `conn.actions`). A
/// sequenced flush instead pauses the connection until the snapshot
/// writer answers through the mailbox.
///
/// A panic inside the commit is caught here: it is recorded, shutdown is
/// raised, and the session's lock stays poisoned, so this and every later
/// commit on the window fail the connection as a stopped pipeline.
fn commit(conn: &mut Conn, token: u64, request: CommitRequest, reactor: &Reactor<'_>) {
    let shared = reactor.shared;
    let (window, weight) = match &request {
        CommitRequest::Hello { window, .. } | CommitRequest::Flush { window, .. } => (*window, 0),
        CommitRequest::Batch { window, weight, .. } => (*window, *weight),
    };
    let target = &shared.windows[window];
    let applied = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut session = target.session.lock().ok()?;
        Some(absorb_commit(
            &mut **session,
            target,
            &shared.stats,
            request,
        ))
    }))
    .unwrap_or_else(|panic| {
        shared
            .commit_panic
            .lock()
            .expect("commit panic lock")
            .get_or_insert_with(|| panic_message(panic.as_ref()));
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.wake_reactors();
        None
    });
    if weight > 0 {
        shared.release(window, weight);
    }
    match applied {
        Some(Applied::Now(done)) => conn.machine.commit_done(done, &mut conn.actions),
        Some(Applied::Durable { generation, count }) => {
            conn.awaiting = true;
            let done = Done::new(Arc::clone(&reactor.mailbox), token);
            flush_when_written(target, generation, count, done);
        }
        None => conn.machine.absorber_gone(&mut conn.actions),
    }
}

/// Removes a connection: timers cleared, charges released, the last
/// bytes flushed best-effort (a `-` on a failed session is
/// fire-and-forget), counters updated, the admission slot freed.
fn close_conn(
    token: u64,
    close: Close,
    slab: &mut Slab<Conn>,
    timers: &mut TimerWheel,
    poller: &Poller,
    reactor: &Reactor<'_>,
) {
    let Some(mut conn) = slab.remove(token) else {
        return;
    };
    timers.clear(token, K_IDLE);
    timers.clear(token, K_WRITE);
    timers.clear(token, K_GRACE);
    let _ = poller.delete(&conn.stream);
    let shared = reactor.shared;
    if let Some((window, bytes)) = conn.machine.take_charge() {
        shared.release(window, bytes);
    }
    if let Some(parked) = conn.parked.take() {
        shared.windows[parked.window].budget.unpark();
    }
    if conn.out_pos < conn.out.len() {
        let _ = conn.stream.write(&conn.out[conn.out_pos..]);
    }
    match close {
        Close::Completed => shared.stats.update(|s| s.completed += 1),
        Close::Shutdown => {}
        Close::PeerClosed => shared.session_error(
            |s| &mut s.failed,
            "peer closed without an end-of-stream frame".into(),
        ),
        Close::Idle => shared.session_error(
            |s| &mut s.idle_disconnects,
            "peer idled past --idle-timeout between frames".into(),
        ),
        Close::Evicted => shared.session_error(
            |s| &mut s.evictions,
            "slow consumer evicted past --ack-deadline (committed state stands)".into(),
        ),
        Close::Failed(e) => shared.session_error(|s| &mut s.failed, e.to_string()),
    }
    shared.open.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::build_session;

    fn mailbox() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            streams: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: Arc::new(Waker::new().unwrap()),
        })
    }

    fn flush_answers(mailbox: &Mailbox) -> Vec<(u64, Result<u64, String>)> {
        std::mem::take(&mut *mailbox.completions.lock().unwrap())
            .into_iter()
            .map(|(token, reply)| match reply {
                Some(CommitDone::Flush(result)) => (token, result.map_err(|e| e.to_string())),
                _ => panic!("expected a flush answer"),
            })
            .collect()
    }

    #[test]
    fn a_deferred_flush_is_answered_through_the_mailbox_once_durable() {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let policy = SnapshotPolicy::default();
        let window = Window::new("default".into(), session.as_mut(), &policy, 0);
        let mailbox = mailbox();
        let generation = window.spool.publish("snapshot".into());
        flush_when_written(&window, generation, 5, Done::new(Arc::clone(&mailbox), 7));
        assert!(flush_answers(&mailbox).is_empty(), "not durable yet");
        window.spool.mark_written(generation);
        assert_eq!(flush_answers(&mailbox), vec![(7, Ok(5))]);
    }

    #[test]
    fn a_deferred_flush_fails_when_the_writer_dies_first() {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let policy = SnapshotPolicy::default();
        let window = Window::new("default".into(), session.as_mut(), &policy, 0);
        let mailbox = mailbox();
        let generation = window.spool.publish("snapshot".into());
        flush_when_written(&window, generation, 5, Done::new(Arc::clone(&mailbox), 7));
        window.spool.poison();
        let answers = flush_answers(&mailbox);
        assert_eq!(answers.len(), 1);
        let (token, result) = &answers[0];
        assert_eq!(*token, 7);
        let msg = result.as_ref().unwrap_err();
        assert!(msg.contains("could not be persisted"), "{msg}");
    }
}
