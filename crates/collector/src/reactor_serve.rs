//! The serve engine: N epoll reactor threads multiplexing every
//! admitted connection through the resumable protocol machine
//! ([`crate::machine`]) into per-window absorber/snapshot pipelines —
//! plus the multi-window session router ([`crate::server::serve_routed`]).
//!
//! # Shape
//!
//! ```text
//!             ┌ reactor thread 0 ── epoll ── conns… ┐
//!  acceptor ──┤ reactor thread 1 ── epoll ── conns… ├─┬─ "default" absorber ── spool ── writer
//!  (admission,│ …                                   │ ├─ "hourly"  absorber ── spool ── writer
//!   quota,    └ reactor thread N ── epoll ── conns… ┘ └─ "coarse"  absorber ── spool ── writer
//!   backoff)
//! ```
//!
//! The acceptor admits (open-connection bound, quota sheds,
//! `admission`/`accept` failpoints, EMFILE backoff) and deals admitted sockets round-robin to
//! the reactor threads' mailboxes. Each reactor thread owns an epoll
//! instance, a [`Slab`] of connections, and a [`TimerWheel`] for
//! idle/ack-deadline/shutdown deadlines; each connection owns a
//! [`Machine`] that turns bytes into [`Action`]s. Commits cross to the
//! per-window absorber over a byte-budgeted queue — nonblockingly
//! (`try_reserve` / `try_push_reserved`), with the connection **parked**
//! when the queue pushes back and retried when the absorber signals
//! progress. The absorber answers through a [`Done`] handle that posts
//! to the owning reactor's mailbox and wakes its epoll. Every window —
//! the default one is window 0 — runs the same absorber and writer.

use crate::error::CollectorError;
use crate::faults;
use crate::machine::{Action, CommitDone, CommitRequest, Machine, MachineConfig, MachineEnd};
use crate::protocol;
use crate::server::{
    absorb_commit, is_fd_exhaustion, panic_message, run_writer, shed_at_accept, Commit, Done,
    ServeOptions, ServeSummary, SnapshotPolicy, Stats, Window, WindowRoute,
};
use crate::session::{BatchDecoder, CollectorSession};
use ldp_pool::chan::{bounded_weighted, Receiver, Sender};
use ldp_reactor::{Events, Interest, Poller, Slab, TimerWheel, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
/// how late it notices a raised shutdown flag or retries a parked
/// connection when nothing wakes it.
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
/// absorbers post commit completions, and both wake the epoll so the
/// thread reacts immediately instead of on its next tick.
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

    /// Delivers the absorber's answer for connection `token` (`None`:
    /// the absorber stopped before answering). Called from `Done`'s
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

/// A connection paused on pipeline backpressure, retried every time the
/// thread wakes (the absorbers wake all reactors on progress).
enum Parked {
    /// `Action::Reserve` found the byte budget exhausted.
    Budget { window: usize, bytes: usize },
    /// A commit found its queue's count slots full. `weight > 0` means
    /// the value carries a byte reservation (a batch); the reservation
    /// stays with us until the push lands or the connection dies.
    Push {
        window: usize,
        commit: Commit,
        weight: usize,
    },
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
    /// A commit is in flight; the machine is paused until its
    /// completion posts back.
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
    absorber_panic: Mutex<Option<String>>,
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

    /// Counts a session that ended badly and records why.
    fn session_error(&self, counter: fn(&mut ServeSummary) -> &mut u64, msg: String) {
        self.stats.update(|s| {
            *counter(s) += 1;
            s.last_session_error = Some(msg);
        });
    }
}

/// One reactor thread's view: the shared state, its own mailbox, and its
/// own senders into the windows' commit queues. The senders go when the
/// thread exits, so the absorbers drain out once every reactor is gone.
struct Reactor<'a> {
    shared: &'a Shared<'a>,
    mailbox: Arc<Mailbox>,
    commit_txs: Vec<Sender<Commit>>,
}

/// The engine behind [`crate::server::serve_routed`]. Window 0 is the
/// default (the `session`/`policy` arguments); each [`WindowRoute`] adds
/// a named window. Every window runs the same absorber and snapshot
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
            .zip(&sessions)
            .map(|((name, policy), s)| Window::new(name, policy, s.count()))
            .collect(),
        mailboxes,
        stats: Stats::default(),
        open: AtomicUsize::new(0),
        accepting_done: AtomicBool::new(false),
        absorber_panic: Mutex::new(None),
        accept_error: Mutex::new(None),
        reactor_error: Mutex::new(None),
        writer_error: Mutex::new(None),
    };
    let (commit_txs, commit_rxs): (Vec<Sender<Commit>>, Vec<Receiver<Commit>>) = sessions
        .iter()
        .map(|_| bounded_weighted(options.queue_depth.max(1), options.memory_budget_bytes))
        .unzip();
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
                commit_txs: commit_txs.clone(),
            };
            scope.spawn("reactor", move || run_reactor(poller, &reactor));
        }
        // The originals go now: once every reactor thread exits, the
        // queues disconnect and the absorbers drain out.
        drop(commit_txs);
        for ((session, window), rx) in sessions.iter_mut().zip(&shared.windows).zip(commit_rxs) {
            scope.spawn("absorber", move || {
                run_absorber(&mut **session, window, rx, shared)
            });
        }
    });

    let _ = listener.set_nonblocking(false);
    // Final durable snapshots for every window, attempted on every exit
    // path; the first failure is the one reported.
    let mut final_snapshot = Ok(());
    for (window, session) in shared.windows.iter().zip(&sessions) {
        let applied = window.policy.apply(&**session, session.count(), true);
        if final_snapshot.is_ok() {
            final_snapshot = applied;
        }
    }
    scope_result.map_err(|e| CollectorError::Io(format!("serve service failure: {e}")))?;
    if let Some(msg) = shared
        .absorber_panic
        .lock()
        .expect("absorber panic lock")
        .take()
    {
        final_snapshot?;
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
    let absorbed: Vec<u64> = windows
        .iter()
        .zip(&sessions)
        .map(|(window, session)| session.count() - window.start)
        .collect();
    let mut summary = shared.stats.update(std::mem::take);
    summary.reports = absorbed.iter().sum();
    summary.snapshots_superseded = windows.iter().map(|w| w.spool.superseded()).sum();
    summary.peak_queue_bytes = windows
        .iter()
        .map(|w| w.peak_bytes.load(Ordering::SeqCst))
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

/// One window's absorber: applies commits in queue order until every
/// reactor has dropped its sender, waking the reactors after each so
/// parked connections retry. A panic is contained — the first one is
/// recorded, shutdown raised, and the reactors woken so parked
/// connections fail fast. Either way the queue's peak is recorded, its
/// undelivered commits dropped (failing their connections), and the
/// spool closed so the writer drains and exits.
fn run_absorber(
    session: &mut dyn CollectorSession,
    window: &Window<'_>,
    rx: Receiver<Commit>,
    shared: &Shared<'_>,
) {
    let absorb = AssertUnwindSafe(|| {
        while let Some(commit) = rx.pop() {
            absorb_commit(session, window, &shared.stats, commit);
            shared.wake_reactors();
        }
    });
    if let Err(panic) = std::panic::catch_unwind(absorb) {
        shared
            .absorber_panic
            .lock()
            .expect("absorber panic lock")
            .get_or_insert_with(|| panic_message(panic.as_ref()));
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.wake_reactors();
    }
    window
        .peak_bytes
        .store(rx.peak_bytes() as u64, Ordering::SeqCst);
    drop(rx);
    window.spool.close();
}

/// One reactor thread: wait on epoll, drain the mailbox, pump
/// connections, fire timers, and wind down once accepting is over and
/// the slab is empty.
fn run_reactor(poller: Poller, reactor: &Reactor<'_>) {
    let shared = reactor.shared;
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

        // Commit completions from the absorbers. The slab's generation
        // check discards completions for connections that died while
        // their commit was in flight.
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

        // Backpressure retries: the absorbers wake every reactor on
        // progress, and the tick bounds the wait otherwise.
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

        // Parked backpressure: retry now, stay parked on no progress.
        if let Some(parked) = conn.parked.take() {
            match parked {
                Parked::Budget { window, bytes } => charge_budget(conn, window, bytes, reactor),
                Parked::Push {
                    window,
                    commit,
                    weight,
                } => enqueue(conn, window, commit, weight, reactor),
            }
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
/// the session ended. Resolving one action (a granted budget, a gone
/// absorber) may make the machine emit more — the outer loop drains
/// until quiescent.
fn apply_actions(conn: &mut Conn, token: u64, reactor: &Reactor<'_>) -> Option<Close> {
    let mut close = None;
    while !conn.actions.is_empty() {
        for action in std::mem::take(&mut conn.actions) {
            match action {
                Action::Send(bytes) => conn.out.extend_from_slice(&bytes),
                Action::Reserve { window, bytes } => charge_budget(conn, window, bytes, reactor),
                Action::Release { window, bytes } => reactor.commit_txs[window].unreserve(bytes),
                Action::Commit(request) => {
                    conn.awaiting = true;
                    let done = Done::new(Arc::clone(&reactor.mailbox), token);
                    let (window, commit, weight) = match request {
                        CommitRequest::Hello { window, session } => {
                            (window, Commit::Hello { session, done }, 0)
                        }
                        CommitRequest::Batch {
                            window,
                            batch,
                            seq,
                            weight,
                        } => (window, Commit::Batch { batch, seq, done }, weight),
                        CommitRequest::Flush { window, sequenced } => {
                            (window, Commit::Flush { sequenced, done }, 0)
                        }
                    };
                    enqueue(conn, window, commit, weight, reactor);
                }
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

/// Charges `bytes` of a frame body against window `window`'s budget,
/// parking the connection while the budget is exhausted. A gone absorber
/// fails the session through the machine.
fn charge_budget(conn: &mut Conn, window: usize, bytes: usize, reactor: &Reactor<'_>) {
    match reactor.commit_txs[window].try_reserve(bytes) {
        Ok(true) => conn.machine.budget_granted(),
        Ok(false) => conn.parked = Some(Parked::Budget { window, bytes }),
        Err(_) => conn.machine.absorber_gone(&mut conn.actions),
    }
}

/// Queues `commit` for window `window`'s absorber, parking the connection
/// while the queue is full. A batch (`weight > 0`) rides on the bytes its
/// body reserved, and a full queue leaves that reservation with us; a
/// hello or flush is admitted at weight 0. If the absorber is gone the
/// commit is dropped, and its `Done` posts the `None` completion that
/// fails the connection through the normal path.
fn enqueue(conn: &mut Conn, window: usize, commit: Commit, weight: usize, reactor: &Reactor<'_>) {
    let tx = &reactor.commit_txs[window];
    let result = if weight > 0 {
        tx.try_push_reserved(commit, weight)
    } else {
        tx.try_push(commit)
    };
    if let Err(e) = result {
        if e.full {
            conn.parked = Some(Parked::Push {
                window,
                commit: e.value,
                weight,
            });
        }
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
    if let Some((window, bytes)) = conn.machine.take_charge() {
        reactor.commit_txs[window].unreserve(bytes);
    }
    if let Some(Parked::Push {
        window,
        commit,
        weight,
    }) = conn.parked.take()
    {
        // The commit's `Done` posts a completion for a token the slab
        // no longer knows — discarded by the generation check.
        drop(commit);
        if weight > 0 {
            reactor.commit_txs[window].unreserve(weight);
        }
    }
    if conn.out_pos < conn.out.len() {
        let _ = conn.stream.write(&conn.out[conn.out_pos..]);
    }
    let shared = reactor.shared;
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
