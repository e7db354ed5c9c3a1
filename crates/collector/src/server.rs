//! The length-delimited socket ingestion service.
//!
//! The wire between a report forwarder and the collector is deliberately
//! minimal — one TCP connection carrying framed batches of wire-report
//! lines:
//!
//! ```text
//! frame     = length payload
//! length    = u32, big endian, number of payload bytes
//! payload   = UTF-8 text, newline-separated WireReport lines
//! ```
//!
//! A frame with `length = 0` ends the stream. After every frame the
//! collector answers one status byte: `+` (batch absorbed, snapshot
//! policy applied) or `-` (batch rejected — the connection closes and
//! **none** of the frame's reports were absorbed, so the forwarder can
//! retry or quarantine the batch without double-count risk). The
//! normative spec lives in `docs/WIRE_FORMAT.md`; retry semantics are
//! discussed in `docs/OPERATIONS.md`.
//!
//! # Sequenced sessions (exactly-once)
//!
//! A session that opens with a hello frame (`crate::protocol`) upgrades
//! itself from at-least-once to exactly-once: every data frame carries a
//! sequence number, the window keeps a per-session dedup cursor that is
//! snapshotted *with* the state it vouches for, and a replayed frame —
//! after a reconnect or a collector restart — acks `+` idempotently
//! instead of double-counting. Bare sessions keep the original semantics
//! untouched. The end-of-stream frame of a sequenced session is acked
//! only after the final snapshot is durable, so a client that saw the
//! closing `+` can retire its replay buffer for good.
//!
//! # Fault injection
//!
//! The seams of this pipeline carry named failpoints (`crate::faults`):
//! `frame-read`, `decode`, `commit-push`, `ack-write`, and `ack-evict` in
//! the protocol machine ([`crate::machine`]), `absorb` in the commit step,
//! `accept` and `admission` in the acceptor, plus
//! `snap-write`/`snap-rename` in `crate::io`. They are inert unless a
//! schedule is armed (`LDP_FAULTS`); the chaos suite drives them to prove
//! the exactly-once claim under crash, torn-write, and disconnect
//! schedules.
//!
//! # The serve path
//!
//! [`serve`] runs many framed sessions at once without giving up any of
//! the single-session guarantees, by splitting the work into three
//! stages (diagrammed in `docs/ARCHITECTURE.md`):
//!
//! 1. **decode** — a few epoll reactor threads multiplex every admitted
//!    connection; each connection's [`crate::machine::Machine`] frames
//!    the bytes that arrive and runs the window's
//!    [`crate::session::BatchDecoder`]: parse, validate, and pre-absorb
//!    into a private shard state. Malformed frames are rejected *here*
//!    (`-` ack) and never reach the shared window.
//! 2. **commit** — the same reactor thread then locks the window's
//!    session (one mutex per window) and merges the prepared batch in;
//!    state merges stay serialized, so the final window is bit-identical
//!    to a single-connection ingest of the concatenated frames. The `+`
//!    ack is queued in the same pass, right after the commit. A frame is
//!    read, decoded, merged and acked without leaving its thread.
//! 3. **snapshot** — on each cadence crossing the commit *publishes*
//!    the rendered snapshot to a latest-wins
//!    [`ldp_core::snapshot::SnapshotSpool`]; a dedicated
//!    writer thread does the fsync-and-rename (with `--keep N`
//!    rotation) off the hot path, so snapshot writes never stall acks.
//!    A sequenced end-of-stream ack waits for durability without
//!    blocking anyone: the writer answers it through the reactor's
//!    mailbox once the generation is on disk.
//!
//! The engine (acceptor, reactor threads, and one snapshot writer per
//! window) lives in the private `reactor_serve` module. This module holds
//! the public surface and the per-window stage bodies the engine runs
//! for every window alike: the commit step (`absorb_commit`), the
//! snapshot writer (`run_writer`), the serve counters (`Stats`), and the
//! admission helpers.
//!
//! # Overload safety
//!
//! A collector sized for millions of users must **shed** load it cannot
//! absorb, not queue it until memory or latency explodes. Four defenses
//! stack on the pipeline, each answering `!busy <retry-ms>`
//! ([`protocol::encode_busy`]) — the transient verdict distinct from the
//! permanent `-` reject, always sent *before* anything was absorbed so a
//! retry is safe for bare and sequenced sessions alike:
//!
//! - **admission control** — a connection beyond
//!   [`ServeOptions::max_connections`], or arriving after
//!   [`ServeOptions::report_quota`] filled the window, is answered busy
//!   and closed at accept instead of waiting invisibly in the backlog;
//! - **rate limiting** — each connection charges its frames (by report
//!   count) against a [`crate::limit::TokenBucket`] capped at
//!   [`ServeOptions::max_rps_per_conn`]; an over-rate frame is shed
//!   mid-stream (the connection stays open, the client re-sends);
//! - **byte budgets** — [`ServeOptions::max_frame_bytes`] rejects
//!   oversized length headers before allocating, and
//!   [`ServeOptions::memory_budget_bytes`] caps each window's in-flight
//!   frame bodies (charged before allocation, released once committed);
//!   a connection over budget parks until a charge is released;
//! - **eviction** — a peer that stops draining acks past
//!   [`ServeOptions::ack_deadline`] is disconnected, freeing its slot.
//!
//! A **supervisor** completes the story: the snapshot writer restarts
//! itself after a panic (bounded retries), and a panic inside a commit
//! quiesces the loop, attempts a final durable snapshot, and surfaces
//! [`CollectorError::Panicked`] — the serve path fails loudly, never as a
//! silent wedge.

use crate::error::CollectorError;
use crate::faults;
use crate::io::write_snapshot_rotating;
use crate::limit::ByteBudget;
use crate::machine::{CommitDone, CommitRequest};
use crate::protocol;
use crate::reactor_serve::Mailbox;
use crate::session::CollectorSession;
use ldp_core::snapshot::SnapshotSpool;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Default cap on a single frame's payload ([`ServeOptions::max_frame_bytes`]):
/// refuse absurd frames instead of attempting a pathological allocation
/// (a 64 MiB frame at ~20 bytes/report is ≈3M reports, far beyond any
/// sane batch).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// How many consecutive panics the snapshot-writer supervisor tolerates
/// before declaring the stage dead and winding the serve loop down.
const MAX_WRITER_RESTARTS: u64 = 3;

/// When (and where) the ingestion loop persists the window.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPolicy {
    /// Snapshot file path; `None` disables persistence.
    pub path: Option<PathBuf>,
    /// Snapshot after every `every` absorbed reports (0 = only at
    /// end-of-stream).
    pub every: u64,
    /// Rotated previous generations to keep (`<path>.1` newest; 0 = no
    /// rotation).
    pub keep: u64,
}

impl SnapshotPolicy {
    /// Whether a batch that moved the count from `before` to `after`
    /// crossed a cadence boundary — the one cadence rule, shared by the
    /// serve commit step and the `ingest` subcommand.
    #[must_use]
    pub fn due(&self, before: u64, after: u64) -> bool {
        self.path.is_some() && self.every > 0 && after / self.every > before / self.every
    }

    /// Persists rendered snapshot text under the policy's path and
    /// rotation setting. No-op without a path.
    pub fn persist(&self, text: &str) -> Result<(), CollectorError> {
        match &self.path {
            Some(path) => write_snapshot_rotating(path, text, self.keep),
            None => Ok(()),
        }
    }

    /// Applies the policy after a batch: persists when the absorbed count
    /// crossed an `every` boundary (or unconditionally at `force`).
    /// `before` is the session's count when the batch started.
    pub fn apply(
        &self,
        session: &dyn CollectorSession,
        before: u64,
        force: bool,
    ) -> Result<(), CollectorError> {
        if self.path.is_some() && (force || self.due(before, session.count())) {
            self.persist(&session.snapshot_text())?;
        }
        Ok(())
    }
}

/// Writes one frame (length prefix + payload) to `stream`.
pub fn write_frame(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(payload.as_bytes())
}

/// Tuning for the [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent connection cap. A connection arriving while every slot
    /// is taken is **shed at accept** with `!busy <retry-ms>` and closed —
    /// explicit backpressure the client can act on, instead of invisible
    /// minutes in the TCP backlog. Nothing of a shed connection is ever
    /// absorbed, so retrying is always safe.
    pub max_connections: usize,
    /// Total sessions to accept before returning (0 = keep serving until
    /// [`ServeOptions::shutdown`] is raised).
    pub connections: u64,
    /// Cooperative shutdown flag: raise it (from a signal watcher, a
    /// shutdown file, a test) and the loop stops accepting, lets in-flight
    /// frames commit, closes every open connection at its next frame
    /// boundary, and returns with a final snapshot written.
    pub shutdown: Arc<AtomicBool>,
    /// Disconnect a peer that sends nothing for this long between frames
    /// (`None` = wait forever). A stalled peer otherwise holds one of the
    /// `max_connections` permits indefinitely and can wedge the fleet;
    /// with a timeout it is dropped and counted in
    /// [`ServeSummary::idle_disconnects`]. Mid-frame stalls are not
    /// affected (a slow frame is backpressure, not idleness).
    pub idle_timeout: Option<Duration>,
    /// Largest accepted frame payload in bytes. An oversized length
    /// header is rejected (`-` ack) **before** its allocation and counted
    /// in [`ServeSummary::oversized_frames`].
    pub max_frame_bytes: u32,
    /// Per-connection rate cap in reports per second (`0.0` = unlimited).
    /// Each connection owns a [`crate::limit::TokenBucket`] with
    /// `burst = rate`; an over-rate frame is shed with `!busy` (nothing
    /// absorbed, connection stays open) and counted in
    /// [`ServeSummary::rate_sheds`].
    pub max_rps_per_conn: f64,
    /// Byte budget per window for in-flight frame bodies (`0` =
    /// unbounded): each body is charged before its buffer is allocated
    /// and released once its commit has applied. Connections park
    /// (backpressure) when the budget is exhausted; the measured
    /// high-water mark lands in [`ServeSummary::peak_queue_bytes`].
    pub memory_budget_bytes: usize,
    /// Absorbed-report quota for this window (`0` = unlimited). Once the
    /// session count reaches it, *new* connections are shed with `!busy`
    /// at accept (counted in [`ServeSummary::quota_sheds`]); already
    /// admitted sessions finish normally.
    pub report_quota: u64,
    /// The retry hint carried by admission/quota `!busy` responses.
    pub busy_retry: Duration,
    /// How long a peer may leave a pending ack unread before it is
    /// declared a slow consumer and **evicted** (`None` = wait forever).
    /// The commit the ack reported stays absorbed — a sequenced client
    /// re-learns it from the cursor at its next hello, exactly like an
    /// ack lost to a crash.
    pub ack_deadline: Option<Duration>,
    /// Reactor threads (`0` = the shared pool sizing,
    /// [`ldp_pool::configured_threads`]). Each thread owns an epoll
    /// instance and a share of the connections; see
    /// `docs/OPERATIONS.md` ("Scaling the listener") for sizing.
    pub reactor_threads: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 8,
            connections: 0,
            shutdown: Arc::new(AtomicBool::new(false)),
            idle_timeout: None,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_rps_per_conn: 0.0,
            memory_budget_bytes: 0,
            report_quota: 0,
            busy_retry: Duration::from_millis(200),
            ack_deadline: None,
            reactor_threads: 0,
        }
    }
}

/// What a completed [`serve`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Sessions that reached a clean end-of-stream frame.
    pub completed: u64,
    /// Sessions that ended in a rejected frame, a protocol violation, or
    /// an abrupt disconnect (the window itself is always intact).
    pub failed: u64,
    /// Reports absorbed by this call.
    pub reports: u64,
    /// Cadence snapshots that were superseded before the writer persisted
    /// them (a writer-falling-behind signal; the latest always lands).
    pub snapshots_superseded: u64,
    /// Replayed sequenced frames acked `+` without absorbing (each one is
    /// a double-count that the dedup cursor prevented).
    pub duplicates_suppressed: u64,
    /// Hello frames that resumed a session id this window had already
    /// committed frames for (cursor > 0 at hello time).
    pub sessions_resumed: u64,
    /// Peers disconnected by [`ServeOptions::idle_timeout`].
    pub idle_disconnects: u64,
    /// Connections shed with `!busy` at accept because every
    /// [`ServeOptions::max_connections`] slot was taken.
    pub admission_sheds: u64,
    /// Connections shed with `!busy` at accept because
    /// [`ServeOptions::report_quota`] was already met.
    pub quota_sheds: u64,
    /// Frames shed mid-stream with `!busy` by the per-connection
    /// [`ServeOptions::max_rps_per_conn`] token bucket (nothing absorbed;
    /// the client re-sends).
    pub rate_sheds: u64,
    /// Frames rejected because their length header exceeded
    /// [`ServeOptions::max_frame_bytes`] — refused before allocation.
    pub oversized_frames: u64,
    /// Slow consumers disconnected by [`ServeOptions::ack_deadline`]
    /// (plus any `ack-evict` faults the chaos schedule injected).
    pub evictions: u64,
    /// Times the supervisor restarted a panicked snapshot-writer stage.
    pub supervisor_restarts: u64,
    /// High-water mark, in bytes, of any window's charged frame bodies
    /// (in-flight decode buffers and batches not yet committed) — compare
    /// against [`ServeOptions::memory_budget_bytes`] to verify a sizing
    /// plan.
    pub peak_queue_bytes: u64,
    /// Transient accept-loop failures survived with backoff — fd
    /// exhaustion (`EMFILE`/`ENFILE`) and injected `accept` faults. The
    /// listener keeps listening through these; a nonzero count is the
    /// operator's cue to raise `ulimit -n` (see `docs/OPERATIONS.md`).
    pub accept_errors: u64,
    /// Faults fired by the `crate::faults` schedule during this call
    /// (always 0 unless a schedule was armed).
    pub faults_injected: u64,
    /// Per-window `(name, reports absorbed)` when this serve ran with
    /// routed windows ([`serve_routed`]); empty for a single-window
    /// serve. [`ServeSummary::reports`] is the total across windows.
    pub window_reports: Vec<(String, u64)>,
    /// The last per-session error, for operator logs.
    pub last_session_error: Option<String>,
}

/// Renders a [`ServeSummary`] as one stable JSON object (the
/// `serve --summary-json <path>` artifact): every counter, the
/// per-window report counts as a `"window_reports"` object, and the last
/// session error (or `null`). Written by hand because the workspace
/// vendors no JSON serializer — the shape is pinned by a unit test.
#[must_use]
pub fn summary_json(summary: &ServeSummary) -> String {
    fn escape(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut json = String::from("{");
    let counters: [(&str, u64); 17] = [
        ("accepted", summary.accepted),
        ("completed", summary.completed),
        ("failed", summary.failed),
        ("reports", summary.reports),
        ("snapshots_superseded", summary.snapshots_superseded),
        ("duplicates_suppressed", summary.duplicates_suppressed),
        ("sessions_resumed", summary.sessions_resumed),
        ("idle_disconnects", summary.idle_disconnects),
        ("admission_sheds", summary.admission_sheds),
        ("quota_sheds", summary.quota_sheds),
        ("rate_sheds", summary.rate_sheds),
        ("oversized_frames", summary.oversized_frames),
        ("evictions", summary.evictions),
        ("supervisor_restarts", summary.supervisor_restarts),
        ("peak_queue_bytes", summary.peak_queue_bytes),
        ("accept_errors", summary.accept_errors),
        ("faults_injected", summary.faults_injected),
    ];
    for (key, value) in counters {
        json.push_str(&format!("\"{key}\":{value},"));
    }
    json.push_str("\"window_reports\":{");
    for (i, (name, reports)) in summary.window_reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":{reports}", escape(name)));
    }
    json.push_str("},");
    match &summary.last_session_error {
        Some(msg) => json.push_str(&format!("\"last_session_error\":\"{}\"", escape(msg))),
        None => json.push_str("\"last_session_error\":null"),
    }
    json.push('}');
    json
}

/// Where a deferred commit answer goes: the mailbox of the reactor
/// thread that owns the connection, tagged with the connection's slab
/// token (a connection that died meanwhile fails the slab's generation
/// check and the answer is discarded). Only a sequenced flush defers its
/// answer, until its snapshot is durable; every other commit is answered
/// in place.
///
/// Dropping an unresolved `Done` posts `None` ("the pipeline stopped
/// before answering"), so a dropped answer can never strand its
/// connection.
pub(crate) struct Done {
    mailbox: Option<Arc<Mailbox>>,
    token: u64,
}

impl Done {
    pub(crate) fn new(mailbox: Arc<Mailbox>, token: u64) -> Done {
        Done {
            mailbox: Some(mailbox),
            token,
        }
    }

    pub(crate) fn resolve(mut self, reply: CommitDone) {
        self.post(Some(reply));
    }

    fn post(&mut self, reply: Option<CommitDone>) {
        if let Some(mailbox) = self.mailbox.take() {
            mailbox.post_completion(self.token, reply);
        }
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        self.post(None);
    }
}

/// What applying one commit produced.
pub(crate) enum Applied {
    /// The answer to feed back into the connection's machine now.
    Now(CommitDone),
    /// A sequenced end-of-stream: ack `count` only once snapshot
    /// `generation` is durable.
    Durable { generation: u64, count: u64 },
}

/// Answers a deferred sequenced flush once snapshot `generation` is
/// durable — or fails it, if the writer died first — by posting to the
/// connection's reactor through `done`. Never blocks.
pub(crate) fn flush_when_written(window: &Window<'_>, generation: u64, count: u64, done: Done) {
    window.spool.when_written(
        generation,
        Box::new(move |durable| {
            done.resolve(CommitDone::Flush(if durable {
                Ok(count)
            } else {
                // The writer died: the cursor the client is about to
                // trust was never persisted. Fail the flush so the client
                // keeps its replay buffer.
                Err(CollectorError::Io(
                    "the final session snapshot could not be persisted".into(),
                ))
            }))
        }),
    );
}

/// Best-effort `!busy` shed of a connection that was never admitted: tell
/// the peer when to retry, then close. Write errors are ignored — the
/// peer is being turned away either way, and a short write timeout keeps
/// a hostile peer from stalling the acceptor.
pub(crate) fn shed_at_accept(mut stream: TcpStream, retry: Duration) {
    let retry_ms = u32::try_from(retry.as_millis().max(1)).unwrap_or(u32::MAX);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&protocol::encode_busy(retry_ms));
}

/// Whether an accept error is the process (`EMFILE`) or host (`ENFILE`)
/// running out of file descriptors — transient pressure the accept loop
/// must survive with backoff, never a reason to drop live sessions.
pub(crate) fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    matches!(
        e.raw_os_error(),
        Some(23 /* ENFILE */) | Some(24 /* EMFILE */)
    )
}

/// Renders a caught panic payload for error reports (panics carry
/// `String` or `&str` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The serve counters and the last per-session error: the summary under
/// construction, shared by reference with every stage of serve. The
/// engine fills in the derived totals (reports, peaks, per-window
/// counts) when serve ends.
#[derive(Default)]
pub(crate) struct Stats(Mutex<ServeSummary>);

impl Stats {
    /// Applies `f` to the summary under construction and returns its
    /// result. `f` only bumps or reads fields, so a poisoned lock still
    /// guards a valid summary.
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut ServeSummary) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One estimation window's pipeline state, shared by every serve thread:
/// its session behind the commit lock, its snapshot policy, the spool to
/// its writer, its byte budget, and the counts the acceptor and the
/// summary read. Window 0 is the default window; each [`WindowRoute`]
/// follows in order.
pub(crate) struct Window<'a> {
    pub(crate) name: String,
    /// The window's session. Every commit locks it, on whichever reactor
    /// thread decoded the frame; a commit that panicked leaves it
    /// poisoned, which fails every later commit on the window.
    pub(crate) session: Mutex<&'a mut dyn CollectorSession>,
    pub(crate) policy: &'a SnapshotPolicy,
    pub(crate) spool: SnapshotSpool,
    pub(crate) budget: ByteBudget,
    /// The session's report count when serve started.
    pub(crate) start: u64,
    /// The session's running report count, published for the
    /// acceptor's quota check.
    pub(crate) absorbed: AtomicU64,
}

impl<'a> Window<'a> {
    pub(crate) fn new(
        name: String,
        session: &'a mut dyn CollectorSession,
        policy: &'a SnapshotPolicy,
        budget_bytes: usize,
    ) -> Self {
        let start = session.count();
        Window {
            name,
            session: Mutex::new(session),
            policy,
            spool: SnapshotSpool::new(),
            budget: ByteBudget::new(budget_bytes),
            start,
            absorbed: AtomicU64::new(start),
        }
    }
}

/// Applies one commit to the window's session — **the** serialization
/// point, run under the window's lock: cursor dedup, state merge and
/// cadence publish happen here, in lock order. A sequenced flush comes
/// back as [`Applied::Durable`]; the caller defers its ack.
pub(crate) fn absorb_commit(
    session: &mut dyn CollectorSession,
    window: &Window<'_>,
    stats: &Stats,
    request: CommitRequest,
) -> Applied {
    match request {
        CommitRequest::Hello { session: id, .. } => {
            let cursor = session.session_cursor(&id);
            if cursor > 0 {
                stats.update(|s| s.sessions_resumed += 1);
            }
            Applied::Now(CommitDone::Hello { cursor })
        }
        CommitRequest::Batch { batch, seq, .. } => {
            if faults::hit("absorb").is_some() {
                // The injected failure stands in for a bug in the merge
                // itself; with the `panic` action it exercises the
                // supervisor's containment.
                return Applied::Now(CommitDone::Batch(Err(faults::error("absorb"))));
            }
            let before = session.count();
            let result = match seq {
                None => session.absorb_prepared(batch).map(|_| ()),
                Some((id, n)) => {
                    let cursor = session.session_cursor(&id);
                    if n < cursor {
                        // Replay of a committed frame: the dedup cursor is
                        // exactly why this acks `+` without touching the
                        // window.
                        stats.update(|s| s.duplicates_suppressed += 1);
                        Ok(())
                    } else if n > cursor {
                        Err(CollectorError::Protocol(format!(
                            "session {id:?}: frame seq {n} skips ahead of cursor {cursor}"
                        )))
                    } else {
                        session
                            .absorb_prepared(batch)
                            .map(|_| session.set_session_cursor(&id, n + 1))
                    }
                }
            };
            if result.is_ok() {
                window.absorbed.store(session.count(), Ordering::SeqCst);
                if window.policy.due(before, session.count()) {
                    window.spool.publish(session.snapshot_text());
                }
            }
            Applied::Now(CommitDone::Batch(result))
        }
        CommitRequest::Flush { sequenced, .. } => {
            let count = session.count();
            if window.policy.path.is_none() {
                return Applied::Now(CommitDone::Flush(Ok(count)));
            }
            let generation = window.spool.publish(session.snapshot_text());
            if sequenced {
                Applied::Durable { generation, count }
            } else {
                Applied::Now(CommitDone::Flush(Ok(count)))
            }
        }
    }
}

/// One window's snapshot-writer stage: drain the spool, persist each
/// taken generation under the policy, retry a panicking persist in place
/// (bounded by [`MAX_WRITER_RESTARTS`]), and on giving up poison the
/// spool and raise shutdown so durability waiters are answered "not
/// durable" instead of hanging. Every window runs one.
pub(crate) fn run_writer(
    window: &Window<'_>,
    stats: &Stats,
    writer_error: &Mutex<Option<CollectorError>>,
    shutdown: &AtomicBool,
) {
    let spool = &window.spool;
    let give_up = |e: CollectorError| {
        *writer_error.lock().expect("writer error lock") = Some(e);
        spool.poison();
        shutdown.store(true, Ordering::SeqCst);
    };
    'generations: while let Some((generation, text)) = spool.take_tagged() {
        loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                window.policy.persist(&text)
            }));
            match attempt {
                Ok(Ok(())) => {
                    spool.mark_written(generation);
                    continue 'generations;
                }
                Ok(Err(e)) => return give_up(e),
                Err(panic) => {
                    let nth = stats.update(|s| {
                        s.supervisor_restarts += 1;
                        s.supervisor_restarts
                    });
                    if nth >= MAX_WRITER_RESTARTS {
                        return give_up(CollectorError::Panicked(format!(
                            "snapshot writer panicked {nth} times; last: {}",
                            panic_message(panic.as_ref())
                        )));
                    }
                }
            }
        }
    }
}

/// A named estimation window served next to the default one by
/// [`serve_routed`]: its own session (mechanism + state), its own
/// snapshot policy, its own commit lock and snapshot writer. A sequenced
/// client routes to it with the hello's `window <name>` line.
pub struct WindowRoute {
    /// The route name clients put on their hello's `window` line (same
    /// charset as session ids).
    pub name: String,
    /// The window's session — owned by serve (behind the window's commit
    /// lock) while serve runs.
    pub session: Box<dyn CollectorSession>,
    /// When and where this window snapshots (independent of the default
    /// window's policy).
    pub policy: SnapshotPolicy,
}

/// Serves many concurrent framed TCP sessions — the `serve`
/// subcommand's engine.
///
/// [`ServeOptions::reactor_threads`] nonblocking reactor threads (built
/// on `ldp-reactor`) each own an epoll instance and multiplex their share
/// of the connections through the resumable protocol machine
/// ([`crate::machine`]), so thousands of mostly-idle sessions cost file
/// descriptors, not stacks.
///
/// The structure (see the module docs and `docs/ARCHITECTURE.md`): an
/// acceptor admits connections (shedding `!busy` beyond
/// `max_connections` or past the report quota, and surviving fd
/// exhaustion with backoff); per-connection decode charges payload bytes
/// against the window's byte budget; the reactor thread that decoded a
/// frame merges it into the session under the window's lock, acks it,
/// and publishes cadence snapshots to a latest-wins spool; a writer
/// service persists them (rotating per the policy) off the hot path. A
/// final snapshot is written synchronously before returning.
///
/// Because every commit is an exact state merge, the final window is
/// **bit-identical** to a single-connection ingest of the same frames in
/// any order — the property the stress suite pins. Per-session failures
/// (rejected frames, protocol violations, disconnects, sheds, evictions)
/// are counted in the [`ServeSummary`], never fatal to the loop; `Err` is
/// reserved for collector-side failures (listener I/O, snapshot
/// persistence, a panicked stage).
///
/// # Supervision
///
/// Commits run under a supervisor: if one panics, the panic is caught on
/// its reactor thread, the window's lock stays poisoned (every later
/// commit on that window fails), the loop quiesces (shutdown raised,
/// every parked connection fails fast), a final durable snapshot
/// covering **every acked frame** is still attempted, and serve returns
/// [`CollectorError::Panicked`] (naming the `absorber` stage) instead of
/// wedging. A panicked
/// snapshot-writer stage is restarted in place a bounded number of times
/// (counted in [`ServeSummary::supervisor_restarts`]) before the window
/// gives up
/// loudly — the generation it was persisting is retried, never dropped,
/// so durability waiters cannot hang.
pub fn serve(
    listener: &TcpListener,
    session: &mut dyn CollectorSession,
    policy: &SnapshotPolicy,
    options: &ServeOptions,
) -> Result<ServeSummary, CollectorError> {
    serve_routed(listener, session, policy, options, &mut [])
}

/// [`serve`] with additional named windows: a hello frame carrying
/// `window <name>` routes its whole session to that window's own
/// session and snapshot pipeline; sessions without the line (and bare
/// at-least-once sessions) land in the default window.
pub fn serve_routed(
    listener: &TcpListener,
    session: &mut dyn CollectorSession,
    policy: &SnapshotPolicy,
    options: &ServeOptions,
    windows: &mut [WindowRoute],
) -> Result<ServeSummary, CollectorError> {
    crate::reactor_serve::serve_reactor(listener, session, policy, options, windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::build_session;
    use std::io::Read;

    /// A forwarder thread streaming frames; returns the acks it saw.
    fn forward(addr: std::net::SocketAddr, frames: Vec<String>, fin: bool) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut acks = Vec::new();
        for f in frames {
            write_frame(&mut stream, &f).unwrap();
            let mut ack = [0u8; 1];
            stream.read_exact(&mut ack).unwrap();
            acks.push(ack[0]);
            if ack[0] == b'-' {
                return acks;
            }
        }
        if fin {
            stream.write_all(&0u32.to_be_bytes()).unwrap();
            let mut ack = [0u8; 1];
            stream.read_exact(&mut ack).unwrap();
            acks.push(ack[0]);
        }
        acks
    }

    /// Serves exactly one connection on `listener`.
    fn serve_one(
        listener: &TcpListener,
        session: &mut dyn CollectorSession,
        policy: &SnapshotPolicy,
    ) -> ServeSummary {
        let options = ServeOptions {
            connections: 1,
            ..ServeOptions::default()
        };
        serve(listener, session, policy, &options).unwrap()
    }

    #[test]
    fn framed_stream_equals_direct_ingestion() {
        let spec = "grr:eps=1,d=8";
        let mut session = build_session(spec).unwrap();
        let reports = session.gen_reports(900, 3).unwrap();
        // Expected: direct one-shot ingestion.
        let mut direct = build_session(spec).unwrap();
        direct.ingest_text(&reports).unwrap();
        let expected = direct.finalize_text().unwrap();
        // Framed: three batches over a socket.
        let lines: Vec<&str> = reports.lines().collect();
        let frames: Vec<String> = lines.chunks(300).map(|c| c.join("\n")).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || forward(addr, frames, true));
        let policy = SnapshotPolicy::default();
        let summary = serve_one(&listener, session.as_mut(), &policy);
        assert_eq!(summary.reports, 900);
        assert_eq!(client.join().unwrap(), vec![b'+', b'+', b'+', b'+']);
        assert_eq!(session.finalize_text().unwrap(), expected);
    }

    #[test]
    fn bad_frame_is_rejected_without_absorbing_and_window_survives() {
        let spec = "grr:eps=1,d=8";
        let mut session = build_session(spec).unwrap();
        let good = session.gen_reports(100, 5).unwrap();
        let bad = format!("{good}not-a-report\n");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames = vec![good.clone(), bad.clone()];
        let client = std::thread::spawn(move || forward(addr, frames, false));
        let policy = SnapshotPolicy::default();
        let summary = serve_one(&listener, session.as_mut(), &policy);
        // The session failed on the mechanism's own rejection of the
        // batch, not on framing.
        let err = build_session(spec).unwrap().ingest_text(&bad).unwrap_err();
        assert!(matches!(err, CollectorError::Core(_)));
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.last_session_error, Some(err.to_string()));
        assert_eq!(client.join().unwrap(), vec![b'+', b'-']);
        // Only the good frame was absorbed; the window remains usable.
        assert_eq!(session.count(), 100);
        assert!(session.finalize_text().is_ok());
    }

    #[test]
    fn snapshot_cadence_persists_during_the_stream() {
        let dir = std::env::temp_dir().join("ldp-collector-server-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("window.snap");
        let _ = std::fs::remove_file(&path);
        let spec = "pm:eps=1";
        let mut session = build_session(spec).unwrap();
        let reports = session.gen_reports(600, 11).unwrap();
        let lines: Vec<&str> = reports.lines().collect();
        let frames: Vec<String> = lines.chunks(200).map(|c| c.join("\n")).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || forward(addr, frames, true));
        let policy = SnapshotPolicy {
            path: Some(path.clone()),
            every: 250,
            keep: 0,
        };
        serve_one(&listener, session.as_mut(), &policy);
        client.join().unwrap();
        // The final snapshot recovers the full window.
        let mut recovered = build_session(spec).unwrap();
        recovered
            .restore(&crate::io::read_to_string(&path).unwrap())
            .unwrap();
        assert_eq!(recovered.count(), 600);
        assert_eq!(
            recovered.finalize_text().unwrap(),
            session.finalize_text().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
