//! The framed-session protocol as a resumable state machine — the one
//! encoding of framing, hello, sequencing, and the per-connection rate
//! bucket that the serve path runs.
//!
//! The reactor serve path multiplexes hundreds of connections on a few
//! threads, so the protocol is expressed as **resumable steps**: feed it
//! whatever bytes arrived, get back the actions to perform, park it while
//! a commit or a byte-budget reservation is in flight, resume it when the
//! answer lands.
//!
//! [`Machine`] is deliberately **pure**: no sockets, no threads, no
//! channels — just bytes in, [`Action`]s out. That purity is what makes
//! the protocol testable: the fuzz suite (`tests/framing_fuzz.rs`) drives
//! a `Machine` one byte at a time and at random splits, and asserts its
//! ack stream equals the bytes `docs/WIRE_FORMAT.md` §3–4 specifies — and
//! what the real reactor sends — for every exchange the protocol defines
//! (hello, sequenced data, replays, gaps, busy sheds, oversized frames,
//! malformed payloads).
//!
//! # Contract
//!
//! - the `frame-read` failpoint fires once per frame-read *attempt* —
//!   at connection start and again after each completed frame — and the
//!   `decode` and `commit-push` failpoints fire around the decoder in
//!   each data frame's pipeline (UTF-8 check, hello upgrade, seq split,
//!   rate bucket, `decode`, decoder, `commit-push`, batch handoff), and
//!   `ack-write`/`ack-evict` as each success ack is queued;
//! - payload bytes are charged against the pipeline budget **before**
//!   the payload buffer is allocated ([`Action::Reserve`] precedes the
//!   body phase) and released on every early-out path;
//! - ack bytes are exactly the wire format's: `+`, `-`, the 9-byte hello
//!   ack, and the 5-byte busy shed.
//!
//! # Multi-window routing
//!
//! A hello frame may carry a `window <name>` line
//! ([`crate::protocol::parse_hello`]), routing the session to one of
//! several named estimation windows. Window indices resolve against
//! [`MachineConfig::windows`]; every budget and commit action names the
//! window it targets, so the driver can keep fully independent
//! per-window pipelines.

use crate::error::CollectorError;
use crate::faults;
use crate::limit::TokenBucket;
use crate::protocol;
use crate::session::{BatchDecoder, PreparedBatch};
use std::time::{Duration, Instant};

/// Tuning for one connection's [`Machine`], distilled from the serve
/// options.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Largest accepted frame payload; a bigger length header is refused
    /// before allocation.
    pub max_frame_bytes: u32,
    /// Per-connection rate cap in reports/second (`None` = unlimited) —
    /// the machine owns the [`TokenBucket`].
    pub rate: Option<f64>,
    /// The named windows this collector serves, in driver order. Index 0
    /// is the default window — the one a hello without a `window` line
    /// (or a bare session) lands in.
    pub windows: Vec<String>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            max_frame_bytes: crate::server::DEFAULT_MAX_FRAME_BYTES,
            rate: None,
            windows: vec!["default".to_string()],
        }
    }
}

/// What the driver must do next, in emission order.
pub enum Action {
    /// Queue these bytes to the peer (acks, busy sheds).
    Send(Vec<u8>),
    /// Charge `bytes` against window `window`'s pipeline budget, then
    /// call [`Machine::budget_granted`] (the machine is paused until
    /// then). If the budget is exhausted right now, retry once a charge
    /// is released; if the window can no longer commit, call
    /// [`Machine::absorber_gone`].
    Reserve {
        /// Index into [`MachineConfig::windows`].
        window: usize,
        /// Payload bytes to charge.
        bytes: usize,
    },
    /// Release a charge previously granted for window `window` (an
    /// early-out path: the bytes never reached a commit).
    Release {
        /// Index into [`MachineConfig::windows`].
        window: usize,
        /// Bytes to release.
        bytes: usize,
    },
    /// Apply this commit to its window, then call
    /// [`Machine::commit_done`] with the outcome (the machine is paused
    /// until then). If the window can no longer commit, call
    /// [`Machine::absorber_gone`].
    Commit(CommitRequest),
    /// A frame was shed by the rate limiter — count it.
    RateShed,
    /// A length header exceeded the frame cap — count it.
    Oversized,
    /// The session is over; no further input will be consumed.
    End(MachineEnd),
}

/// A commit the machine asks to have applied to a window.
pub enum CommitRequest {
    /// A sequenced session's hello: resolve the dedup cursor.
    Hello {
        /// Index into [`MachineConfig::windows`].
        window: usize,
        /// The stable session id.
        session: String,
    },
    /// A decoded batch. `weight` is the byte charge the batch carries
    /// (already granted; it is released once the commit has applied).
    Batch {
        /// Index into [`MachineConfig::windows`].
        window: usize,
        /// The decoder's validated, pre-absorbed batch.
        batch: PreparedBatch,
        /// `(session id, sequence number)` for sequenced sessions.
        seq: Option<(String, u64)>,
        /// Byte charge transferred with the batch.
        weight: usize,
    },
    /// The session's end-of-stream: publish a snapshot; for a sequenced
    /// session the outcome must wait until it is durable.
    Flush {
        /// Index into [`MachineConfig::windows`].
        window: usize,
        /// Whether the closing ack vouches for durability.
        sequenced: bool,
    },
}

/// The outcome the driver feeds back for a [`CommitRequest`].
pub enum CommitDone {
    /// The answer to [`CommitRequest::Hello`].
    Hello {
        /// The next sequence number the window expects for the id.
        cursor: u64,
    },
    /// The answer to [`CommitRequest::Batch`].
    Batch(Result<(), CollectorError>),
    /// The answer to [`CommitRequest::Flush`].
    Flush(Result<u64, CollectorError>),
}

/// How the session ended.
pub enum MachineEnd {
    /// Clean end-of-stream, final `+` queued.
    Completed,
    /// The `ack-evict` failpoint simulated a slow-consumer eviction.
    /// (Real ack-deadline evictions are the driver's: a send buffer that
    /// never drains.)
    Evicted,
    /// The peer closed at a frame boundary without an end-of-stream
    /// frame.
    PeerClosed,
    /// A rejected frame, protocol violation, or injected fault.
    Failed(CollectorError),
}

enum Phase {
    /// Reading the 4-byte length header.
    Header { got: usize, buf: [u8; 4] },
    /// Budget reservation in flight for a `len`-byte payload.
    AwaitBudget { len: u32 },
    /// Reading the payload.
    Body { len: u32, buf: Vec<u8> },
    /// Hello commit in flight.
    AwaitHello {
        session: String,
        horizon: u64,
        route: usize,
    },
    /// Batch commit in flight.
    AwaitBatch,
    /// Flush commit in flight.
    AwaitFlush,
    /// Terminal: an [`Action::End`] was emitted.
    Ended,
}

/// One connection's protocol state: feed bytes, perform actions.
///
/// See the module docs for the lifecycle; the driver's obligations are
/// spelled on each [`Action`] variant.
pub struct Machine {
    config: MachineConfig,
    phase: Phase,
    bucket: Option<TokenBucket>,
    first: bool,
    sequenced: Option<String>,
    /// The window data frames currently route to (0 until a routed hello
    /// lands).
    window: usize,
    /// A granted byte charge not yet transferred or released:
    /// `(window, bytes)`.
    charge: Option<(usize, usize)>,
}

impl Machine {
    /// A fresh machine at connection start. Call [`Machine::start`]
    /// before feeding bytes.
    #[must_use]
    pub fn new(config: MachineConfig, now: Instant) -> Self {
        let bucket = config.rate.map(|rate| TokenBucket::new(rate, rate, now));
        Machine {
            config,
            phase: Phase::Header {
                got: 0,
                buf: [0u8; 4],
            },
            bucket,
            first: true,
            sequenced: None,
            window: 0,
            charge: None,
        }
    }

    /// Arms the first frame read: the `frame-read` failpoint fires when
    /// the read is *attempted* — synchronously at connection start,
    /// before any byte arrives.
    pub fn start(&mut self, out: &mut Vec<Action>) {
        self.enter_frame(out);
    }

    /// Whether the machine is at a clean frame boundary (no header byte
    /// consumed, nothing in flight) — the only place shutdown and idle
    /// may end the session.
    #[must_use]
    pub fn at_boundary(&self) -> bool {
        matches!(self.phase, Phase::Header { got: 0, .. })
    }

    /// Whether the machine is paused on a budget grant or a commit
    /// outcome (it will consume no input until the driver resolves it).
    #[must_use]
    pub fn is_awaiting(&self) -> bool {
        matches!(
            self.phase,
            Phase::AwaitBudget { .. }
                | Phase::AwaitHello { .. }
                | Phase::AwaitBatch
                | Phase::AwaitFlush
        )
    }

    /// Whether an [`Action::End`] has been emitted.
    #[must_use]
    pub fn is_ended(&self) -> bool {
        matches!(self.phase, Phase::Ended)
    }

    /// The window this connection's data frames currently route to (an
    /// index into [`MachineConfig::windows`]; 0 until a routed hello's
    /// ack lands). The driver passes the matching window's
    /// [`BatchDecoder`] to [`Machine::on_bytes`] — the route can only
    /// change between frames, never within one.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Releases and returns any still-held byte charge as
    /// `(window, bytes)` — for a driver tearing the connection down
    /// mid-frame (eviction, shutdown grace expiry).
    pub fn take_charge(&mut self) -> Option<(usize, usize)> {
        self.charge.take()
    }

    /// Whether the connection is mid-frame (header partially read, or a
    /// payload incomplete) — where shutdown grants grace instead of
    /// closing, and idleness is tolerated as backpressure.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        match self.phase {
            Phase::Header { got, .. } => got > 0,
            Phase::AwaitBudget { .. } | Phase::Body { .. } => true,
            _ => false,
        }
    }

    /// Consumes as much of `input` as the current phase allows and
    /// returns how many bytes were taken. Stops early when the machine
    /// pauses (budget, commit) or ends; feed the remainder after the
    /// pause resolves.
    pub fn on_bytes(
        &mut self,
        input: &[u8],
        now: Instant,
        decoder: &dyn BatchDecoder,
        out: &mut Vec<Action>,
    ) -> usize {
        let mut consumed = 0;
        while consumed < input.len() {
            match &mut self.phase {
                Phase::Header { got, buf } => {
                    let take = (4 - *got).min(input.len() - consumed);
                    buf[*got..*got + take].copy_from_slice(&input[consumed..consumed + take]);
                    *got += take;
                    consumed += take;
                    if *got < 4 {
                        break;
                    }
                    let len = u32::from_be_bytes(*buf);
                    if len == 0 {
                        self.phase = Phase::AwaitFlush;
                        out.push(Action::Commit(CommitRequest::Flush {
                            window: self.window,
                            sequenced: self.sequenced.is_some(),
                        }));
                        break;
                    }
                    if len > self.config.max_frame_bytes {
                        out.push(Action::Oversized);
                        out.push(Action::Send(b"-".to_vec()));
                        self.end(
                            MachineEnd::Failed(CollectorError::Protocol(format!(
                                "frame of {len} bytes exceeds the {}-byte limit",
                                self.config.max_frame_bytes
                            ))),
                            out,
                        );
                        break;
                    }
                    // Charge the payload's bytes before its buffer exists:
                    // reserve, then allocate.
                    self.phase = Phase::AwaitBudget { len };
                    out.push(Action::Reserve {
                        window: self.window,
                        bytes: len as usize,
                    });
                    break;
                }
                Phase::Body { len, buf } => {
                    let want = *len as usize - buf.len();
                    let take = want.min(input.len() - consumed);
                    buf.extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if buf.len() < *len as usize {
                        break;
                    }
                    let payload = std::mem::take(buf);
                    self.process_frame(payload, now, decoder, out);
                    if self.is_awaiting() || self.is_ended() {
                        break;
                    }
                }
                _ => break,
            }
        }
        consumed
    }

    /// Resolves an [`Action::Reserve`]: the charge was granted.
    pub fn budget_granted(&mut self) {
        if let Phase::AwaitBudget { len } = self.phase {
            self.charge = Some((self.window, len as usize));
            self.phase = Phase::Body {
                len,
                buf: Vec::with_capacity(len as usize),
            };
        } else {
            debug_assert!(false, "budget_granted outside AwaitBudget");
        }
    }

    /// Resolves an [`Action::Commit`] with the commit's outcome.
    pub fn commit_done(&mut self, done: CommitDone, out: &mut Vec<Action>) {
        match (std::mem::replace(&mut self.phase, Phase::Ended), done) {
            (
                Phase::AwaitHello {
                    session,
                    horizon,
                    route,
                },
                CommitDone::Hello { cursor },
            ) => {
                // The hello frame's own bytes are done with: release them
                // on the window they were reserved on.
                self.release_charge(out);
                if horizon > cursor {
                    out.push(Action::Send(b"-".to_vec()));
                    self.end(
                        MachineEnd::Failed(CollectorError::Protocol(format!(
                            "session {session:?}: client replay horizon {horizon} is beyond the \
                             collector cursor {cursor} — the missing frames cannot be recovered"
                        ))),
                        out,
                    );
                    return;
                }
                if self.success_ack(protocol::encode_hello_ack(cursor).to_vec(), out) {
                    self.sequenced = Some(session);
                    self.window = route;
                    self.enter_frame(out);
                }
            }
            (Phase::AwaitBatch, CommitDone::Batch(result)) => match result {
                Ok(()) => {
                    if self.success_ack(b"+".to_vec(), out) {
                        self.enter_frame(out);
                    }
                }
                Err(e) => {
                    out.push(Action::Send(b"-".to_vec()));
                    self.end(MachineEnd::Failed(e), out);
                }
            },
            (Phase::AwaitFlush, CommitDone::Flush(result)) => match result {
                Ok(_count) => {
                    if self.success_ack(b"+".to_vec(), out) {
                        self.end(MachineEnd::Completed, out);
                    }
                }
                Err(e) => {
                    out.push(Action::Send(b"-".to_vec()));
                    self.end(MachineEnd::Failed(e), out);
                }
            },
            (phase, _) => {
                debug_assert!(false, "commit_done does not match the in-flight commit");
                self.phase = phase;
            }
        }
    }

    /// The window can no longer commit (a commit on it panicked, or the
    /// pipeline stopped before answering a pending commit). Ends the
    /// session.
    pub fn absorber_gone(&mut self, out: &mut Vec<Action>) {
        self.release_charge(out);
        self.end(
            MachineEnd::Failed(CollectorError::Io(
                "the absorber stopped before the session ended".into(),
            )),
            out,
        );
    }

    /// The peer closed its write side. At a frame boundary that is the
    /// clean-but-unfinished ending; mid-frame it is a truncation error,
    /// byte counts included. Must not be called while the machine
    /// [`Machine::is_awaiting`] — defer EOF until the pause resolves, so
    /// EOF lands in stream order after every byte before it.
    pub fn on_eof(&mut self, out: &mut Vec<Action>) {
        match &self.phase {
            Phase::Header { got: 0, .. } => self.end(MachineEnd::PeerClosed, out),
            Phase::Header { got, .. } => {
                let got = *got;
                self.end(
                    MachineEnd::Failed(CollectorError::Protocol(format!(
                        "connection closed after {got} of 4 frame bytes"
                    ))),
                    out,
                );
            }
            Phase::AwaitBudget { len } => {
                // The budget pause sits between the header and the body
                // read: no payload byte has arrived.
                let len = *len;
                self.release_charge(out);
                self.end(
                    MachineEnd::Failed(CollectorError::Protocol(format!(
                        "connection closed after 0 of {len} frame bytes"
                    ))),
                    out,
                );
            }
            Phase::Body { len, buf } => {
                let (len, got) = (*len, buf.len());
                self.release_charge(out);
                self.end(
                    MachineEnd::Failed(CollectorError::Protocol(format!(
                        "connection closed after {got} of {len} frame bytes"
                    ))),
                    out,
                );
            }
            Phase::AwaitHello { .. } | Phase::AwaitBatch | Phase::AwaitFlush => {
                debug_assert!(false, "defer EOF while a commit is in flight");
            }
            Phase::Ended => {}
        }
    }

    /// One frame-read attempt begins: the `frame-read` failpoint, then
    /// the header phase.
    fn enter_frame(&mut self, out: &mut Vec<Action>) {
        if faults::hit("frame-read").is_some() {
            self.end(MachineEnd::Failed(faults::error("frame-read")), out);
            return;
        }
        self.phase = Phase::Header {
            got: 0,
            buf: [0u8; 4],
        };
    }

    /// A complete payload: the per-frame pipeline, in order — UTF-8,
    /// hello upgrade, seq split, rate bucket, `decode` failpoint,
    /// decoder, `commit-push` failpoint, batch handoff.
    fn process_frame(
        &mut self,
        payload: Vec<u8>,
        now: Instant,
        decoder: &dyn BatchDecoder,
        out: &mut Vec<Action>,
    ) {
        let text = match String::from_utf8(payload) {
            Ok(text) => text,
            Err(e) => {
                // A non-UTF-8 payload fails the session without an ack
                // byte.
                self.release_charge(out);
                self.end(
                    MachineEnd::Failed(CollectorError::Protocol(format!(
                        "frame is not UTF-8: {e}"
                    ))),
                    out,
                );
                return;
            }
        };
        if std::mem::take(&mut self.first) && protocol::is_hello(&text) {
            let hello = match protocol::parse_hello(&text) {
                Ok(h) => h,
                Err(e) => {
                    self.release_charge(out);
                    out.push(Action::Send(b"-".to_vec()));
                    self.end(MachineEnd::Failed(e), out);
                    return;
                }
            };
            let route = match &hello.window {
                None => 0,
                Some(name) => match self.config.windows.iter().position(|w| w == name) {
                    Some(idx) => idx,
                    None => {
                        self.release_charge(out);
                        out.push(Action::Send(b"-".to_vec()));
                        self.end(
                            MachineEnd::Failed(CollectorError::Protocol(format!(
                                "hello names unknown window {name:?} (serving: {})",
                                self.config.windows.join(", ")
                            ))),
                            out,
                        );
                        return;
                    }
                },
            };
            // The hello's byte charge stays held across the commit; it is
            // released in commit_done. The commit targets the *routed* window (its
            // session owns the cursor), while data frames switch windows
            // only after the hello ack.
            self.phase = Phase::AwaitHello {
                session: hello.session.clone(),
                horizon: hello.horizon,
                route,
            };
            out.push(Action::Commit(CommitRequest::Hello {
                window: route,
                session: hello.session,
            }));
            return;
        }
        let (seq, body) = match &self.sequenced {
            None => (None, text.as_str()),
            Some(id) => match protocol::split_seq_frame(&text) {
                Ok((n, body)) => (Some((id.clone(), n)), body),
                Err(e) => {
                    self.release_charge(out);
                    out.push(Action::Send(b"-".to_vec()));
                    self.end(MachineEnd::Failed(e), out);
                    return;
                }
            },
        };
        if let Some(bucket) = &mut self.bucket {
            let cost = body.lines().filter(|l| !l.trim().is_empty()).count() as u64;
            if let Err(wait) = bucket.admit_at(cost.max(1), now) {
                // Over rate: shed the frame untouched and re-enter the
                // frame loop (the peer re-sends after the hint).
                out.push(Action::RateShed);
                self.release_charge(out);
                out.push(Action::Send(encode_busy_clamped(wait)));
                self.enter_frame(out);
                return;
            }
        }
        if faults::hit("decode").is_some() {
            self.release_charge(out);
            out.push(Action::Send(b"-".to_vec()));
            self.end(MachineEnd::Failed(faults::error("decode")), out);
            return;
        }
        let batch = match decoder.prepare(body) {
            Ok(batch) => batch,
            Err(e) => {
                self.release_charge(out);
                out.push(Action::Send(b"-".to_vec()));
                self.end(MachineEnd::Failed(e), out);
                return;
            }
        };
        if faults::hit("commit-push").is_some() {
            // An injected push failure ends the session *without* a `-`
            // ack.
            self.release_charge(out);
            self.end(MachineEnd::Failed(faults::error("commit-push")), out);
            return;
        }
        // The charge travels with the batch and is released once the
        // commit has applied.
        let weight = self.charge.take().map_or(0, |(_, bytes)| bytes);
        self.phase = Phase::AwaitBatch;
        out.push(Action::Commit(CommitRequest::Batch {
            window: self.window,
            batch,
            seq,
            weight,
        }));
    }

    /// A success ack through the `ack-write` and `ack-evict` failpoints.
    /// Returns whether the ack was queued (`false` = the session just
    /// ended).
    fn success_ack(&mut self, ack: Vec<u8>, out: &mut Vec<Action>) -> bool {
        if faults::hit("ack-write").is_some() {
            self.end(MachineEnd::Failed(faults::error("ack-write")), out);
            return false;
        }
        if faults::hit("ack-evict").is_some() {
            self.end(MachineEnd::Evicted, out);
            return false;
        }
        out.push(Action::Send(ack));
        true
    }

    fn release_charge(&mut self, out: &mut Vec<Action>) {
        if let Some((window, bytes)) = self.charge.take() {
            out.push(Action::Release { window, bytes });
        }
    }

    fn end(&mut self, end: MachineEnd, out: &mut Vec<Action>) {
        debug_assert!(self.charge.is_none(), "ending with an unreleased charge");
        self.phase = Phase::Ended;
        out.push(Action::End(end));
    }
}

/// The busy-shed bytes for a token-bucket wait, clamped to
/// `1..=u32::MAX` milliseconds.
fn encode_busy_clamped(wait: Duration) -> Vec<u8> {
    let retry_ms = u32::try_from(wait.as_millis().max(1)).unwrap_or(u32::MAX);
    protocol::encode_busy(retry_ms).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::build_session;
    use std::sync::Arc;

    fn decoder() -> Arc<dyn BatchDecoder> {
        build_session("grr:eps=1,d=8").unwrap().batch_decoder()
    }

    fn frame_bytes(payload: &str) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload.as_bytes());
        bytes
    }

    /// Drives `machine` over `input` one byte at a time, resolving
    /// budget grants inline and collecting everything else.
    fn feed(machine: &mut Machine, input: &[u8], decoder: &dyn BatchDecoder) -> Vec<Action> {
        let mut all = Vec::new();
        let mut out = Vec::new();
        for chunk in input.chunks(1) {
            let mut offset = 0;
            while offset < chunk.len() {
                offset += machine.on_bytes(&chunk[offset..], Instant::now(), decoder, &mut out);
                let mut paused_on_commit = false;
                for action in out.drain(..) {
                    match action {
                        Action::Reserve { .. } => machine.budget_granted(),
                        Action::Commit(_) => paused_on_commit = true,
                        other => all.push(other),
                    }
                }
                if paused_on_commit || machine.is_ended() {
                    return all;
                }
            }
        }
        all
    }

    fn sent(actions: &[Action]) -> Vec<u8> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(bytes) => Some(bytes.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn bare_frame_commits_then_acks_plus() {
        let decoder = decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        assert!(out.is_empty());
        let session = build_session("grr:eps=1,d=8").unwrap();
        let reports = session.gen_reports(5, 1).unwrap();
        let actions = feed(&mut machine, &frame_bytes(&reports), decoder.as_ref());
        // One byte at a time: Reserve fired (resolved inline), then the
        // Batch commit paused the machine.
        assert!(machine.is_awaiting());
        assert!(sent(&actions).is_empty(), "no ack before the commit lands");
        machine.commit_done(CommitDone::Batch(Ok(())), &mut out);
        assert_eq!(sent(&out), b"+");
        assert!(machine.at_boundary(), "back at a frame boundary");
    }

    #[test]
    fn eos_flushes_and_completes() {
        let decoder = decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        feed(&mut machine, &0u32.to_be_bytes(), decoder.as_ref());
        assert!(machine.is_awaiting());
        machine.commit_done(CommitDone::Flush(Ok(0)), &mut out);
        assert_eq!(sent(&out), b"+");
        assert!(machine.is_ended());
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::End(MachineEnd::Completed))));
    }

    #[test]
    fn hello_routes_and_replays_horizon_check() {
        let decoder = decoder();
        let config = MachineConfig {
            windows: vec!["default".into(), "coarse".into()],
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(config.clone(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        let hello = protocol::encode_hello_routed("phone-1", 0, Some("coarse"));
        let actions = feed(&mut machine, &frame_bytes(&hello), decoder.as_ref());
        assert!(sent(&actions).is_empty());
        machine.commit_done(CommitDone::Hello { cursor: 3 }, &mut out);
        let bytes = sent(&out);
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes[0], b'+');
        assert_eq!(u64::from_be_bytes(bytes[1..].try_into().unwrap()), 3);

        // A horizon beyond the cursor is refused with the exact error.
        let mut machine = Machine::new(config, Instant::now());
        machine.start(&mut out);
        out.clear();
        let hello = protocol::encode_hello("phone-2", 9);
        feed(&mut machine, &frame_bytes(&hello), decoder.as_ref());
        machine.commit_done(CommitDone::Hello { cursor: 2 }, &mut out);
        assert_eq!(sent(&out), b"-");
        let end = out.iter().find_map(|a| match a {
            Action::End(MachineEnd::Failed(e)) => Some(e.to_string()),
            _ => None,
        });
        let msg = end.expect("session must fail");
        assert!(msg.contains("replay horizon 9 is beyond the collector cursor 2"));
    }

    #[test]
    fn unknown_window_is_refused_before_any_commit() {
        let decoder = decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        let hello = protocol::encode_hello_routed("phone-1", 0, Some("nope"));
        let actions = feed(&mut machine, &frame_bytes(&hello), decoder.as_ref());
        assert_eq!(sent(&actions), b"-");
        assert!(machine.is_ended());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::End(MachineEnd::Failed(CollectorError::Protocol(msg)))
                if msg.contains("unknown window \"nope\"")
        )));
    }

    #[test]
    fn oversized_header_is_refused_before_reserving() {
        let decoder = decoder();
        let config = MachineConfig {
            max_frame_bytes: 16,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(config, Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        let actions = feed(&mut machine, &1000u32.to_be_bytes(), decoder.as_ref());
        assert_eq!(sent(&actions), b"-");
        assert!(actions.iter().any(|a| matches!(a, Action::Oversized)));
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Release { .. })),
            "nothing was ever reserved"
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::End(MachineEnd::Failed(CollectorError::Protocol(msg)))
                if msg == "frame of 1000 bytes exceeds the 16-byte limit"
        )));
    }

    #[test]
    fn rate_shed_returns_busy_and_stays_open() {
        let decoder = decoder();
        let config = MachineConfig {
            rate: Some(2.0),
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(config, Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        let session = build_session("grr:eps=1,d=8").unwrap();
        let reports = session.gen_reports(50, 2).unwrap();
        // The bucket starts full and clamps oversized costs, so the first
        // frame drains it and is admitted.
        feed(&mut machine, &frame_bytes(&reports), decoder.as_ref());
        machine.commit_done(CommitDone::Batch(Ok(())), &mut out);
        out.clear();
        // An immediate second frame finds an empty bucket and is shed.
        let actions = feed(&mut machine, &frame_bytes(&reports), decoder.as_ref());
        assert!(actions.iter().any(|a| matches!(a, Action::RateShed)));
        let bytes = sent(&actions);
        assert_eq!(bytes[0], protocol::BUSY_BYTE);
        assert_eq!(bytes.len(), 5);
        assert!(
            machine.at_boundary() && !machine.is_ended(),
            "a shed frame leaves the connection open at a boundary"
        );
        // The charge was released, not transferred.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Release { window: 0, .. })));
    }

    #[test]
    fn mid_frame_eof_reports_byte_counts() {
        let decoder = decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        let frame = frame_bytes("grr 1\n");
        feed(&mut machine, &frame[..7], decoder.as_ref());
        machine.on_eof(&mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::End(MachineEnd::Failed(CollectorError::Protocol(msg)))
                if msg == "connection closed after 3 of 6 frame bytes"
        )));

        // At a clean boundary the same close is the PeerClosed ending.
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        machine.start(&mut out);
        out.clear();
        machine.on_eof(&mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::End(MachineEnd::PeerClosed))));
    }

    #[test]
    fn second_frame_of_a_sequenced_session_needs_a_seq_line() {
        let decoder = decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut out = Vec::new();
        machine.start(&mut out);
        feed(
            &mut machine,
            &frame_bytes(&protocol::encode_hello("p", 0)),
            decoder.as_ref(),
        );
        machine.commit_done(CommitDone::Hello { cursor: 0 }, &mut out);
        out.clear();
        let actions = feed(&mut machine, &frame_bytes("grr 1\n"), decoder.as_ref());
        assert_eq!(sent(&actions), b"-");
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::End(MachineEnd::Failed(CollectorError::Protocol(msg)))
                if msg.contains("does not start with a seq line")
        )));
    }
}
