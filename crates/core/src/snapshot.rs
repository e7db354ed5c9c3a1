//! Durable aggregator state: the [`SnapshotState`] persistence contract
//! and the versioned snapshot container format.
//!
//! A collection window in a real deployment runs for hours or days; the
//! collector must be able to crash at any point and resume without losing
//! the window or changing the final estimate. This module provides the two
//! halves of that guarantee:
//!
//! - [`SnapshotState`] — a text encoding for [`Mechanism::State`] types,
//!   in the same exact-round-trip spirit as [`crate::wire::WireReport`]:
//!   decoding an encoded state reproduces the accumulator such that every
//!   later `absorb`/`merge_state`/`finalize` yields bit-identical results;
//! - the **snapshot container** ([`encode_snapshot`]/[`decode_snapshot`])
//!   — a self-describing file format with a version line, the mechanism's
//!   configuration identity (a human-readable id plus the 64-bit
//!   [`Mechanism::fingerprint`]), the absorbed-report count, a body-line
//!   count, and a trailing checksum line, so that truncated, corrupted,
//!   and cross-configuration snapshot files are *rejected* instead of
//!   silently skewing a window.
//!
//! The normative container specification lives in `docs/WIRE_FORMAT.md`;
//! the operator's guide for snapshot cadence and recovery lives in
//! `docs/OPERATIONS.md`.
//!
//! # Examples
//!
//! Round-trip an aggregator state through the container format (using the
//! `Vec<u64>` state impl that backs count-style accumulators):
//!
//! ```
//! use ldp_core::snapshot::{encode_snapshot, decode_snapshot};
//! use ldp_core::{Epsilon, Mechanism};
//!
//! #[derive(Clone)]
//! struct Tally;
//! impl Mechanism for Tally {
//!     type Input = usize;
//!     type Report = usize;
//!     type State = Vec<u64>;
//!     type Output = Vec<u64>;
//!     fn epsilon(&self) -> Epsilon { Epsilon::new(1.0).unwrap() }
//!     fn fingerprint(&self) -> u64 { 0xfeed }
//!     fn randomize<R: rand::Rng + ?Sized>(&self, v: &usize, _: &mut R)
//!         -> Result<usize, ldp_core::CoreError> { Ok(*v) }
//!     fn empty_state(&self) -> Vec<u64> { vec![0; 4] }
//!     fn absorb(&self, s: &mut Vec<u64>, r: &usize) -> Result<(), ldp_core::CoreError> {
//!         s[*r % 4] += 1;
//!         Ok(())
//!     }
//!     fn merge_state(&self, s: &mut Vec<u64>, o: &Vec<u64>) -> Result<(), ldp_core::CoreError> {
//!         for (a, b) in s.iter_mut().zip(o) { *a += b; }
//!         Ok(())
//!     }
//!     fn finalize(&self, s: &Vec<u64>) -> Result<Vec<u64>, ldp_core::CoreError> {
//!         Ok(s.clone())
//!     }
//! }
//!
//! let mech = Tally;
//! let state = vec![3, 1, 4, 1];
//! let text = encode_snapshot(&mech, "tally:d=4", &state, 9);
//! let (restored, count) = decode_snapshot(&mech, "tally:d=4", &text).unwrap();
//! assert_eq!(restored, state);
//! assert_eq!(count, 9);
//! // A flipped byte is rejected, never silently absorbed.
//! assert!(decode_snapshot(&mech, "tally:d=4", &text.replace("3 1 4 1", "3 1 5 1")).is_err());
//! ```

use crate::error::CoreError;
use crate::mechanism::Mechanism;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The container format version this build writes and the only version it
/// reads. Bump on any incompatible change to the header or body layout.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic first token of every snapshot file.
const MAGIC: &str = "ldp-snapshot";

/// A mechanism state with an exact text encoding for persistence.
///
/// The contract mirrors [`crate::wire::WireReport`], lifted from single
/// reports to whole accumulators:
///
/// - [`SnapshotState::encode_state`] appends zero or more complete
///   newline-terminated lines to `out`;
/// - [`SnapshotState::decode_state`] consumes exactly the lines its
///   encoder wrote from the iterator and reconstructs the state;
/// - the reconstructed state is *operationally identical*: finalizing it,
///   absorbing further reports into it, or merging it produces results
///   bit-identical to the original accumulator.
///
/// Implementations must validate structurally (counts, tags, field
/// arity) and reject anything their encoder could not have produced;
/// configuration-level validation (does this state belong to *this*
/// mechanism?) is the container's job via the fingerprint line.
pub trait SnapshotState: Sized {
    /// Appends the encoded state as complete `\n`-terminated lines.
    fn encode_state(&self, out: &mut String);

    /// Decodes the lines produced by [`SnapshotState::encode_state`],
    /// consuming exactly as many items from `lines` as the encoder wrote.
    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError>;
}

/// `Vec<u64>` is the simplest useful accumulator (per-bucket counts); its
/// encoding doubles as the reference single-line layout: a length prefix
/// followed by that many fields.
impl SnapshotState for Vec<u64> {
    fn encode_state(&self, out: &mut String) {
        let _ = write!(out, "u64 {}", self.len());
        for v in self {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }

    fn decode_state(lines: &mut dyn Iterator<Item = &str>) -> Result<Self, CoreError> {
        let line = next_line(lines, "u64 state")?;
        let mut it = line.split_whitespace();
        expect_tag(it.next(), "u64")?;
        let len: usize = parse_snapshot_field(it.next(), "u64 state length")?;
        let vals: Vec<u64> = parse_fields(it, len, "u64 state entry")?;
        Ok(vals)
    }
}

/// Pulls the next line or reports what was missing — the uniform
/// truncation error every decoder uses.
pub fn next_line<'a>(
    lines: &mut dyn Iterator<Item = &'a str>,
    what: &str,
) -> Result<&'a str, CoreError> {
    lines.next().ok_or_else(|| {
        CoreError::Snapshot(format!("unexpected end of snapshot body: missing {what}"))
    })
}

/// Checks a state line's leading tag.
pub fn expect_tag(field: Option<&str>, tag: &str) -> Result<(), CoreError> {
    match field {
        Some(f) if f == tag => Ok(()),
        other => Err(CoreError::Snapshot(format!(
            "expected state tag {tag:?}, found {other:?}"
        ))),
    }
}

/// Parses one mandatory whitespace-separated field.
pub fn parse_snapshot_field<T: std::str::FromStr>(
    field: Option<&str>,
    what: &str,
) -> Result<T, CoreError> {
    let field = field.ok_or_else(|| CoreError::Snapshot(format!("missing field: {what}")))?;
    field
        .parse()
        .map_err(|_| CoreError::Snapshot(format!("cannot parse {what} from {field:?}")))
}

/// Parses exactly `len` fields from `it` and rejects both shortfall and
/// trailing surplus — a tampered length prefix must fail, not misparse.
pub fn parse_fields<'a, T: std::str::FromStr>(
    mut it: impl Iterator<Item = &'a str>,
    len: usize,
    what: &str,
) -> Result<Vec<T>, CoreError> {
    let mut out = Vec::new();
    for i in 0..len {
        let field = it.next().ok_or_else(|| {
            CoreError::Snapshot(format!("expected {len} x {what}, found only {i}"))
        })?;
        out.push(
            field
                .parse()
                .map_err(|_| CoreError::Snapshot(format!("cannot parse {what} from {field:?}")))?,
        );
    }
    if let Some(extra) = it.next() {
        return Err(CoreError::Snapshot(format!(
            "trailing field {extra:?} after {len} x {what}"
        )));
    }
    Ok(out)
}

/// Per-session dedup cursors: session id → next expected frame sequence
/// number. The sequenced ingest protocol (`docs/WIRE_FORMAT.md` §3)
/// persists these inside the snapshot container so a collector restart
/// suppresses replayed frames exactly like a live reconnect does.
pub type SessionCursors = BTreeMap<String, u64>;

/// Whether `id` is a well-formed session id: 1–64 characters drawn from
/// `[A-Za-z0-9._-]`. Session ids appear as single whitespace-delimited
/// tokens in both the wire hello and the snapshot sessions section, so
/// the charset is restricted to keep every parser unambiguous.
#[must_use]
pub fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// The parsed header of a snapshot file — everything a tool can know
/// without the mechanism in hand (see the `inspect` collector subcommand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Container format version.
    pub version: u32,
    /// Human-readable mechanism configuration id (the collector's
    /// canonical spec string).
    pub mechanism: String,
    /// The mechanism's 64-bit configuration fingerprint.
    pub fingerprint: u64,
    /// Reports absorbed into the snapshotted state.
    pub count: u64,
    /// Number of state body lines that follow the header.
    pub body_lines: u64,
    /// Sequenced-session dedup cursors from the optional `sessions`
    /// section (empty for windows that never served a sequenced session).
    pub sessions: SessionCursors,
}

/// FNV-1a 64-bit over the header-and-body text: cheap, dependency-free,
/// and plenty to catch torn writes and bit rot (snapshots are not an
/// integrity boundary against adversaries — see `docs/OPERATIONS.md`).
#[must_use]
pub fn snapshot_checksum(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a complete snapshot file for `state` as collected by `mech`
/// under the configuration id `mechanism_id`.
///
/// Layout (one header field per line, then the body, then the checksum —
/// normative spec in `docs/WIRE_FORMAT.md`):
///
/// ```text
/// ldp-snapshot v1
/// mechanism <id>
/// fingerprint <16 hex digits>
/// count <u64>
/// body-lines <u64>
/// <body ...>
/// checksum <16 hex digits>
/// ```
#[must_use]
pub fn encode_snapshot<M>(mech: &M, mechanism_id: &str, state: &M::State, count: u64) -> String
where
    M: Mechanism,
    M::State: SnapshotState,
{
    encode_snapshot_with_sessions(mech, mechanism_id, state, count, &SessionCursors::new())
}

/// [`encode_snapshot`] plus the optional **sessions section**: when
/// `sessions` is non-empty, the lines
///
/// ```text
/// sessions <k>
/// session <id> <cursor>      × k, sorted by id
/// ```
///
/// are appended between the state body and the checksum line (so the
/// checksum covers them). An empty cursor map writes no section at all —
/// windows that never served a sequenced session stay byte-identical to
/// containers from earlier builds.
#[must_use]
pub fn encode_snapshot_with_sessions<M>(
    mech: &M,
    mechanism_id: &str,
    state: &M::State,
    count: u64,
    sessions: &SessionCursors,
) -> String
where
    M: Mechanism,
    M::State: SnapshotState,
{
    debug_assert!(
        !mechanism_id.contains('\n'),
        "mechanism ids are single-line"
    );
    debug_assert!(
        sessions.keys().all(|id| valid_session_id(id)),
        "session ids must be validated before they reach the container"
    );
    let mut body = String::new();
    state.encode_state(&mut body);
    let body_lines = body.lines().count() as u64;
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC} v{SNAPSHOT_VERSION}");
    let _ = writeln!(out, "mechanism {mechanism_id}");
    let _ = writeln!(out, "fingerprint {:016x}", mech.fingerprint());
    let _ = writeln!(out, "count {count}");
    let _ = writeln!(out, "body-lines {body_lines}");
    out.push_str(&body);
    if !sessions.is_empty() {
        let _ = writeln!(out, "sessions {}", sessions.len());
        for (id, cursor) in sessions {
            let _ = writeln!(out, "session {id} {cursor}");
        }
    }
    let _ = writeln!(out, "checksum {:016x}", snapshot_checksum(&out));
    out
}

/// Parses and validates the header and checksum of a snapshot file
/// without needing the mechanism. Returns the header and the body lines.
///
/// Rejects: a missing/foreign magic line, an unsupported version, a
/// malformed header field, a body shorter than `body-lines` claims
/// (truncated mid-write), a missing or mismatched checksum line, and
/// trailing content after the checksum.
pub fn parse_snapshot(text: &str) -> Result<(SnapshotHeader, Vec<&str>), CoreError> {
    let mut lines = text.lines();
    let magic = lines
        .next()
        .ok_or_else(|| CoreError::Snapshot("empty snapshot file".into()))?;
    let version = match magic.strip_prefix(MAGIC) {
        Some(rest) => {
            let rest = rest.trim();
            let v = rest
                .strip_prefix('v')
                .ok_or_else(|| CoreError::Snapshot(format!("malformed version token {rest:?}")))?;
            v.parse::<u32>()
                .map_err(|_| CoreError::Snapshot(format!("malformed version token {rest:?}")))?
        }
        None => {
            return Err(CoreError::Snapshot(format!(
                "not a snapshot file (first line {magic:?})"
            )))
        }
    };
    if version != SNAPSHOT_VERSION {
        return Err(CoreError::Snapshot(format!(
            "unsupported snapshot version {version} (this build reads v{SNAPSHOT_VERSION})"
        )));
    }
    let header_field = |lines: &mut std::str::Lines<'_>, key: &str| -> Result<String, CoreError> {
        let line = lines.next().ok_or_else(|| {
            CoreError::Snapshot(format!("truncated snapshot: missing {key} header line"))
        })?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_owned)
            .ok_or_else(|| {
                CoreError::Snapshot(format!("expected {key:?} header line, found {line:?}"))
            })
    };
    let mechanism = header_field(&mut lines, "mechanism")?;
    let fingerprint = u64::from_str_radix(&header_field(&mut lines, "fingerprint")?, 16)
        .map_err(|_| CoreError::Snapshot("malformed fingerprint header".into()))?;
    let count: u64 = header_field(&mut lines, "count")?
        .parse()
        .map_err(|_| CoreError::Snapshot("malformed count header".into()))?;
    let body_lines: u64 = header_field(&mut lines, "body-lines")?
        .parse()
        .map_err(|_| CoreError::Snapshot("malformed body-lines header".into()))?;
    // The header is untrusted until the checksum verifies: never size an
    // allocation from it (a hostile `body-lines` must produce a clean
    // truncation error, not a capacity-overflow panic). The vector grows
    // as real lines are actually read.
    let mut body = Vec::with_capacity((body_lines as usize).min(1024));
    for i in 0..body_lines {
        body.push(lines.next().ok_or_else(|| {
            CoreError::Snapshot(format!(
                "truncated snapshot: {i} of {body_lines} body lines present"
            ))
        })?);
    }
    let mut after_body = lines
        .next()
        .ok_or_else(|| CoreError::Snapshot("truncated snapshot: missing checksum line".into()))?;
    let mut sessions = SessionCursors::new();
    if let Some(rest) = after_body.strip_prefix("sessions ") {
        let declared: u64 = rest
            .parse()
            .map_err(|_| CoreError::Snapshot(format!("malformed sessions count {rest:?}")))?;
        if declared == 0 {
            return Err(CoreError::Snapshot(
                "empty sessions section (omit the section instead)".into(),
            ));
        }
        for i in 0..declared {
            let line = lines.next().ok_or_else(|| {
                CoreError::Snapshot(format!(
                    "truncated snapshot: {i} of {declared} session lines present"
                ))
            })?;
            let mut it = line.split_whitespace();
            expect_tag(it.next(), "session")
                .map_err(|_| CoreError::Snapshot(format!("malformed session line {line:?}")))?;
            let id = it
                .next()
                .ok_or_else(|| CoreError::Snapshot(format!("malformed session line {line:?}")))?;
            if !valid_session_id(id) {
                return Err(CoreError::Snapshot(format!("invalid session id {id:?}")));
            }
            let cursor: u64 = parse_snapshot_field(it.next(), "session cursor")?;
            if let Some(extra) = it.next() {
                return Err(CoreError::Snapshot(format!(
                    "trailing field {extra:?} on session line {line:?}"
                )));
            }
            if sessions.insert(id.to_owned(), cursor).is_some() {
                return Err(CoreError::Snapshot(format!("duplicate session id {id:?}")));
            }
        }
        after_body = lines.next().ok_or_else(|| {
            CoreError::Snapshot("truncated snapshot: missing checksum line".into())
        })?;
    }
    let checksum_line = after_body;
    let recorded = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| CoreError::Snapshot(format!("malformed checksum line {checksum_line:?}")))?;
    if lines.next().is_some() {
        return Err(CoreError::Snapshot(
            "trailing content after the checksum line".into(),
        ));
    }
    // The checksum covers everything up to and including the last body
    // line. The checksum line is the final line (verified above), so
    // strip it — plus its trailing newline if present — positionally
    // rather than by substring search, which a body line could spoof.
    let tail = if text.ends_with('\n') {
        checksum_line.len() + 1
    } else {
        checksum_line.len()
    };
    let covered = &text[..text.len() - tail];
    let actual = snapshot_checksum(covered);
    if actual != recorded {
        return Err(CoreError::Snapshot(format!(
            "checksum mismatch: recorded {recorded:016x}, computed {actual:016x} (corrupted snapshot)"
        )));
    }
    Ok((
        SnapshotHeader {
            version,
            mechanism,
            fingerprint,
            count,
            body_lines,
            sessions,
        },
        body,
    ))
}

/// Decodes a snapshot produced by [`encode_snapshot`], validating it
/// against the receiving mechanism. Returns the restored state and the
/// absorbed-report count.
///
/// On top of [`parse_snapshot`]'s structural checks this rejects snapshots
/// whose mechanism id or configuration fingerprint differ from the
/// receiver's — a snapshot from a different ε, domain, or protocol must
/// never merge into this window. The decoded state is additionally folded
/// through [`Mechanism::merge_state`] into a fresh empty state, so the
/// mechanism's own dimension checks run before anything is trusted.
pub fn decode_snapshot<M>(
    mech: &M,
    mechanism_id: &str,
    text: &str,
) -> Result<(M::State, u64), CoreError>
where
    M: Mechanism,
    M::State: SnapshotState,
{
    let (state, count, _) = decode_snapshot_with_sessions(mech, mechanism_id, text)?;
    Ok((state, count))
}

/// [`decode_snapshot`] plus the sequenced-session dedup cursors from the
/// optional sessions section (an empty map when the section is absent).
/// Collectors that resume a window use this so replayed frames from
/// before the crash are suppressed, not double-counted.
pub fn decode_snapshot_with_sessions<M>(
    mech: &M,
    mechanism_id: &str,
    text: &str,
) -> Result<(M::State, u64, SessionCursors), CoreError>
where
    M: Mechanism,
    M::State: SnapshotState,
{
    let (header, body) = parse_snapshot(text)?;
    if header.mechanism != mechanism_id {
        return Err(CoreError::ShardMismatch(format!(
            "snapshot was collected for mechanism {:?}, this collector runs {mechanism_id:?}",
            header.mechanism
        )));
    }
    let expected = mech.fingerprint();
    if header.fingerprint != expected {
        return Err(CoreError::ShardMismatch(format!(
            "snapshot fingerprint {:016x} does not match this configuration ({expected:016x})",
            header.fingerprint
        )));
    }
    let mut lines = body.into_iter();
    let decoded = M::State::decode_state(&mut lines)?;
    if let Some(extra) = lines.next() {
        return Err(CoreError::Snapshot(format!(
            "trailing body line {extra:?} after the state"
        )));
    }
    // Fold through merge_state so the mechanism's structural validation
    // (bucket counts, level counts, …) runs on the decoded state.
    let mut state = mech.empty_state();
    mech.merge_state(&mut state, &decoded)?;
    Ok((state, header.count, header.sessions))
}

/// A single-slot, latest-wins handoff between the thread that *renders*
/// snapshots and the thread that *persists* them.
///
/// The copy-on-snapshot discipline for concurrent ingest: the committing
/// thread renders the container text (a cheap O(d̃) encode of a clone-free
/// borrow — encoding never mutates the state) and
/// [`publish`](Self::publish)es it without ever blocking; a dedicated
/// writer service loops on [`take_tagged`](Self::take_tagged) and does the
/// slow fsync-and-rename I/O off the hot path. If the writer falls behind,
/// newly published snapshots *replace* the unwritten one — persisting a
/// superseded recovery point would be pure wasted I/O, and crash recovery
/// only ever needs the most recent snapshot plus the replay log.
///
/// A caller that must not answer anyone until a snapshot is durable
/// registers a callback with [`when_written`](Self::when_written) instead
/// of blocking: the writer runs it once the generation lands (or the
/// spool is [`poison`](Self::poison)ed).
///
/// [`close`](Self::close) ends the stream: the writer drains the last
/// pending snapshot (if any) and then sees `None`.
#[derive(Debug, Default)]
pub struct SnapshotSpool {
    slot: std::sync::Mutex<SpoolSlot>,
    ready: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct SpoolSlot {
    pending: Option<(u64, String)>,
    closed: bool,
    superseded: u64,
    /// Generation stamp of the most recent publish.
    published: u64,
    /// Highest generation the writer has durably persisted.
    written: u64,
    /// The writer died without persisting: waiters are answered `false`.
    poisoned: bool,
    /// Callbacks waiting for a generation to become durable.
    waiters: Vec<DurabilityWaiter>,
}

/// A [`SnapshotSpool::when_written`] callback and the generation it waits
/// for.
struct DurabilityWaiter {
    generation: u64,
    then: Box<dyn FnOnce(bool) + Send>,
}

impl std::fmt::Debug for DurabilityWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurabilityWaiter({})", self.generation)
    }
}

impl SnapshotSpool {
    /// An empty, open spool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits a rendered snapshot, replacing any unwritten predecessor,
    /// and returns the publication's generation stamp (monotonic; pass it
    /// to [`when_written`](Self::when_written) when an answer must wait
    /// until this snapshot — or a newer one — is durable). Never blocks —
    /// this is the committing side of the "snapshot writes never stall
    /// ingest" guarantee. Publishing after [`close`](Self::close) is a
    /// no-op (the stamp of the last accepted publish is returned).
    pub fn publish(&self, text: String) -> u64 {
        let mut slot = self.slot.lock().expect("spool lock poisoned");
        if slot.closed {
            return slot.published;
        }
        slot.published += 1;
        let generation = slot.published;
        if slot.pending.replace((generation, text)).is_some() {
            slot.superseded += 1;
        }
        drop(slot);
        self.ready.notify_all();
        generation
    }

    /// Blocks until a snapshot is pending or the spool is closed, and
    /// returns it with its generation stamp, which the writer reports back
    /// through [`mark_written`](Self::mark_written) once it is durable.
    /// Returns `None` only when the spool is closed *and* drained — the
    /// writer's clean shutdown signal.
    pub fn take_tagged(&self) -> Option<(u64, String)> {
        let mut slot = self.slot.lock().expect("spool lock poisoned");
        loop {
            if let Some(tagged) = slot.pending.take() {
                return Some(tagged);
            }
            if slot.closed {
                return None;
            }
            slot = self.ready.wait(slot).expect("spool lock poisoned");
        }
    }

    /// Records that the snapshot stamped `generation` has been durably
    /// persisted and runs, on the calling thread, every
    /// [`when_written`](Self::when_written) callback waiting at or below
    /// it. Because the spool is latest-wins, persisting a later snapshot
    /// subsumes every earlier one.
    pub fn mark_written(&self, generation: u64) {
        let mut slot = self.slot.lock().expect("spool lock poisoned");
        slot.written = slot.written.max(generation);
        let written = slot.written;
        let (due, waiting) = std::mem::take(&mut slot.waiters)
            .into_iter()
            .partition(|w| w.generation <= written);
        slot.waiters = waiting;
        drop(slot);
        answer(due, true);
    }

    /// Marks the writer as dead without durability: every waiting and
    /// every later [`when_written`](Self::when_written) callback is
    /// answered `false`.
    pub fn poison(&self) {
        let mut slot = self.slot.lock().expect("spool lock poisoned");
        slot.poisoned = true;
        let due = std::mem::take(&mut slot.waiters);
        drop(slot);
        answer(due, false);
    }

    /// Runs `then(true)` once the writer has persisted the snapshot
    /// stamped `generation` (or a newer one), or `then(false)` if the
    /// spool is [`poison`](Self::poison)ed first — the snapshot must then
    /// be treated as *not* durable. Never blocks: when the answer is
    /// already known, `then` runs here, before this call returns;
    /// otherwise it runs later on the writer's thread.
    pub fn when_written(&self, generation: u64, then: Box<dyn FnOnce(bool) + Send>) {
        let mut slot = self.slot.lock().expect("spool lock poisoned");
        let known = if slot.written >= generation {
            Some(true)
        } else if slot.poisoned {
            Some(false)
        } else {
            None
        };
        match known {
            Some(durable) => {
                drop(slot);
                then(durable);
            }
            None => slot.waiters.push(DurabilityWaiter { generation, then }),
        }
    }

    /// Ends the stream and wakes the writer so it can drain and exit.
    pub fn close(&self) {
        self.slot.lock().expect("spool lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// How many published snapshots were superseded before being written
    /// — a writer-falling-behind signal worth surfacing in serve stats.
    #[must_use]
    pub fn superseded(&self) -> u64 {
        self.slot.lock().expect("spool lock poisoned").superseded
    }
}

/// Runs durability callbacks outside the spool lock, so a callback may
/// take other locks freely.
fn answer(waiters: Vec<DurabilityWaiter>, durable: bool) {
    for waiter in waiters {
        (waiter.then)(durable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Epsilon;

    #[derive(Clone)]
    struct Tally {
        buckets: usize,
    }

    impl Mechanism for Tally {
        type Input = usize;
        type Report = usize;
        type State = Vec<u64>;
        type Output = Vec<u64>;

        fn epsilon(&self) -> Epsilon {
            Epsilon::new(1.0).unwrap()
        }

        fn fingerprint(&self) -> u64 {
            0xbeef ^ self.buckets as u64
        }

        fn randomize<R: rand::Rng + ?Sized>(
            &self,
            v: &usize,
            _rng: &mut R,
        ) -> Result<usize, CoreError> {
            Ok(*v)
        }

        fn empty_state(&self) -> Vec<u64> {
            vec![0; self.buckets]
        }

        fn absorb(&self, s: &mut Vec<u64>, r: &usize) -> Result<(), CoreError> {
            s[*r] += 1;
            Ok(())
        }

        fn merge_state(&self, s: &mut Vec<u64>, o: &Vec<u64>) -> Result<(), CoreError> {
            if s.len() != o.len() {
                return Err(CoreError::ShardMismatch("bucket counts differ".into()));
            }
            for (a, b) in s.iter_mut().zip(o) {
                *a += b;
            }
            Ok(())
        }

        fn finalize(&self, s: &Vec<u64>) -> Result<Vec<u64>, CoreError> {
            Ok(s.clone())
        }
    }

    fn snapshot() -> (Tally, String) {
        let mech = Tally { buckets: 4 };
        let state = vec![5, 0, 2, 9];
        (
            mech.clone(),
            encode_snapshot(&mech, "tally:d=4", &state, 16),
        )
    }

    #[test]
    fn round_trips_exactly() {
        let (mech, text) = snapshot();
        let (state, count) = decode_snapshot(&mech, "tally:d=4", &text).unwrap();
        assert_eq!(state, vec![5, 0, 2, 9]);
        assert_eq!(count, 16);
        let header = parse_snapshot(&text).unwrap().0;
        assert_eq!(header.version, SNAPSHOT_VERSION);
        assert_eq!(header.mechanism, "tally:d=4");
        assert_eq!(header.count, 16);
    }

    #[test]
    fn truncation_at_every_point_is_rejected() {
        let (mech, text) = snapshot();
        // Cut the file after every prefix length that ends at a line
        // boundary (a torn write without the atomic rename discipline).
        let mut offset = 0;
        for line in text.lines() {
            offset += line.len() + 1;
            if offset >= text.len() {
                break;
            }
            let truncated = &text[..offset];
            assert!(
                decode_snapshot(&mech, "tally:d=4", truncated).is_err(),
                "prefix of {offset} bytes must be rejected"
            );
        }
        // Mid-line truncation too.
        assert!(decode_snapshot(&mech, "tally:d=4", &text[..text.len() - 3]).is_err());
    }

    #[test]
    fn corruption_is_rejected() {
        let (mech, text) = snapshot();
        let corrupted = text.replace("5 0 2 9", "5 0 3 9");
        assert!(matches!(
            decode_snapshot(&mech, "tally:d=4", &corrupted),
            Err(CoreError::Snapshot(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn cross_configuration_is_rejected() {
        let (_, text) = snapshot();
        let other = Tally { buckets: 8 };
        // Same id, different fingerprint.
        assert!(matches!(
            decode_snapshot(&other, "tally:d=4", &text),
            Err(CoreError::ShardMismatch(_))
        ));
        // Different id entirely.
        let mech = Tally { buckets: 4 };
        assert!(matches!(
            decode_snapshot(&mech, "tally:d=8", &text),
            Err(CoreError::ShardMismatch(_))
        ));
    }

    #[test]
    fn foreign_and_future_files_are_rejected() {
        let mech = Tally { buckets: 4 };
        assert!(decode_snapshot(&mech, "x", "").is_err());
        assert!(decode_snapshot(&mech, "x", "not a snapshot\n").is_err());
        let (_, text) = snapshot();
        let future = text.replacen("ldp-snapshot v1", "ldp-snapshot v2", 1);
        assert!(matches!(
            decode_snapshot(&mech, "tally:d=4", &future),
            Err(CoreError::Snapshot(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let (mech, text) = snapshot();
        let padded = format!("{text}stray line\n");
        assert!(decode_snapshot(&mech, "tally:d=4", &padded).is_err());
    }

    #[test]
    fn tampered_length_prefix_is_rejected() {
        let mut s = String::new();
        vec![1u64, 2, 3].encode_state(&mut s);
        // Claim more fields than present.
        let long = s.replacen("u64 3", "u64 4", 1);
        let mut it = long.lines();
        assert!(Vec::<u64>::decode_state(&mut it).is_err());
        // Claim fewer fields than present.
        let short = s.replacen("u64 3", "u64 2", 1);
        let mut it = short.lines();
        assert!(Vec::<u64>::decode_state(&mut it).is_err());
    }

    #[test]
    fn hostile_body_lines_header_errors_without_allocating() {
        // A tampered body-lines count must produce a truncation error —
        // never a capacity-overflow panic or a multi-GB allocation.
        let (mech, text) = snapshot();
        for huge in ["18446744073709551615", "9999999999"] {
            let hostile = text.replacen("body-lines 1", &format!("body-lines {huge}"), 1);
            match decode_snapshot(&mech, "tally:d=4", &hostile) {
                Err(CoreError::Snapshot(msg)) => {
                    assert!(msg.contains("truncated"), "{msg}")
                }
                other => panic!("expected truncation error, got {other:?}"),
            }
        }
        assert!(decode_snapshot(
            &mech,
            "tally:d=4",
            &text.replacen("body-lines 1", "body-lines -1", 1)
        )
        .is_err());
    }

    #[test]
    fn spool_is_latest_wins() {
        let spool = SnapshotSpool::new();
        spool.publish("first".into());
        spool.publish("second".into());
        spool.publish("third".into());
        assert_eq!(spool.superseded(), 2);
        assert_eq!(spool.take_tagged(), Some((3, "third".to_string())));
        spool.close();
        assert_eq!(spool.take_tagged(), None);
    }

    #[test]
    fn spool_close_drains_the_pending_snapshot_first() {
        let spool = SnapshotSpool::new();
        spool.publish("last".into());
        spool.close();
        assert_eq!(spool.take_tagged(), Some((1, "last".to_string())));
        assert_eq!(spool.take_tagged(), None);
        // Publishing after close is a no-op.
        spool.publish("late".into());
        assert_eq!(spool.take_tagged(), None);
    }

    #[test]
    fn spool_take_blocks_until_published() {
        let spool = SnapshotSpool::new();
        std::thread::scope(|s| {
            let taker = s.spawn(|| spool.take_tagged());
            std::thread::sleep(std::time::Duration::from_millis(30));
            spool.publish("arrived".into());
            assert_eq!(taker.join().unwrap(), Some((1, "arrived".to_string())));
        });
        // The taker consumed it: nothing is left to drain.
        spool.close();
        assert_eq!(spool.take_tagged(), None);
    }

    /// Registers a durability callback for `generation` and returns the
    /// receiving end of its answer.
    fn durability(spool: &SnapshotSpool, generation: u64) -> std::sync::mpsc::Receiver<bool> {
        let (tx, rx) = std::sync::mpsc::channel();
        spool.when_written(
            generation,
            Box::new(move |durable| tx.send(durable).unwrap()),
        );
        rx
    }

    #[test]
    fn spool_generations_track_durability() {
        let spool = SnapshotSpool::new();
        let g1 = spool.publish("one".into());
        let g2 = spool.publish("two".into());
        assert!(g2 > g1);
        let early = durability(&spool, g1);
        // Latest-wins: the writer takes g2, and marking it written
        // subsumes g1.
        let (taken, text) = spool.take_tagged().unwrap();
        assert_eq!((taken, text.as_str()), (g2, "two"));
        spool.mark_written(taken);
        assert_eq!(early.try_recv(), Ok(true));
        // Already durable: a late registration is answered at once.
        assert_eq!(durability(&spool, g2).try_recv(), Ok(true));
    }

    #[test]
    fn spool_durability_waiter_fires_when_the_writer_reports() {
        let spool = SnapshotSpool::new();
        let g = spool.publish("pending".into());
        let answer = durability(&spool, g);
        assert!(answer.try_recv().is_err(), "nothing is durable yet");
        std::thread::scope(|s| {
            s.spawn(|| {
                let (taken, _) = spool.take_tagged().unwrap();
                spool.mark_written(taken);
            });
            // Answered from the writer's thread, once it has persisted.
            assert_eq!(
                answer.recv_timeout(std::time::Duration::from_secs(5)),
                Ok(true)
            );
        });
        // A newer generation is not covered by the older write.
        let g2 = spool.publish("newer".into());
        let later = durability(&spool, g2);
        spool.mark_written(g);
        assert!(later.try_recv().is_err());
    }

    #[test]
    fn spool_poison_releases_waiters_as_not_durable() {
        let spool = SnapshotSpool::new();
        let g = spool.publish("never written".into());
        let waiting = durability(&spool, g);
        spool.poison();
        assert_eq!(waiting.try_recv(), Ok(false));
        // Poisoned stays poisoned for later waiters too.
        assert_eq!(durability(&spool, g).try_recv(), Ok(false));
    }

    #[test]
    fn spool_take_blocks_until_closed() {
        let spool = SnapshotSpool::new();
        std::thread::scope(|s| {
            let taker = s.spawn(|| spool.take_tagged());
            std::thread::sleep(std::time::Duration::from_millis(30));
            spool.close();
            assert_eq!(taker.join().unwrap(), None);
        });
    }

    #[test]
    fn sessions_section_round_trips() {
        let mech = Tally { buckets: 4 };
        let state = vec![5, 0, 2, 9];
        let mut cursors = SessionCursors::new();
        cursors.insert("phone-7".into(), 42);
        cursors.insert("fleet.3_b".into(), 1);
        let text = encode_snapshot_with_sessions(&mech, "tally:d=4", &state, 16, &cursors);
        let (restored, count, sessions) =
            decode_snapshot_with_sessions(&mech, "tally:d=4", &text).unwrap();
        assert_eq!(restored, state);
        assert_eq!(count, 16);
        assert_eq!(sessions, cursors);
        // The plain decoder still accepts the file (and discards cursors).
        let (restored2, _) = decode_snapshot(&mech, "tally:d=4", &text).unwrap();
        assert_eq!(restored2, state);
        // Deterministic layout: ids sorted, one line each.
        assert!(text.contains("sessions 2\nsession fleet.3_b 1\nsession phone-7 42\n"));
    }

    #[test]
    fn empty_sessions_map_keeps_legacy_bytes() {
        let mech = Tally { buckets: 4 };
        let state = vec![5, 0, 2, 9];
        let legacy = encode_snapshot(&mech, "tally:d=4", &state, 16);
        let with_empty =
            encode_snapshot_with_sessions(&mech, "tally:d=4", &state, 16, &SessionCursors::new());
        assert_eq!(legacy, with_empty);
        assert!(!legacy.contains("sessions"));
        let (_, _, sessions) = decode_snapshot_with_sessions(&mech, "tally:d=4", &legacy).unwrap();
        assert!(sessions.is_empty());
    }

    #[test]
    fn malformed_sessions_sections_are_rejected() {
        let mech = Tally { buckets: 4 };
        let state = vec![5, 0, 2, 9];
        let mut cursors = SessionCursors::new();
        cursors.insert("s1".into(), 7);
        cursors.insert("s2".into(), 9);
        let text = encode_snapshot_with_sessions(&mech, "tally:d=4", &state, 16, &cursors);
        let reject = |mutated: String, why: &str| {
            assert!(
                decode_snapshot_with_sessions(&mech, "tally:d=4", &mutated).is_err(),
                "{why} must be rejected"
            );
        };
        // Any textual tamper trips the checksum.
        reject(text.replace("session s1 7", "session s1 8"), "cursor edit");
        reject(text.replace("sessions 2", "sessions 1"), "count edit");
        // Structural breakage is caught even when re-checksummed.
        let rechecksum = |body_edit: &str, to: &str| {
            let edited = text.replace(body_edit, to);
            let covered_end = edited.rfind("checksum ").unwrap();
            let covered = &edited[..covered_end];
            format!("{covered}checksum {:016x}\n", snapshot_checksum(covered))
        };
        reject(
            rechecksum("session s2 9", "session s1 9"),
            "duplicate session id",
        );
        reject(
            rechecksum("session s2 9", "session bad!id 9"),
            "invalid session id",
        );
        reject(
            rechecksum("session s2 9", "session s2 9 extra"),
            "trailing session field",
        );
        reject(rechecksum("session s2 9", "session s2"), "missing cursor");
        reject(rechecksum("sessions 2", "sessions 3"), "overlong count");
        reject(
            rechecksum("sessions 2\nsession s1 7\nsession s2 9\n", "sessions 0\n"),
            "explicit empty section",
        );
        reject(
            rechecksum("sessions 2", "sessions x"),
            "non-numeric session count",
        );
    }

    #[test]
    fn session_id_validation() {
        assert!(valid_session_id("a"));
        assert!(valid_session_id("fleet-3_b.7"));
        assert!(valid_session_id(&"x".repeat(64)));
        assert!(!valid_session_id(""));
        assert!(!valid_session_id(&"x".repeat(65)));
        assert!(!valid_session_id("has space"));
        assert!(!valid_session_id("new\nline"));
        assert!(!valid_session_id("ütf"));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = snapshot_checksum("hello snapshot");
        assert_eq!(a, snapshot_checksum("hello snapshot"));
        assert_ne!(a, snapshot_checksum("hello snapshos"));
        assert_ne!(snapshot_checksum(""), snapshot_checksum("\n"));
    }
}
