//! The type-erased collection session: one mechanism configuration, one
//! streaming aggregation state, driven entirely through text.
//!
//! [`CollectorSession`] erases the mechanism's associated types behind an
//! object-safe surface whose currency is the two `ldp-core` text formats:
//! wire-report lines in, snapshot files out. The generic [`Session`] is
//! the single implementation — the registry instantiates it once per
//! mechanism family, supplying the input adapter (how a synthetic client
//! value in `[0, 1]` maps to the mechanism's input domain) and the output
//! renderer (how the finalized estimate prints).

use crate::error::CollectorError;
use ldp_core::snapshot::SnapshotState;
use ldp_core::{
    decode_snapshot_with_sessions, encode_snapshot_with_sessions, Mechanism, SessionCursors,
    WireReport,
};
use ldp_numeric::SplitMix64;
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

/// Below this many lines a bulk ingest stays on the calling thread; the
/// pool's per-batch bookkeeping only pays for itself on real batches.
const SHARD_MIN_LINES: usize = 4096;

/// One collection window over one mechanism configuration, driven through
/// text: wire-report lines in, snapshot text and rendered estimates out.
///
/// All mutating entry points are all-or-nothing: on any error the session
/// state is exactly what it was before the call, so a collector can log
/// the offending input and keep its window.
pub trait CollectorSession: Send {
    /// The canonical mechanism id (also the snapshot header id). Two
    /// sessions with equal ids accept each other's snapshots.
    fn mechanism_id(&self) -> &str;

    /// The mechanism's 64-bit configuration fingerprint.
    fn fingerprint(&self) -> u64;

    /// Reports absorbed so far.
    fn count(&self) -> u64;

    /// Decodes and absorbs one wire-report line.
    fn ingest_line(&mut self, line: &str) -> Result<(), CollectorError>;

    /// Decodes and absorbs every non-blank line of `text`, sharding the
    /// decode+absorb across the shared worker pool for large batches.
    /// Returns the number of reports absorbed. All-or-nothing.
    fn ingest_text(&mut self, text: &str) -> Result<u64, CollectorError>;

    /// Renders the current state as a complete snapshot file.
    fn snapshot_text(&self) -> String;

    /// Replaces the session state with a snapshot's (crash recovery).
    /// Rejects snapshots from other configurations, truncated files, and
    /// corrupted files; on rejection the state is unchanged.
    fn restore(&mut self, snapshot: &str) -> Result<(), CollectorError>;

    /// Folds a parallel collector's snapshot into this session
    /// (multi-shard merge). Same rejection rules as [`CollectorSession::restore`].
    fn merge_snapshot(&mut self, snapshot: &str) -> Result<(), CollectorError>;

    /// Finalizes the estimate over everything absorbed and renders it as
    /// text (one value per line; see `docs/OPERATIONS.md` for the layout
    /// per mechanism family). Does not consume the window.
    fn finalize_text(&self) -> Result<String, CollectorError>;

    /// Simulates `n` clients with a deterministic synthetic population
    /// (uniform values in `[0, 1)` on a seed-derived stream) and returns
    /// their wire-report lines — the client side of the zero-to-estimate
    /// walkthrough in `docs/OPERATIONS.md` and of the test harness.
    fn gen_reports(&self, n: u64, seed: u64) -> Result<String, CollectorError>;

    /// A shareable decoder for this session's wire format: the
    /// connection-local half of the concurrent serve path. Handlers call
    /// [`BatchDecoder::prepare`] on their own threads (decode +
    /// validation + pre-absorption into a private shard state, no shared
    /// state touched); each resulting [`PreparedBatch`] is then
    /// committed with [`CollectorSession::absorb_prepared`] under the
    /// window's lock, one commit at a time.
    fn batch_decoder(&self) -> Arc<dyn BatchDecoder>;

    /// Commits a batch prepared by this session's [`BatchDecoder`]:
    /// merges its shard state into the window (exact, so the result is
    /// bit-identical to having ingested the batch's lines directly) and
    /// returns the number of reports absorbed. All-or-nothing; rejects
    /// batches prepared for a different configuration.
    fn absorb_prepared(&mut self, batch: PreparedBatch) -> Result<u64, CollectorError>;

    /// The next expected frame sequence number for sequenced session `id`
    /// (`0` for an id never seen — fresh sessions start at sequence 0).
    /// See `crate::protocol` for the dedup rules built on this cursor.
    fn session_cursor(&self, id: &str) -> u64;

    /// Records `cursor` as the next expected sequence number for `id`.
    /// The caller (the serve path's commit step) advances the cursor in the
    /// same serialized step as the absorb it vouches for, so snapshots
    /// always capture state and cursors consistently.
    fn set_session_cursor(&mut self, id: &str, cursor: u64);

    /// Every sequenced-session dedup cursor this window holds (they ride
    /// inside [`CollectorSession::snapshot_text`] and survive
    /// [`CollectorSession::restore`]).
    fn session_cursors(&self) -> SessionCursors;
}

/// A decoded and pre-absorbed batch on its way from the decoder into the
/// window: a type-erased shard state plus its report count, stamped
/// with the preparing configuration's fingerprint so a batch can never
/// commit into the wrong window.
pub struct PreparedBatch {
    payload: Box<dyn Any + Send>,
    fingerprint: u64,
    reports: u64,
}

impl PreparedBatch {
    /// Reports pre-absorbed into this batch's shard state.
    #[must_use]
    pub fn reports(&self) -> u64 {
        self.reports
    }
}

/// The connection-local decoding stage of the concurrent serve path: owns
/// a clone of the mechanism configuration (mechanisms are cheap O(d̃)
/// values) and turns frame payloads into [`PreparedBatch`]es without ever
/// touching the shared window, so decode + validation fan out across
/// the reactor threads while absorption stays serialized.
pub trait BatchDecoder: Send + Sync {
    /// Decodes every non-blank line of `text` and pre-absorbs the reports
    /// into a fresh shard state. Any malformed line fails the whole batch
    /// with nothing to commit — atomic frame rejection happens *here*, on
    /// the reactor thread, before the frame ever reaches the window.
    fn prepare(&self, text: &str) -> Result<PreparedBatch, CollectorError>;
}

/// The input adapter a registry entry supplies: how a synthetic client
/// value in `[0, 1)` maps into the mechanism's input domain (identity,
/// bucketization, or the signed transform).
pub type InputAdapter<I> = Box<dyn Fn(f64) -> I + Send + Sync>;

/// The output renderer a registry entry supplies: how a finalized
/// estimate prints (one value per line; see `docs/OPERATIONS.md`).
pub type OutputRenderer<O> = Box<dyn Fn(&O) -> Result<String, CollectorError> + Send + Sync>;

/// The one generic [`CollectorSession`] implementation.
pub struct Session<M: Mechanism> {
    mechanism: M,
    state: M::State,
    count: u64,
    cursors: SessionCursors,
    id: String,
    to_input: InputAdapter<M::Input>,
    render: OutputRenderer<M::Output>,
}

/// The [`BatchDecoder`] for a [`Session<M>`]: a clone of the mechanism,
/// decoding on whatever thread calls it.
struct Decoder<M: Mechanism> {
    mechanism: M,
}

impl<M> BatchDecoder for Decoder<M>
where
    M: Mechanism + Clone + Send + Sync + 'static,
    M::Report: WireReport,
    M::State: Send + 'static,
{
    fn prepare(&self, text: &str) -> Result<PreparedBatch, CollectorError> {
        let (state, reports) = absorb_frame(&self.mechanism, text)?;
        Ok(PreparedBatch {
            payload: Box::new(state),
            fingerprint: self.mechanism.fingerprint(),
            reports,
        })
    }
}

/// Decodes every line of `text` into a fresh shard state: the one
/// decode+absorb step behind [`BatchDecoder::prepare`] and
/// [`CollectorSession::ingest_text`]. The whole frame decodes before any
/// report absorbs, so a malformed line is reported ahead of an
/// out-of-domain report on an earlier line. The absorb goes through the
/// bulk `absorb_slice` path, so every family's vectorized kernel (OUE
/// bit-count, HRR scatter, ExactSum bulk add, SW bucket pass) carries the
/// serve path too. Bit-identical to per-line absorbs.
fn absorb_frame<M>(mechanism: &M, text: &str) -> Result<(M::State, u64), CollectorError>
where
    M: Mechanism,
    M::Report: WireReport,
{
    let mut reports = Vec::new();
    M::Report::decode_frame(text, &mut reports)?;
    let mut state = mechanism.empty_state();
    mechanism.absorb_slice(&mut state, &reports)?;
    Ok((state, reports.len() as u64))
}

/// Cuts `text` into at most `parts` consecutive pieces of similar byte
/// length, each ending just after a `\n` (the last at the end of `text`),
/// so no line straddles two pieces.
fn split_lines(text: &str, parts: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let target = bytes.len().div_ceil(parts.max(1));
    let mut pieces = Vec::with_capacity(parts);
    let mut start = 0;
    while start < bytes.len() {
        let cut = (start + target).min(bytes.len());
        let end = bytes[cut..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |n| cut + n + 1);
        pieces.push(&text[start..end]);
        start = end;
    }
    pieces
}

impl<M> Session<M>
where
    M: Mechanism + Clone + Send + Sync + 'static,
    M::Input: Sized,
    M::Report: WireReport + Send,
    M::State: SnapshotState + Clone + Send + Sync + 'static,
{
    /// A fresh session for `mechanism` under the canonical id `id`.
    pub fn new(
        mechanism: M,
        id: String,
        to_input: InputAdapter<M::Input>,
        render: OutputRenderer<M::Output>,
    ) -> Self {
        let state = mechanism.empty_state();
        Session {
            mechanism,
            state,
            count: 0,
            cursors: SessionCursors::new(),
            id,
            to_input,
            render,
        }
    }
}

impl<M> CollectorSession for Session<M>
where
    M: Mechanism + Clone + Send + Sync + 'static,
    M::Input: Sized,
    M::Report: WireReport + Send,
    M::State: SnapshotState + Clone + Send + Sync + 'static,
{
    fn mechanism_id(&self) -> &str {
        &self.id
    }

    fn fingerprint(&self) -> u64 {
        self.mechanism.fingerprint()
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn ingest_line(&mut self, line: &str) -> Result<(), CollectorError> {
        let report = M::Report::decode(line.trim())?;
        self.mechanism.absorb(&mut self.state, &report)?;
        self.count += 1;
        Ok(())
    }

    fn ingest_text(&mut self, text: &str) -> Result<u64, CollectorError> {
        // A line count for the sharding decision only: blank lines count
        // too, which at worst shards a little early.
        let lines = text.bytes().filter(|&b| b == b'\n').count() + 1;
        let threads = ldp_pool::configured_threads();
        let shards = threads.min(lines / (SHARD_MIN_LINES / 2)).max(1);
        if shards <= 1 {
            // Sequential path: the frame absorbs into a private state that
            // merges only on success, for the all-or-nothing contract.
            let (shard_state, absorbed) = absorb_frame(&self.mechanism, text)?;
            if absorbed > 0 {
                self.mechanism.merge_state(&mut self.state, &shard_state)?;
                self.count += absorbed;
            }
            return Ok(absorbed);
        }
        // Sharded path: each pool job decodes and absorbs its piece of
        // the text into a private state; shard states merge in order, so
        // the result is identical to sequential ingestion by the
        // merge-equals-concatenation contract. The first failing piece's
        // error is the one reported.
        let pieces = split_lines(text, shards);
        let results = ldp_pool::global()
            .run(pieces.len(), |i| absorb_frame(&self.mechanism, pieces[i]))
            .map_err(|e| CollectorError::Io(format!("worker pool failure: {e}")))?;
        let mut absorbed = 0;
        let mut shard_states = Vec::with_capacity(results.len());
        for r in results {
            let (state, n) = r?;
            if n > 0 {
                absorbed += n;
                shard_states.push(state);
            }
        }
        for shard in &shard_states {
            self.mechanism.merge_state(&mut self.state, shard)?;
        }
        self.count += absorbed;
        Ok(absorbed)
    }

    fn snapshot_text(&self) -> String {
        encode_snapshot_with_sessions(
            &self.mechanism,
            &self.id,
            &self.state,
            self.count,
            &self.cursors,
        )
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), CollectorError> {
        let (state, count, cursors) =
            decode_snapshot_with_sessions(&self.mechanism, &self.id, snapshot)?;
        self.state = state;
        self.count = count;
        self.cursors = cursors;
        Ok(())
    }

    fn merge_snapshot(&mut self, snapshot: &str) -> Result<(), CollectorError> {
        let (state, count, cursors) =
            decode_snapshot_with_sessions(&self.mechanism, &self.id, snapshot)?;
        self.mechanism.merge_state(&mut self.state, &state)?;
        self.count += count;
        // Per-id max: shards that both saw a session agree on the highest
        // committed sequence (a sequenced client talks to one shard at a
        // time, so the higher cursor subsumes the lower).
        for (id, cursor) in cursors {
            let entry = self.cursors.entry(id).or_insert(0);
            *entry = (*entry).max(cursor);
        }
        Ok(())
    }

    fn finalize_text(&self) -> Result<String, CollectorError> {
        let output = self.mechanism.finalize(&self.state)?;
        (self.render)(&output)
    }

    fn gen_reports(&self, n: u64, seed: u64) -> Result<String, CollectorError> {
        let mut rng = SplitMix64::new(seed);
        let mut out = String::new();
        for _ in 0..n {
            let value: f64 = rng.gen_range(0.0..1.0);
            let input = (self.to_input)(value);
            let report = self.mechanism.randomize(&input, &mut rng)?;
            report.encode(&mut out);
            out.push('\n');
        }
        Ok(out)
    }

    fn batch_decoder(&self) -> Arc<dyn BatchDecoder> {
        Arc::new(Decoder {
            mechanism: self.mechanism.clone(),
        })
    }

    fn absorb_prepared(&mut self, batch: PreparedBatch) -> Result<u64, CollectorError> {
        if batch.fingerprint != self.mechanism.fingerprint() {
            return Err(CollectorError::Protocol(format!(
                "prepared batch fingerprint {:016x} does not match this window ({:016x})",
                batch.fingerprint,
                self.mechanism.fingerprint()
            )));
        }
        let shard = batch.payload.downcast::<M::State>().map_err(|_| {
            CollectorError::Protocol("prepared batch state type does not match this session".into())
        })?;
        // Merging the pre-absorbed shard is bit-identical to ingesting
        // the batch's lines directly, by the merge-equals-concatenation
        // contract (the same step ingest_text's sharded path relies on).
        self.mechanism.merge_state(&mut self.state, &shard)?;
        self.count += batch.reports;
        Ok(batch.reports)
    }

    fn session_cursor(&self, id: &str) -> u64 {
        self.cursors.get(id).copied().unwrap_or(0)
    }

    fn set_session_cursor(&mut self, id: &str, cursor: u64) {
        self.cursors.insert(id.to_string(), cursor);
    }

    fn session_cursors(&self) -> SessionCursors {
        self.cursors.clone()
    }
}

/// Streams a replay log into the session in bounded blocks — the one
/// implementation of the resume invariant, shared by the `ingest`
/// subcommand and [`ingest_resuming`].
///
/// Skips the first `skip` non-blank lines (the reports a restored
/// snapshot already accounts for), absorbs at most `max_reports` more,
/// and calls `on_block` after every absorbed block with the session and
/// the count *before* the block — the snapshot-cadence hook. Peak memory
/// is O(`block`), never O(log). Returns the newly absorbed count.
///
/// Refuses a log holding fewer than `skip` reports (unless the
/// `max_reports` ceiling stopped ingestion first): a shorter log means
/// the snapshot and the stream have diverged, and resuming would
/// silently drop the difference.
pub fn ingest_lines<S, E>(
    session: &mut dyn CollectorSession,
    lines: impl Iterator<Item = Result<S, E>>,
    skip: u64,
    max_reports: u64,
    block: u64,
    mut on_block: impl FnMut(&mut dyn CollectorSession, u64) -> Result<(), CollectorError>,
) -> Result<u64, CollectorError>
where
    S: AsRef<str>,
    E: std::fmt::Display,
{
    let start = session.count();
    let ceiling = start.saturating_add(max_reports);
    let block = block.max(1) as usize;
    let mut pending: Vec<S> = Vec::with_capacity(block.min(8_192));
    let mut skipped = 0u64;
    let mut stopped_early = false;
    fn flush<S: AsRef<str>>(
        session: &mut dyn CollectorSession,
        pending: &mut Vec<S>,
        on_block: &mut impl FnMut(&mut dyn CollectorSession, u64) -> Result<(), CollectorError>,
    ) -> Result<(), CollectorError> {
        let before = session.count();
        let joined = pending
            .iter()
            .map(AsRef::as_ref)
            .collect::<Vec<_>>()
            .join("\n");
        session.ingest_text(&joined)?;
        pending.clear();
        on_block(session, before)
    }
    for line in lines {
        let line = line.map_err(|e| CollectorError::Io(format!("reading input: {e}")))?;
        if line.as_ref().trim().is_empty() {
            continue;
        }
        if skipped < skip {
            skipped += 1;
            continue;
        }
        if session.count() + pending.len() as u64 >= ceiling {
            stopped_early = true;
            break;
        }
        pending.push(line);
        if pending.len() >= block {
            flush(session, &mut pending, &mut on_block)?;
        }
    }
    if !stopped_early && skipped < skip {
        return Err(CollectorError::Resume(format!(
            "snapshot has absorbed {skip} reports but the input stream holds only {skipped} \
             — resuming would silently drop the difference"
        )));
    }
    if !pending.is_empty() {
        flush(session, &mut pending, &mut on_block)?;
    }
    Ok(session.count() - start)
}

/// Resumes a replay log after a crash: skips the `session.count()`
/// non-blank lines the restored snapshot already accounts for, then
/// ingests the remainder (via [`ingest_lines`]). Returns the number of
/// newly absorbed reports.
///
/// This is the exactly-once recovery path for ordered, append-only replay
/// logs (the duplicate-free case); socket ingestion without a replay log
/// is at-least-once — see `docs/OPERATIONS.md`.
pub fn ingest_resuming(
    session: &mut dyn CollectorSession,
    text: &str,
) -> Result<u64, CollectorError> {
    let skip = session.count();
    ingest_lines(
        session,
        text.lines().map(Ok::<_, std::convert::Infallible>),
        skip,
        u64::MAX,
        8_192,
        |_, _| Ok(()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::build_session;
    use ldp_core::CoreError;

    const SW: &str = "sw-ems:eps=1,d=1024";

    #[test]
    fn decode_error_outranks_an_earlier_out_of_domain_report() {
        let mut session = build_session(SW).unwrap();
        session.ingest_text("0.5\n0.25\n").unwrap();
        let before = session.snapshot_text();
        let decoder = session.batch_decoder();
        // 7.5 lies outside SW's [-b, 1 + b] and comes first, but the whole
        // frame decodes before anything absorbs.
        let frame = "0.5\n7.5\nnot-a-number\n0.25\n";
        let decode_error = "wire decode failed: cannot parse f64 report from \"not-a-number\"";
        let prepared = decoder.prepare(frame).err().unwrap().to_string();
        assert!(prepared.contains(decode_error), "{prepared}");
        let ingested = session.ingest_text(frame).unwrap_err().to_string();
        assert_eq!(ingested, prepared);
        assert_eq!(
            session.snapshot_text(),
            before,
            "a rejected frame leaves the window"
        );
        // Without the malformed line the domain check is what fails.
        let domain = decoder.prepare("0.5\n7.5\n0.25\n").err().unwrap();
        assert!(
            matches!(domain, CollectorError::Core(CoreError::InvalidReport(_))),
            "{domain}"
        );
        assert!(session.ingest_text("0.5\n7.5\n0.25\n").is_err());
        assert_eq!(session.snapshot_text(), before);
    }

    #[test]
    fn fallback_form_frame_matches_the_per_line_reference() {
        let session = build_session(SW).unwrap();
        let reports = session.gen_reports(600, 11).unwrap();
        // CRLF endings, ASCII and Unicode padding and blank lines: every
        // line takes the per-line path.
        let pads = [("", "\r"), (" ", " \r"), ("\t", ""), ("\u{a0}", "\u{3000}")];
        let mut frame = String::new();
        for (i, line) in reports.lines().enumerate() {
            let (before, after) = pads[i % pads.len()];
            frame.push_str(&format!("{before}{line}{after}\n"));
            if i % 7 == 0 {
                frame.push_str(" \r\n");
            }
        }
        let mut served = build_session(SW).unwrap();
        let batch = served.batch_decoder().prepare(&frame).unwrap();
        assert_eq!(served.absorb_prepared(batch).unwrap(), 600);
        let mut reference = build_session(SW).unwrap();
        for line in reports.lines() {
            reference.ingest_line(line).unwrap();
        }
        assert_eq!(served.snapshot_text(), reference.snapshot_text());
        let mut ingested = build_session(SW).unwrap();
        assert_eq!(ingested.ingest_text(&frame).unwrap(), 600);
        assert_eq!(ingested.snapshot_text(), reference.snapshot_text());
    }

    #[test]
    fn sharded_ingest_splits_on_line_boundaries() {
        let text = "0.5\n0.25\n\n0.125\n1\n";
        for parts in 1..8 {
            let pieces = split_lines(text, parts);
            assert_eq!(pieces.concat(), text);
            assert!(pieces.len() <= parts);
            assert!(pieces[..pieces.len() - 1].iter().all(|p| p.ends_with('\n')));
        }
        assert_eq!(split_lines("0.5", 4), vec!["0.5"]);
        assert!(split_lines("", 4).is_empty());
    }
}
