//! The traced pass over the serve path: replays a workload's frames
//! in-process through each layer's public API, inside spans.
//!
//! - `machine`: `Machine::on_bytes` / `budget_granted` / `commit_done`,
//!   minus the decoder they call (wrapped in a timing `BatchDecoder`);
//! - `decode`, `empty_state`, `preabsorb`: the decoder's three steps
//!   (`WireReport::decode` per line, `Mechanism::empty_state`,
//!   `Mechanism::absorb_slice`) timed one by one on the same payload;
//! - `commit`: `CollectorSession::absorb_prepared` (plus the cursor update
//!   a sequenced commit makes);
//! - `snapshot.encode` / `snapshot.write`: `snapshot_text` and
//!   `write_snapshot_rotating` on the serve cadence;
//! - the socket floor: a loopback frame write answered by one byte from a
//!   trivial peer.

use crate::ingest::IngestConfig;
use crate::sys;
use crate::trace::span;
use ldp_collector::io::write_snapshot_rotating;
use ldp_collector::machine::{Action, CommitDone, CommitRequest, Machine, MachineConfig};
use ldp_collector::session::{BatchDecoder, PreparedBatch};
use ldp_collector::{build_session, CollectorError, CollectorSession};
use ldp_core::{Mechanism, WireReport};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times every `prepare` call of the wrapped decoder as a child span of
/// whatever machine step invoked it.
struct TimingDecoder(Arc<dyn BatchDecoder>);

impl BatchDecoder for TimingDecoder {
    fn prepare(&self, text: &str) -> Result<PreparedBatch, CollectorError> {
        span("prepare", || self.0.prepare(text))
    }
}

/// Work the replay covered (the span self times carry the durations).
#[derive(Debug, Default)]
pub struct ServeReplay {
    pub frames: u64,
    pub reports: u64,
    pub payload_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
}

/// Length-prefixed wire bytes of one frame, with its `seq` line when the
/// session is sequenced.
pub fn wire_frame(seq: Option<u64>, payload: &str) -> Vec<u8> {
    let seq_line = seq.map(|n| format!("seq {n}\n")).unwrap_or_default();
    let len = (seq_line.len() + payload.len()) as u32;
    let mut out = len.to_be_bytes().to_vec();
    out.extend_from_slice(seq_line.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Feeds one frame's bytes through the machine, resolving budget grants
/// and commits inline the way the collector's reactor does.
fn feed(
    machine: &mut Machine,
    wire: &[u8],
    decoder: &dyn BatchDecoder,
    session: &mut dyn CollectorSession,
    seq_id: Option<&str>,
) -> Result<(), String> {
    let mut out = Vec::new();
    let mut offset = 0;
    loop {
        offset += span("machine", || {
            machine.on_bytes(&wire[offset..], Instant::now(), decoder, &mut out)
        });
        let mut commit = None;
        for action in out.drain(..) {
            match action {
                Action::Reserve { .. } => span("machine", || machine.budget_granted()),
                Action::Commit(request) => commit = Some(request),
                Action::End(_) => return Err("the replayed session ended".into()),
                Action::Send(_) | Action::Release { .. } | Action::RateShed | Action::Oversized => {
                }
            }
        }
        match commit {
            Some(CommitRequest::Batch { batch, seq, .. }) => {
                span("commit", || -> Result<(), String> {
                    session.absorb_prepared(batch).map_err(|e| e.to_string())?;
                    if let (Some(id), Some((_, n))) = (seq_id, seq) {
                        session.set_session_cursor(id, n + 1);
                    }
                    Ok(())
                })?;
                span("machine", || {
                    machine.commit_done(CommitDone::Batch(Ok(())), &mut out)
                });
            }
            Some(CommitRequest::Hello { .. }) => {
                span("machine", || {
                    machine.commit_done(CommitDone::Hello { cursor: 0 }, &mut out)
                });
            }
            Some(CommitRequest::Flush { .. }) => return Err("unexpected end-of-stream".into()),
            None => {}
        }
        if out.iter().any(|a| matches!(a, Action::End(_))) {
            return Err("the replayed session ended".into());
        }
        out.clear();
        if offset == wire.len() && machine.at_boundary() {
            return Ok(());
        }
    }
}

/// Decodes a frame payload exactly as the serve path's decoder does.
fn decode_frame<M: Mechanism>(text: &str) -> Result<Vec<M::Report>, String>
where
    M::Report: WireReport,
{
    let mut reports = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        reports.push(M::Report::decode(line).map_err(|e| e.to_string())?);
    }
    Ok(reports)
}

/// Replays `frames` (cycled) through every serve layer for about `budget`,
/// at most `max_frames` frames.
pub fn replay_serve<M>(
    mech: &M,
    cfg: &IngestConfig,
    frames: &[String],
    budget: Duration,
    max_frames: u64,
    work: &Path,
) -> Result<ServeReplay, String>
where
    M: Mechanism,
    M::Report: WireReport,
{
    let mut session = build_session(cfg.spec).map_err(|e| e.to_string())?;
    let decoder = TimingDecoder(session.batch_decoder());
    let mut machine = Machine::new(MachineConfig::default(), Instant::now());
    let mut out = Vec::new();
    span("machine", || machine.start(&mut out));
    let seq_id = cfg.sequenced.then_some("replay-0");
    if let Some(id) = seq_id {
        let hello = ldp_collector::protocol::encode_hello(id, 0);
        feed(
            &mut machine,
            &wire_frame(None, &hello),
            &decoder,
            session.as_mut(),
            None,
        )?;
    }
    let snap_path = work.join("replay.snap");
    let mut replay = ServeReplay::default();
    let snapshot =
        |session: &dyn CollectorSession, replay: &mut ServeReplay| -> Result<(), String> {
            let text = span("snapshot.encode", || session.snapshot_text());
            span("snapshot.write", || {
                write_snapshot_rotating(&snap_path, &text, cfg.keep)
            })
            .map_err(|e| e.to_string())?;
            replay.snapshots += 1;
            replay.snapshot_bytes = text.len() as u64;
            Ok(())
        };
    let started = Instant::now();
    while replay.frames < max_frames && (replay.frames < 16 || started.elapsed() < budget) {
        let payload = &frames[(replay.frames % frames.len() as u64) as usize];
        let wire = wire_frame(seq_id.map(|_| replay.frames), payload);
        feed(&mut machine, &wire, &decoder, session.as_mut(), seq_id)?;
        let reports = span("decode", || decode_frame::<M>(payload))?;
        let mut state = span("empty_state", || mech.empty_state());
        span("preabsorb", || mech.absorb_slice(&mut state, &reports)).map_err(|e| e.to_string())?;
        std::hint::black_box(&state);
        let before = replay.reports;
        replay.frames += 1;
        replay.reports += reports.len() as u64;
        replay.payload_bytes += payload.len() as u64;
        if cfg.snapshot_every > 0
            && replay.reports / cfg.snapshot_every > before / cfg.snapshot_every
        {
            snapshot(session.as_ref(), &mut replay)?;
        }
    }
    if replay.snapshots == 0 {
        // No cadence: the window is persisted once, when a session closes.
        for _ in 0..3 {
            snapshot(session.as_ref(), &mut replay)?;
        }
    }
    Ok(replay)
}

/// The loopback floor under an ack: one `frame` write answered by a
/// 1-byte reply from a peer that only reads frames. Returns the mean
/// round trip in microseconds and the number of round trips.
pub fn echo_floor(frame: &[u8], budget: Duration) -> Result<(f64, u64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut header = [0u8; 4];
            let mut payload = Vec::new();
            while stream.read_exact(&mut header).is_ok() {
                payload.resize(u32::from_be_bytes(header) as usize, 0);
                stream.read_exact(&mut payload)?;
                stream.write_all(b"+")?;
            }
            Ok(())
        });
        let result = (|| -> std::io::Result<(f64, u64)> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut ack = [0u8; 1];
            let mut trips = 0u64;
            let started = Instant::now();
            while trips < 16 || started.elapsed() < budget {
                stream.write_all(frame)?;
                stream.read_exact(&mut ack)?;
                trips += 1;
            }
            let mean_us = started.elapsed().as_secs_f64() * 1e6 / trips as f64;
            stream.shutdown(std::net::Shutdown::Write)?;
            Ok((mean_us, trips))
        })();
        let peer = peer.join().map_err(|_| "echo peer panicked".to_string())?;
        peer.map_err(|e| format!("echo peer: {e}"))?;
        result.map_err(|e| format!("echo client: {e}"))
    })
}

/// SW's EM/EMS on aggregated report counts: `(iterations, µs per
/// iteration)`, the time the median of three runs.
pub fn em_profile(
    mech: &ldp_sw::mechanism::SwMechanism,
    counts: &[f64],
) -> Result<(f64, f64), String> {
    let mut times = Vec::new();
    let mut iterations = 0;
    for _ in 0..3 {
        let started = Instant::now();
        let result = span("em", || {
            mech.pipeline().reconstruct(counts, mech.reconstruction())
        })
        .map_err(|e| e.to_string())?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
        iterations = result.iterations;
    }
    Ok((
        iterations as f64,
        sys::median(&times) / iterations.max(1) as f64,
    ))
}

/// One timed `Mechanism::finalize` of `state`, in milliseconds.
pub fn time_finalize_ms<M: Mechanism>(mech: &M, state: &M::State) -> Result<f64, String> {
    let started = Instant::now();
    let out = span("finalize", || mech.finalize(state)).map_err(|e| e.to_string())?;
    std::hint::black_box(out);
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// Decodes a snapshot's state with the concrete mechanism `mech`.
pub fn snapshot_state<M: Mechanism>(mech: &M, snapshot: &str) -> Result<M::State, String>
where
    M::State: ldp_core::snapshot::SnapshotState,
{
    let (header, _) = ldp_core::snapshot::parse_snapshot(snapshot).map_err(|e| e.to_string())?;
    ldp_core::decode_snapshot_with_sessions(mech, &header.mechanism, snapshot)
        .map(|(state, _, _)| state)
        .map_err(|e| e.to_string())
}

/// A small window of `spec` reports generated and ingested in-process,
/// as snapshot text (the probe for a layer the workload does not run).
pub fn probe_snapshot(spec: &str, reports: u64, seed: u64) -> Result<String, String> {
    let mut session = build_session(spec).map_err(|e| e.to_string())?;
    let lines = session
        .gen_reports(reports, seed)
        .map_err(|e| e.to_string())?;
    session.ingest_text(&lines).map_err(|e| e.to_string())?;
    Ok(session.snapshot_text())
}
