//! Stress tests for the concurrent serve path: many sessions, bounded
//! queues, interleaved snapshot writes — and the contract that makes it
//! all auditable: the concurrent window is **bit-identical** to a serial
//! single-connection ingest of the same log.

mod common;

use common::scratch;
use ldp_collector::build_session;
use ldp_collector::server::{serve, write_frame, ServeOptions, SnapshotPolicy};
use ldp_collector::CollectorSession;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const SPEC: &str = "sw-ems:eps=1,d=32";

/// Splits one generated report log into `connections` chunks of
/// `frame_len`-line frames (the same split every test uses, so the
/// serial reference ingests exactly the bytes the fleet sends).
fn fleet_frames(log: &str, connections: usize, frame_len: usize) -> Vec<Vec<String>> {
    let lines: Vec<&str> = log.lines().collect();
    let per_conn = lines.len() / connections;
    (0..connections)
        .map(|c| {
            lines[c * per_conn..(c + 1) * per_conn]
                .chunks(frame_len)
                .map(|chunk| chunk.join("\n"))
                .collect()
        })
        .collect()
}

/// Streams `frames` over one session, asserting a `+` ack per frame,
/// then sends the end-of-stream frame.
fn stream_session(addr: SocketAddr, frames: &[String]) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut ack = [0u8; 1];
    for frame in frames {
        write_frame(&mut stream, frame).unwrap();
        stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], b'+', "frame rejected under stress");
    }
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], b'+', "end-of-stream rejected");
}

/// Runs `serve` on its own thread for `connections` sessions and returns
/// (summary, final session) once the fleet hangs up.
fn serve_fleet(
    listener: TcpListener,
    policy: SnapshotPolicy,
    options: ServeOptions,
) -> std::thread::JoinHandle<(
    ldp_collector::server::ServeSummary,
    Box<dyn CollectorSession>,
)> {
    std::thread::spawn(move || {
        let mut session = build_session(SPEC).unwrap();
        let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
        (summary, session)
    })
}

#[test]
fn eight_concurrent_sessions_match_serial_ingest_bit_for_bit() {
    let dir = scratch("stress", "concurrent");
    let snap = dir.join("window.snap");
    let generator = build_session(SPEC).unwrap();
    let log = generator.gen_reports(4_000, 42).unwrap();

    // Aggressive snapshot cadence: many publishes land *during* ingest,
    // exercising the latest-wins spool and the rotating writer while
    // frames are in flight.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 199,
        keep: 2,
    };
    let options = ServeOptions {
        max_connections: 8,
        connections: 8,
        ..ServeOptions::default()
    };
    let server = serve_fleet(listener, policy, options);

    let frames = fleet_frames(&log, 8, 100);
    std::thread::scope(|scope| {
        for conn_frames in &frames {
            scope.spawn(move || stream_session(addr, conn_frames));
        }
    });
    let (summary, session) = server.join().unwrap();
    assert_eq!(summary.accepted, 8);
    assert_eq!(summary.completed, 8);
    assert_eq!(summary.failed, 0);
    assert_eq!(session.count(), 4_000);

    // The concurrent window equals one serial ingest of the whole log —
    // byte for byte, the property exact merges buy.
    let mut serial = build_session(SPEC).unwrap();
    serial.ingest_text(&log).unwrap();
    assert_eq!(
        session.finalize_text().unwrap(),
        serial.finalize_text().unwrap(),
        "concurrent ingest must be bit-identical to serial ingest"
    );

    // The final snapshot recovers the full window; rotation kept backups.
    let mut recovered = build_session(SPEC).unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), 4_000);
    assert_eq!(
        recovered.finalize_text().unwrap(),
        serial.finalize_text().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_depth_one_queue_blocks_rather_than_drops() {
    // The harshest backpressure setting: every commit rendezvouses
    // through a single queue slot. Throughput suffers; correctness must
    // not — every acked report is in the final count.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let generator = build_session(SPEC).unwrap();
    let log = generator.gen_reports(1_200, 7).unwrap();
    let policy = SnapshotPolicy {
        path: None,
        every: 0,
        keep: 0,
    };
    let options = ServeOptions {
        max_connections: 6,
        connections: 6,
        ..ServeOptions::default()
    };
    let server = serve_fleet(listener, policy, options);
    let frames = fleet_frames(&log, 6, 25);
    std::thread::scope(|scope| {
        for conn_frames in &frames {
            scope.spawn(move || stream_session(addr, conn_frames));
        }
    });
    let (summary, session) = server.join().unwrap();
    assert_eq!(session.count(), 1_200, "backpressure must never drop");
    assert_eq!(summary.completed, 6);
}

#[test]
fn a_byte_budgeted_depth_one_pipeline_blocks_never_drops() {
    // The harshest memory setting: a byte budget two frames deep, shared
    // by six writers. Handlers must block on the budget (backpressure),
    // never drop, and the measured high-water mark must respect the
    // configured ceiling. With more than one reactor, a connection parked
    // on the budget must be woken by a charge released on another
    // reactor's thread — pinned at every reactor count, whatever the
    // host's core count.
    for reactor_threads in 1..=3 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let generator = build_session(SPEC).unwrap();
        let log = generator.gen_reports(1_200, 29).unwrap();
        let frames = fleet_frames(&log, 6, 25);
        let budget = 2 * frames.iter().flatten().map(|f| f.len()).max().unwrap();
        let policy = SnapshotPolicy {
            path: None,
            every: 0,
            keep: 0,
        };
        let options = ServeOptions {
            max_connections: 6,
            connections: 6,
            memory_budget_bytes: budget,
            reactor_threads,
            ..ServeOptions::default()
        };
        let server = serve_fleet(listener, policy, options);
        std::thread::scope(|scope| {
            for conn_frames in &frames {
                scope.spawn(move || stream_session(addr, conn_frames));
            }
        });
        let (summary, session) = server.join().unwrap();
        assert_eq!(session.count(), 1_200, "the byte budget must never drop");
        assert_eq!(summary.completed, 6);
        assert!(summary.peak_queue_bytes > 0, "charges were measured");
        assert!(
            summary.peak_queue_bytes <= budget as u64,
            "peak pipeline charge {} exceeded the {budget}-byte budget \
             ({reactor_threads} reactors)",
            summary.peak_queue_bytes
        );
    }
}

#[test]
fn shutdown_finishes_in_flight_frames_and_persists() {
    let dir = scratch("stress", "shutdown");
    let snap = dir.join("window.snap");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let generator = build_session(SPEC).unwrap();
    let log = generator.gen_reports(300, 3).unwrap();
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 0,
        keep: 0,
    };
    let options = ServeOptions::default(); // connections: 0 — runs until shutdown
    let shutdown = Arc::clone(&options.shutdown);
    let server = serve_fleet(listener, policy, options);

    // Send every frame and collect acks, but never send end-of-stream:
    // the session is mid-stream when shutdown arrives.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut ack = [0u8; 1];
    for frame in fleet_frames(&log, 1, 100).remove(0) {
        write_frame(&mut stream, &frame).unwrap();
        stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], b'+');
    }
    shutdown.store(true, Ordering::SeqCst);
    let (summary, session) = server.join().unwrap();
    // Every acked frame was committed before its ack — shutdown cannot
    // un-happen them.
    assert_eq!(session.count(), 300);
    assert_eq!(summary.reports, 300);
    // And the final snapshot persists the full acked window.
    let mut recovered = build_session(SPEC).unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), 300);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_peer_is_disconnected_and_counted_without_wedging_the_fleet() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let generator = build_session(SPEC).unwrap();
    let log = generator.gen_reports(400, 13).unwrap();
    let policy = SnapshotPolicy {
        path: None,
        every: 0,
        keep: 0,
    };
    let options = ServeOptions {
        max_connections: 2,
        connections: 2,
        idle_timeout: Some(std::time::Duration::from_millis(150)),
        ..ServeOptions::default()
    };
    let server = serve_fleet(listener, policy, options);

    let frames = fleet_frames(&log, 2, 50);
    std::thread::scope(|scope| {
        // Session A sends half its frames, then stalls at a frame
        // boundary far past the idle timeout, holding its socket open.
        let a_frames = &frames[0];
        scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut ack = [0u8; 1];
            for frame in &a_frames[..2] {
                write_frame(&mut stream, frame).unwrap();
                stream.read_exact(&mut ack).unwrap();
                assert_eq!(ack[0], b'+');
            }
            // The server hangs up on us; the read observes it.
            let mut sink = [0u8; 1];
            assert!(
                !matches!(stream.read(&mut sink), Ok(1)),
                "server should disconnect an idle peer, not ack it"
            );
        });
        // Session B streams normally; the stalled peer must not wedge it.
        let b_frames = &frames[1];
        scope.spawn(move || stream_session(addr, b_frames));
    });
    let (summary, session) = server.join().unwrap();
    assert_eq!(summary.idle_disconnects, 1, "the stalled peer is counted");
    assert_eq!(summary.failed, 0, "idleness is a disconnect, not a failure");
    assert_eq!(summary.completed, 1);
    // B's 200 reports plus the 100 A got acked before stalling: acked
    // frames stay committed even when the session is later disconnected.
    assert_eq!(session.count(), 300);
}

#[test]
fn one_bad_session_is_rejected_without_poisoning_the_fleet() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let generator = build_session(SPEC).unwrap();
    let log = generator.gen_reports(600, 11).unwrap();
    let policy = SnapshotPolicy {
        path: None,
        every: 0,
        keep: 0,
    };
    let options = ServeOptions {
        max_connections: 4,
        connections: 4,
        ..ServeOptions::default()
    };
    let server = serve_fleet(listener, policy, options);

    let frames = fleet_frames(&log, 3, 50);
    std::thread::scope(|scope| {
        for conn_frames in &frames {
            scope.spawn(move || stream_session(addr, conn_frames));
        }
        // The fourth session sends a frame of garbage and must get `-`.
        scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, "not a wire report at all").unwrap();
            let mut ack = [0u8; 1];
            stream.read_exact(&mut ack).unwrap();
            assert_eq!(ack[0], b'-', "garbage must be rejected");
        });
    });
    let (summary, session) = server.join().unwrap();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.failed, 1);
    assert!(summary.last_session_error.is_some());
    // The rejected frame contributed nothing; the healthy fleet's
    // reports all landed.
    assert_eq!(session.count(), 600);
    let mut serial = build_session(SPEC).unwrap();
    serial.ingest_text(&log).unwrap();
    assert_eq!(
        session.finalize_text().unwrap(),
        serial.finalize_text().unwrap()
    );
}
