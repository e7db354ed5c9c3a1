//! Overload suite: graceful degradation under pressure.
//!
//! Four layers of drill, all asserting the same posture — an overloaded
//! collector **sheds loudly and early** (`!busy <retry-ms>`) instead of
//! queueing invisibly, stays inside its configured memory budget, and a
//! panicked pipeline stage is contained by the supervisor with a durable
//! final snapshot, never a wedge:
//!
//! 1. socket-level shed semantics: admission, quota, per-connection
//!    rate, and the frame-size cap, each observed as raw bytes;
//! 2. a sequenced fleet at twice the admission *and* rate capacity,
//!    with faults at the shed/evict seams, finishing bit-identical to a
//!    fault-free serial ingest;
//! 3. a deliberately panicked absorber (`LDP_FAULTS=absorb=panic`)
//!    contained with a clear error and a snapshot covering every acked
//!    frame, proven by restart-and-resume;
//! 4. a panicked snapshot writer restarted in place — and, past the
//!    restart budget, a loud failure that still wrote a final snapshot;
//! 5. a sequenced flush whose snapshot write stalls or fails: only its
//!    own ack waits (or fails), while the reactor keeps acking the
//!    window's other sessions.

mod common;

use common::{read_ack, reference_finalize, scratch};
use ldp_collector::server::{
    serve, serve_routed, write_frame, ServeOptions, SnapshotPolicy, WindowRoute,
};
use ldp_collector::{build_session, faults, protocol, CollectorError};
use ldp_loadgen::{generate_frames, run, Plan};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fault schedule is process-global; every test that runs a serve
/// loop holds this lock so a concurrent test's schedule is never
/// consumed by this one's failpoints.
static FAULTS: Mutex<()> = Mutex::new(());

fn no_snapshots() -> SnapshotPolicy {
    SnapshotPolicy {
        path: None,
        every: 0,
        keep: 0,
    }
}

/// Reads a 5-byte `!busy` shed frame and returns the retry hint in ms.
fn read_busy_hint(stream: &mut TcpStream) -> u32 {
    let mut raw = [0u8; 5];
    stream.read_exact(&mut raw).unwrap();
    assert_eq!(raw[0], protocol::BUSY_BYTE, "expected a !busy shed frame");
    protocol::decode_busy_ms([raw[1], raw[2], raw[3], raw[4]])
}

/// Chunks one generated log into `n`-line frame payloads.
fn frames_of(log: &str, n: usize) -> Vec<String> {
    log.lines()
        .collect::<Vec<_>>()
        .chunks(n)
        .map(|c| c.join("\n"))
        .collect()
}

#[test]
fn a_full_fleet_sheds_at_accept_with_the_configured_retry_hint() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        max_connections: 1,
        busy_retry: Duration::from_millis(150),
        ..ServeOptions::default() // connections: 0 — until shutdown
    };
    let shutdown = Arc::clone(&options.shutdown);
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let summary = serve(&listener, session.as_mut(), &no_snapshots(), &options).unwrap();
        (summary, session.count())
    });

    // A takes the only slot and keeps its session open mid-stream.
    let generator = build_session("grr:eps=1,d=8").unwrap();
    let log = generator.gen_reports(20, 31).unwrap();
    let mut a = TcpStream::connect(addr).unwrap();
    write_frame(&mut a, &log).unwrap();
    assert_eq!(read_ack(&mut a), b'+');

    // B arrives while the fleet is full: not backlog purgatory but an
    // explicit 5-byte shed carrying the operator's --busy-retry-ms.
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(read_busy_hint(&mut b), 150);
    let mut sink = [0u8; 1];
    assert_eq!(b.read(&mut sink).unwrap(), 0, "shed connection is closed");
    drop(b);

    // A's session was never disturbed by the shed next door.
    a.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut a), b'+');
    drop(a);

    shutdown.store(true, Ordering::SeqCst);
    let (summary, count) = server.join().unwrap();
    assert_eq!(summary.admission_sheds, 1);
    assert_eq!(summary.accepted, 1, "a shed connection is not an accept");
    assert_eq!(summary.completed, 1);
    assert_eq!(count, 20);
}

#[test]
fn a_met_report_quota_sheds_new_connections_but_not_admitted_ones() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        report_quota: 50,
        busy_retry: Duration::from_millis(120),
        ..ServeOptions::default()
    };
    let shutdown = Arc::clone(&options.shutdown);
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let summary = serve(&listener, session.as_mut(), &no_snapshots(), &options).unwrap();
        (summary, session.count())
    });

    // An admitted session may finish past the quota: the quota gates
    // *admission*, it never truncates a stream mid-flight.
    let generator = build_session("grr:eps=1,d=8").unwrap();
    let log = generator.gen_reports(60, 37).unwrap();
    let mut a = TcpStream::connect(addr).unwrap();
    for frame in frames_of(&log, 20) {
        write_frame(&mut a, &frame).unwrap();
        assert_eq!(read_ack(&mut a), b'+', "admitted sessions finish");
    }
    a.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut a), b'+');
    drop(a);

    // Give the acceptor a tick to observe the crossed quota, then probe.
    std::thread::sleep(Duration::from_millis(300));
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(read_busy_hint(&mut b), 120);
    drop(b);

    shutdown.store(true, Ordering::SeqCst);
    let (summary, count) = server.join().unwrap();
    assert_eq!(summary.quota_sheds, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(count, 60, "the admitted session's tail is never dropped");
}

#[test]
fn an_over_rate_frame_is_shed_mid_stream_and_safely_resent() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        connections: 1,
        max_rps_per_conn: 20.0,
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let summary = serve(&listener, session.as_mut(), &no_snapshots(), &options).unwrap();
        (summary, session.count())
    });

    let generator = build_session("grr:eps=1,d=8").unwrap();
    let log = generator.gen_reports(120, 41).unwrap();
    let frames = frames_of(&log, 60);
    let mut stream = TcpStream::connect(addr).unwrap();

    // Frame 1 drains the whole burst allowance; it is absorbed in full
    // (the clamp caps the *charge*, never truncates the payload).
    write_frame(&mut stream, &frames[0]).unwrap();
    assert_eq!(read_ack(&mut stream), b'+');

    // Frame 2 arrives with an empty bucket: shed mid-stream with a hint,
    // the connection stays open, and nothing of the frame was absorbed.
    write_frame(&mut stream, &frames[1]).unwrap();
    let hint = read_busy_hint(&mut stream);
    assert!(
        (500..=1_500).contains(&hint),
        "a drained 20-token bucket refills in ~1s, hint said {hint}ms"
    );

    // Honoring the hint makes the very same bytes admissible: the shed
    // is a *pause*, not a reject, so a blind resend is always safe.
    std::thread::sleep(Duration::from_millis(u64::from(hint) + 150));
    write_frame(&mut stream, &frames[1]).unwrap();
    assert_eq!(read_ack(&mut stream), b'+');
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut stream), b'+');
    drop(stream);

    let (summary, count) = server.join().unwrap();
    assert_eq!(summary.rate_sheds, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(count, 120, "the shed frame landed exactly once");
}

#[test]
fn an_oversized_length_header_is_refused_before_allocation() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        connections: 1,
        max_frame_bytes: 64,
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let summary = serve(&listener, session.as_mut(), &no_snapshots(), &options).unwrap();
        (summary, session.count())
    });

    // Only the 4-byte header goes out: the reject must not depend on the
    // payload ever existing, because the server must not buffer for it.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&1_000_000u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut stream), b'-', "oversized header gets -");
    let mut sink = [0u8; 1];
    assert_eq!(stream.read(&mut sink).unwrap(), 0, "and the session ends");
    drop(stream);

    let (summary, count) = server.join().unwrap();
    assert_eq!(summary.oversized_frames, 1);
    assert_eq!(summary.failed, 1);
    assert_eq!(count, 0);
}

/// The tentpole drill: a sequenced fleet at 2x the admission limit and
/// well past the per-connection rate cap, with faults injected at the
/// shed and evict seams, under a byte budget two frames deep. The window
/// must finalize bit-identical to a fault-free serial ingest, with zero
/// duplicate absorbs and the measured peak charge inside the budget.
#[test]
fn an_overloaded_faulted_fleet_is_bit_identical_and_stays_inside_its_budget() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "sw-ems:eps=1,d=32";
    let plan = Plan {
        spec: spec.into(),
        connections: 8,
        frames_per_connection: 6,
        reports_per_frame: 40,
        seed: 9,
        session: Some("surge".into()),
        retry_budget: Duration::from_secs(60),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);
    // Two of the largest sequenced frames (payload + `seq N\n` prefix).
    let budget = 2 * (frames.iter().flatten().map(|f| f.len()).max().unwrap() + 16);

    // `admission=err` sheds one admittable connection at accept;
    // `ack-evict=err` turns one successful ack write into an eviction.
    faults::install("admission=err@5,ack-evict=err@9").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions {
        max_connections: 4,
        max_rps_per_conn: 100.0,
        memory_budget_bytes: budget,
        busy_retry: Duration::from_millis(50),
        ..ServeOptions::default() // connections: 0 — until shutdown
    };
    let shutdown = Arc::clone(&options.shutdown);
    let server = std::thread::spawn({
        let spec = spec.to_string();
        move || {
            let mut session = build_session(&spec).unwrap();
            let summary = serve(&listener, session.as_mut(), &no_snapshots(), &options).unwrap();
            (summary, session.finalize_text().unwrap(), session.count())
        }
    });

    let report = run(&addr, &plan).unwrap();
    shutdown.store(true, Ordering::SeqCst);
    let (summary, finalized, count) = server.join().unwrap();
    faults::clear();
    drop(guard);

    assert_eq!(report.reports, plan.total_reports());
    assert_eq!(summary.faults_injected, 2, "both seam faults fired");
    assert!(report.sheds > 0, "clients should have seen !busy");
    assert!(summary.admission_sheds >= 1, "at least the injected shed");
    assert!(
        summary.rate_sheds > 0,
        "240 reports/conn against a 100-token bucket must shed"
    );
    assert_eq!(summary.evictions, 1, "exactly the injected eviction");
    assert!(summary.peak_queue_bytes > 0);
    assert!(
        summary.peak_queue_bytes <= budget as u64,
        "peak pipeline charge {} exceeded the {budget}-byte budget",
        summary.peak_queue_bytes
    );
    assert_eq!(count, expected_count, "lost or doubled reports");
    assert_eq!(
        finalized, expected,
        "the overloaded run must be bit-identical to the fault-free reference"
    );
}

/// Acceptance drill: a deliberately panicked absorber is contained by
/// the supervisor — serve exits with a clear error *and* a durable final
/// snapshot covering every acked frame, proven by restarting on the same
/// listener and resuming the same fleet to a bit-identical window.
#[test]
fn a_panicked_absorber_is_contained_and_the_window_resumes_from_its_snapshot() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "absorber-panic");
    let snap = dir.join("window.snap");
    let spec = "grr:eps=1,d=16";
    let plan = Plan {
        spec: spec.into(),
        connections: 3,
        frames_per_connection: 4,
        reports_per_frame: 25,
        seed: 17,
        session: Some("contain".into()),
        retry_budget: Duration::from_secs(30),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);

    // The 12th batch commit — the last frame of the fleet — panics in
    // the absorber before it can be absorbed or acked.
    faults::install("absorb=panic@12").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions::default();
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 0,
        keep: 0,
    };
    let server1 = std::thread::spawn({
        let spec = spec.to_string();
        move || {
            let mut session = build_session(&spec).unwrap();
            let err = serve(&listener, session.as_mut(), &policy, &options).unwrap_err();
            (listener, err, session.count())
        }
    });
    // The fleet keeps retrying right through the contained crash.
    let client = std::thread::spawn({
        let plan = plan.clone();
        move || run(&addr, &plan).unwrap()
    });

    let (listener, err, count_at_panic) = server1.join().unwrap();
    faults::clear();
    assert!(
        matches!(err, CollectorError::Panicked(_)),
        "expected a contained panic, got: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("absorber"), "names the stage: {msg}");
    assert!(msg.contains("injected panic"), "carries the cause: {msg}");
    assert!(
        count_at_panic < expected_count,
        "the panicked batch must not have been absorbed"
    );

    // The final snapshot written on the way down covers every acked
    // frame: a fresh session restores to exactly the crash-time count.
    let mut resumed = build_session(spec).unwrap();
    resumed
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(resumed.count(), count_at_panic, "acked frames are durable");

    // Restart on the same listener; the fleet finishes the window.
    let options2 = ServeOptions::default();
    let shutdown2 = Arc::clone(&options2.shutdown);
    let policy2 = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 0,
        keep: 0,
    };
    let server2 = std::thread::spawn(move || {
        let summary = serve(&listener, resumed.as_mut(), &policy2, &options2).unwrap();
        (summary, resumed.finalize_text().unwrap(), resumed.count())
    });
    let report = client.join().unwrap();
    shutdown2.store(true, Ordering::SeqCst);
    let (summary2, finalized, count) = server2.join().unwrap();
    drop(guard);

    assert_eq!(report.reports, plan.total_reports());
    assert!(summary2.sessions_resumed >= 1, "cursors crossed the crash");
    assert_eq!(count, expected_count, "lost or doubled reports");
    assert_eq!(
        finalized, expected,
        "resume after a contained panic must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic in a named window's absorber is contained exactly like one in
/// the default window's: serve returns `Panicked`, and the final snapshot
/// of **every** window is on disk and covers every frame it acked.
#[test]
fn a_panicked_routed_window_absorber_is_contained_with_every_window_durable() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "routed-panic");
    let spec = "grr:eps=1,d=16";
    let generator = build_session(spec).unwrap();
    let default_frames = frames_of(&generator.gen_reports(40, 43).unwrap(), 10);
    let hourly_frames = frames_of(&generator.gen_reports(40, 47).unwrap(), 10);
    let policy_for = |name: &str| SnapshotPolicy {
        path: Some(dir.join(format!("{name}.snap"))),
        every: 0,
        keep: 0,
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn({
        let policy = policy_for("default");
        let mut windows = vec![WindowRoute {
            name: "hourly".into(),
            session: build_session(spec).unwrap(),
            policy: policy_for("hourly"),
        }];
        move || {
            let mut session = build_session(spec).unwrap();
            let options = ServeOptions::default();
            let err = serve_routed(&listener, session.as_mut(), &policy, &options, &mut windows)
                .unwrap_err();
            (err, session.count(), windows[0].session.count())
        }
    });

    // A bare session fills the default window before any fault is armed.
    let mut stream = TcpStream::connect(addr).unwrap();
    for frame in &default_frames {
        write_frame(&mut stream, frame).unwrap();
        assert_eq!(read_ack(&mut stream), b'+');
    }
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut stream), b'+');
    drop(stream);

    // Armed now, the third batch commit is the hourly window's third
    // frame: it panics in that window's absorber before being absorbed.
    faults::install("absorb=panic@3").unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &protocol::encode_hello_routed("routed", 0, Some("hourly")),
    )
    .unwrap();
    assert_eq!(read_ack(&mut stream), b'+', "hello refused");
    let mut cursor = [0u8; 8];
    stream.read_exact(&mut cursor).unwrap();
    assert_eq!(u64::from_be_bytes(cursor), 0);
    let mut acked_frames = 0u64;
    for (seq, frame) in hourly_frames.iter().enumerate() {
        if write_frame(&mut stream, &protocol::encode_seq_frame(seq as u64, frame)).is_err() {
            break;
        }
        let mut ack = [0u8; 1];
        match stream.read_exact(&mut ack) {
            Ok(()) if ack[0] == b'+' => acked_frames += 1,
            _ => break,
        }
    }
    drop(stream);
    let (err, default_count, hourly_count) = server.join().unwrap();
    faults::clear();
    drop(guard);

    assert!(
        matches!(err, CollectorError::Panicked(_)),
        "expected a contained panic, got: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("absorber"), "names the stage: {msg}");
    assert!(msg.contains("injected panic"), "carries the cause: {msg}");
    assert_eq!(acked_frames, 2, "frames before the panicked one are acked");
    assert_eq!(default_count, 40);
    assert_eq!(hourly_count, 20, "the panicked batch must not be absorbed");

    // Every window's final snapshot restores to exactly its acked count.
    for (name, count) in [("default", default_count), ("hourly", hourly_count)] {
        let text = std::fs::read_to_string(dir.join(format!("{name}.snap")))
            .unwrap_or_else(|e| panic!("window {name}: no final snapshot: {e}"));
        let mut restored = build_session(spec).unwrap();
        restored.restore(&text).unwrap();
        assert_eq!(restored.count(), count, "window {name}: snapshot count");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicked_snapshot_writer_is_restarted_on_the_same_generation() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "writer-restart");
    let snap = dir.join("window.snap");

    // The second cadence write panics mid-persist; the supervisor must
    // retry the *same* generation so no durability waiter ever hangs.
    faults::install("snap-write=panic@2").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        connections: 1,
        ..ServeOptions::default()
    };
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 100,
        keep: 0,
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
        (summary, session.count())
    });

    let generator = build_session("grr:eps=1,d=8").unwrap();
    let log = generator.gen_reports(400, 23).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    for frame in frames_of(&log, 100) {
        write_frame(&mut stream, &frame).unwrap();
        assert_eq!(read_ack(&mut stream), b'+');
        // Let the writer drain each cadence publish before the next, so
        // the panic deterministically lands on a writer-thread persist.
        std::thread::sleep(Duration::from_millis(60));
    }
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut stream), b'+');
    drop(stream);

    let (summary, count) = server.join().unwrap();
    faults::clear();
    drop(guard);
    assert_eq!(summary.supervisor_restarts, 1, "one contained restart");
    assert_eq!(count, 400);
    // The retried generation (and the final snapshot) landed intact.
    let mut recovered = build_session("grr:eps=1,d=8").unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), 400);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_writer_past_its_restart_budget_fails_loudly_with_a_final_snapshot() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "writer-give-up");
    let snap = dir.join("window.snap");

    // Three consecutive panics on the same generation exhaust the
    // restart budget: the spool is poisoned, shutdown is raised, and
    // serve returns a loud error — never a silent wedge.
    faults::install("snap-write=panic@1,snap-write=panic@2,snap-write=panic@3").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions::default();
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 100,
        keep: 0,
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let err = serve(&listener, session.as_mut(), &policy, &options).unwrap_err();
        (err, session.count())
    });

    // A client that tolerates the abrupt end the give-up forces.
    let generator = build_session("grr:eps=1,d=8").unwrap();
    let log = generator.gen_reports(400, 27).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut acked = 0u64;
    for frame in frames_of(&log, 100) {
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
        let mut ack = [0u8; 1];
        match stream.read_exact(&mut ack) {
            Ok(()) if ack[0] == b'+' => acked += 100,
            _ => break,
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    drop(stream);

    let (err, count) = server.join().unwrap();
    faults::clear();
    drop(guard);
    let msg = err.to_string();
    assert!(
        msg.contains("snapshot writer panicked"),
        "the error names the stage and the budget: {msg}"
    );
    assert!(acked >= 100, "the first cadence frame was acked");
    // Even on the give-up path, the final snapshot covers every acked
    // frame — written by the serve thread, not the dead writer.
    let mut recovered = build_session("grr:eps=1,d=8").unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), count);
    assert!(
        recovered.count() >= acked,
        "acked frames are in the snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens a fresh sequenced session and checks its 9-byte hello ack
/// (cursor 0).
fn open_sequenced(addr: std::net::SocketAddr, id: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &protocol::encode_hello(id, 0)).unwrap();
    assert_eq!(read_ack(&mut stream), b'+', "hello refused");
    let mut cursor = [0u8; 8];
    stream.read_exact(&mut cursor).unwrap();
    assert_eq!(u64::from_be_bytes(cursor), 0);
    stream
}

/// Streams `frames` as sequence numbers `0..`, asserting a `+` per frame.
fn send_sequenced(stream: &mut TcpStream, frames: &[String]) {
    for (seq, frame) in frames.iter().enumerate() {
        write_frame(stream, &protocol::encode_seq_frame(seq as u64, frame)).unwrap();
        assert_eq!(read_ack(stream), b'+', "frame {seq} refused");
    }
}

/// A sequenced end-of-stream ack waits for its snapshot to be durable,
/// but nothing else does: on a single reactor, while session A's flush
/// snapshot is stalled on disk, session B on the same window keeps
/// getting every frame acked, and A's closing `+` arrives only once that
/// snapshot generation is written.
#[test]
fn a_stalled_flush_snapshot_delays_only_its_own_ack() {
    const STALL_MS: u64 = 1_500;
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "stalled-flush");
    let snap = dir.join("window.snap");
    let spec = "grr:eps=1,d=8";
    let generator = build_session(spec).unwrap();
    let a_frames = frames_of(&generator.gen_reports(60, 53).unwrap(), 20);
    let b_frames = frames_of(&generator.gen_reports(100, 59).unwrap(), 10);

    // With no cadence, A's end-of-stream snapshot is the first write.
    faults::install(&format!("snap-write=stall:{STALL_MS}@1")).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        connections: 2,
        reactor_threads: 1,
        ..ServeOptions::default()
    };
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 0,
        keep: 0,
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session(spec).unwrap();
        let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
        (summary, session.count())
    });

    let mut a = open_sequenced(addr, "stall-a");
    send_sequenced(&mut a, &a_frames);
    let mut b = open_sequenced(addr, "stall-b");

    // A's end-of-stream publishes the snapshot whose write stalls. When
    // its ack lands, that snapshot must already be on disk.
    a.write_all(&0u32.to_be_bytes()).unwrap();
    let flushed_at = Instant::now();
    let a_flush = std::thread::spawn({
        let snap = snap.clone();
        move || {
            let ack = read_ack(&mut a);
            let waited = flushed_at.elapsed();
            let text = std::fs::read_to_string(&snap).expect("no snapshot at A's flush ack");
            let mut durable = build_session(spec).unwrap();
            durable.restore(&text).unwrap();
            (ack, waited, durable.count())
        }
    });

    // Give the writer time to enter the stall, then stream B.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    send_sequenced(&mut b, &b_frames);
    let b_took = started.elapsed();
    assert!(
        b_took < Duration::from_millis(STALL_MS / 3),
        "B's frames waited on A's stalled snapshot: {b_took:?}"
    );

    let (a_ack, a_waited, durable_count) = a_flush.join().unwrap();
    assert_eq!(a_ack, b'+', "A's flush refused");
    assert!(
        a_waited >= Duration::from_millis(STALL_MS),
        "A's flush was acked after {a_waited:?}, before its snapshot was written"
    );
    assert_eq!(durable_count, 60, "the written generation is A's flush");

    b.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut b), b'+', "B's flush refused");
    drop(b);

    let (summary, count) = server.join().unwrap();
    faults::clear();
    drop(guard);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
    assert_eq!(count, 160);
    let mut recovered = build_session(spec).unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), 160);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The failing variant: when A's flush snapshot cannot be written, the
/// writer gives up, and A's end-of-stream is refused with `-` (its
/// cursor was never persisted, so the client keeps its replay buffer)
/// instead of hanging. The serve ends loudly with the writer's error.
#[test]
fn a_flush_whose_snapshot_cannot_be_written_is_refused() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("overload", "failed-flush");
    let snap = dir.join("window.snap");
    let spec = "grr:eps=1,d=8";
    let generator = build_session(spec).unwrap();
    let frames = frames_of(&generator.gen_reports(40, 61).unwrap(), 20);

    faults::install("snap-write=err@1").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = ServeOptions {
        reactor_threads: 1,
        ..ServeOptions::default() // connections: 0 — the writer's give-up ends it
    };
    let policy = SnapshotPolicy {
        path: Some(snap.clone()),
        every: 0,
        keep: 0,
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session(spec).unwrap();
        let err = serve(&listener, session.as_mut(), &policy, &options).unwrap_err();
        (err, session.count())
    });

    let mut a = open_sequenced(addr, "doomed");
    send_sequenced(&mut a, &frames);
    a.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(
        read_ack(&mut a),
        b'-',
        "a non-durable flush must be refused"
    );
    drop(a);

    let (err, count) = server.join().unwrap();
    faults::clear();
    drop(guard);
    assert!(
        err.to_string().contains("failpoint snap-write"),
        "serve names the failed write: {err}"
    );
    assert_eq!(count, 40, "the acked frames stay committed");
    // The final snapshot, written by the serve thread, still covers them.
    let mut recovered = build_session(spec).unwrap();
    recovered
        .restore(&std::fs::read_to_string(&snap).unwrap())
        .unwrap();
    assert_eq!(recovered.count(), 40);
    let _ = std::fs::remove_dir_all(&dir);
}
