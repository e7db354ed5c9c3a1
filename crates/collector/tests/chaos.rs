//! Chaos suite: the exactly-once contract under deterministic fault
//! injection.
//!
//! Three layers of drill, all asserting the same invariant — a faulted,
//! crashing, restarting collector ends the window **bit-identical** to a
//! fault-free serial ingest of the same reports:
//!
//! 1. protocol-level replay/gap semantics over a raw socket;
//! 2. in-process serve runs with `faults::install` schedules and the
//!    real `ldp-loadgen` sequenced client riding out the injections;
//! 3. the full kill-and-restart drill against the `ldp-collector`
//!    *binary* (`LDP_FAULTS` in the child's environment), including a
//!    torn snapshot write and a mid-ack `process::exit`.

mod common;

use common::{read_ack, reference_finalize, scratch};
use ldp_collector::server::{serve, write_frame, ServeOptions, SnapshotPolicy};
use ldp_collector::{build_session, faults, protocol};
use ldp_loadgen::{generate_frames, run, Plan};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fault schedule is process-global; every test that installs one
/// holds this lock for its whole serve run.
static FAULTS: Mutex<()> = Mutex::new(());

/// Opens a sequenced session and returns (stream, cursor from the ack).
fn hello(addr: &str, session: &str, horizon: u64) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &protocol::encode_hello(session, horizon)).unwrap();
    assert_eq!(read_ack(&mut stream), b'+', "hello refused");
    let mut raw = [0u8; 8];
    stream.read_exact(&mut raw).unwrap();
    (stream, u64::from_be_bytes(raw))
}

#[test]
fn replayed_frames_ack_idempotently_and_gaps_are_rejected() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = "grr:eps=1,d=8";
    let generator = build_session(spec).unwrap();
    let log = generator.gen_reports(40, 5).unwrap();
    let frames: Vec<String> = log
        .lines()
        .collect::<Vec<_>>()
        .chunks(10)
        .map(|c| c.join("\n"))
        .collect();

    let options = ServeOptions {
        connections: 3,
        ..ServeOptions::default()
    };
    let server = std::thread::spawn({
        let frames = frames.clone();
        move || {
            let mut session = build_session("grr:eps=1,d=8").unwrap();
            let policy = SnapshotPolicy {
                path: None,
                every: 0,
                keep: 0,
            };
            let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
            let mut reference = build_session("grr:eps=1,d=8").unwrap();
            for frame in &frames {
                reference.ingest_text(frame).unwrap();
            }
            assert_eq!(session.count(), 40, "replays were absorbed");
            assert_eq!(
                session.finalize_text().unwrap(),
                reference.finalize_text().unwrap()
            );
            summary
        }
    });

    // Session 1: frames 0 and 1, then the connection "dies" (drop).
    let (mut s1, cursor) = hello(&addr, "drill", 0);
    assert_eq!(cursor, 0);
    for (i, frame) in frames[..2].iter().enumerate() {
        write_frame(&mut s1, &protocol::encode_seq_frame(i as u64, frame)).unwrap();
        assert_eq!(read_ack(&mut s1), b'+');
    }
    drop(s1);

    // Session 2 resumes: the cursor says 2. A client that replays frame 0
    // anyway gets `+` without a second absorb; a gap (seq 3) gets `-`.
    let (mut s2, cursor) = hello(&addr, "drill", 0);
    assert_eq!(cursor, 2, "cursor survives the reconnect");
    write_frame(&mut s2, &protocol::encode_seq_frame(0, &frames[0])).unwrap();
    assert_eq!(read_ack(&mut s2), b'+', "sub-cursor replay must ack +");
    write_frame(&mut s2, &protocol::encode_seq_frame(3, &frames[3])).unwrap();
    assert_eq!(read_ack(&mut s2), b'-', "a gap must be rejected");
    drop(s2);

    // Session 3 finishes the stream properly.
    let (mut s3, cursor) = hello(&addr, "drill", 0);
    assert_eq!(cursor, 2, "the rejected gap frame must not advance");
    for (i, frame) in frames.iter().enumerate().skip(2) {
        write_frame(&mut s3, &protocol::encode_seq_frame(i as u64, frame)).unwrap();
        assert_eq!(read_ack(&mut s3), b'+');
    }
    s3.write_all(&0u32.to_be_bytes()).unwrap();
    assert_eq!(read_ack(&mut s3), b'+');
    drop(s3);

    let summary = server.join().unwrap();
    assert_eq!(summary.duplicates_suppressed, 1);
    assert_eq!(summary.sessions_resumed, 2);
    assert_eq!(summary.reports, 40);
}

#[test]
fn a_hello_below_the_clients_replay_horizon_is_refused() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let policy = SnapshotPolicy {
            path: None,
            every: 0,
            keep: 0,
        };
        let options = ServeOptions {
            connections: 1,
            ..ServeOptions::default()
        };
        serve(&listener, session.as_mut(), &policy, &options).unwrap()
    });
    // The client claims it can only replay from seq 5, but the collector
    // has never seen this session (cursor 0): frames 0..5 are
    // unrecoverable, so the hello must be refused, not silently skipped.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, &protocol::encode_hello("amnesiac", 5)).unwrap();
    assert_eq!(read_ack(&mut stream), b'-');
    drop(stream);
    let summary = server.join().unwrap();
    assert_eq!(summary.failed, 1);
    assert!(summary
        .last_session_error
        .unwrap()
        .contains("replay horizon"));
}

/// One faulted, sequenced fleet run against an in-process serve; asserts
/// the final estimate is bit-identical to the fault-free reference.
fn chaos_fleet_run(spec: &str, schedule: &str) {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Plan {
        spec: spec.into(),
        connections: 4,
        frames_per_connection: 6,
        reports_per_frame: 40,
        seed: 9,
        session: Some("chaos".into()),
        retry_budget: Duration::from_secs(60),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);

    faults::install(schedule).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions::default(); // connections: 0 — until shutdown
    let shutdown = Arc::clone(&options.shutdown);
    let server = std::thread::spawn({
        let spec = spec.to_string();
        move || {
            let mut session = build_session(&spec).unwrap();
            let policy = SnapshotPolicy {
                path: None,
                every: 0,
                keep: 0,
            };
            let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
            (summary, session.finalize_text().unwrap(), session.count())
        }
    });

    let report = run(&addr, &plan).unwrap();
    shutdown.store(true, Ordering::SeqCst);
    let (summary, finalized, count) = server.join().unwrap();
    faults::clear();
    drop(guard);

    assert_eq!(report.reports, plan.total_reports(), "spec {spec}");
    assert!(
        summary.faults_injected > 0,
        "spec {spec}: the schedule never fired"
    );
    assert!(
        report.reconnects > 0,
        "spec {spec}: faults should have forced reconnects"
    );
    assert_eq!(
        count, expected_count,
        "spec {spec}: lost or doubled reports"
    );
    assert_eq!(
        finalized, expected,
        "spec {spec}: faulted run must be bit-identical to the fault-free reference"
    );
}

#[test]
fn faulted_sw_ems_fleet_is_bit_identical_to_fault_free() {
    chaos_fleet_run(
        "sw-ems:eps=1,d=32",
        "frame-read=err@7,ack-write=err@13,commit-push=err@19",
    );
}

#[test]
fn faulted_oue_fleet_is_bit_identical_to_fault_free() {
    chaos_fleet_run(
        "oue:eps=1,d=16",
        "decode=err@3,frame-read=stall:40@9,ack-write=err@16",
    );
}

#[test]
fn faulted_pm_fleet_is_bit_identical_to_fault_free() {
    chaos_fleet_run(
        "pm:eps=1",
        "ack-write=err@5,frame-read=err@11,decode=err@17",
    );
}

#[test]
fn truncation_at_every_byte_boundary_fails_only_that_session() {
    let _guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "grr:eps=1,d=8";
    let generator = build_session(spec).unwrap();
    let good_log = generator.gen_reports(30, 21).unwrap();
    let good_frames: Vec<String> = good_log
        .lines()
        .collect::<Vec<_>>()
        .chunks(10)
        .map(|c| c.join("\n"))
        .collect();
    // The frame the truncated connections never finish sending: length
    // header plus payload, cut at every byte boundary from 0 (bare
    // close) to one short of complete.
    let payload = generator.gen_reports(2, 99).unwrap();
    let payload = payload.trim_end();
    let mut full = Vec::new();
    full.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    full.extend_from_slice(payload.as_bytes());
    let cuts = full.len(); // 0..cuts, exclusive of full delivery

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Every client connects at once and none retries a `!busy` shed, so
    // the fleet must fit the admission limit for the counts to be exact.
    let options = ServeOptions {
        max_connections: cuts + 1,
        connections: (cuts + 1) as u64,
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || {
        let mut session = build_session("grr:eps=1,d=8").unwrap();
        let policy = SnapshotPolicy {
            path: None,
            every: 0,
            keep: 0,
        };
        let summary = serve(&listener, session.as_mut(), &policy, &options).unwrap();
        (summary, session.count())
    });

    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for frame in &good_frames {
                write_frame(&mut stream, frame).unwrap();
                assert_eq!(read_ack(&mut stream), b'+', "healthy session suffered");
            }
            stream.write_all(&0u32.to_be_bytes()).unwrap();
            assert_eq!(read_ack(&mut stream), b'+');
        });
        for cut in 0..cuts {
            let prefix = &full[..cut];
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(prefix).unwrap();
                let _ = stream.shutdown(std::net::Shutdown::Write);
                // Drain until the server hangs up on us.
                let mut sink = [0u8; 16];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            });
        }
    });

    let (summary, count) = server.join().unwrap();
    assert_eq!(count, 30, "truncated bytes must contribute nothing");
    assert_eq!(summary.completed, 1, "the one whole session completes");
    assert_eq!(
        summary.failed as usize, cuts,
        "every truncated session fails alone"
    );
}

// ---------------------------------------------------------------------
// The kill-and-restart drill against the real binary.
// ---------------------------------------------------------------------

fn collector_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldp-collector"))
}

fn spawn_collector(dir: &Path, addr: &str, spec: &str, faults_env: &str) -> Child {
    let mut cmd = collector_bin();
    cmd.args([
        "serve",
        "--mechanism",
        spec,
        "--listen",
        addr,
        "--snapshot",
        dir.join("window.snap").to_str().unwrap(),
        "--snapshot-every",
        "40",
        "--resume",
        "--shutdown-file",
        dir.join("stop").to_str().unwrap(),
    ]);
    if faults_env.is_empty() {
        cmd.env_remove("LDP_FAULTS");
    } else {
        cmd.env("LDP_FAULTS", faults_env);
    }
    cmd.stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning ldp-collector")
}

#[test]
fn kill_and_restart_drill_ends_bit_identical() {
    let spec = "sw-ems:eps=1,d=32";
    let dir = scratch("chaos", "drill");
    // A fixed localhost port for the restart chain: every child must
    // bind the *same* address. Probe for a free one first.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
        // probe drops here; the children re-bind the port (SO_REUSEADDR).
    };

    let plan = Plan {
        spec: spec.into(),
        connections: 3,
        frames_per_connection: 8,
        reports_per_frame: 25,
        seed: 4,
        session: Some("restart".into()),
        retry_budget: Duration::from_secs(60),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);

    // Child 1 crashes with `process::exit` between an absorb and its ack
    // — the classic exactly-once hole. Start the fleet against it.
    let c1 = spawn_collector(&dir, &addr, spec, "ack-write=exit@9");
    let fleet = std::thread::spawn({
        let addr = addr.clone();
        let plan = plan.clone();
        move || run(&addr, &plan)
    });
    let status = c1.wait_with_output().unwrap().status;
    assert_eq!(
        status.code(),
        Some(faults::FAULT_EXIT_CODE),
        "child 1 should die at the injected exit"
    );

    // Child 2 restarts from the snapshot, then dies on a *torn* cadence
    // snapshot write (the tmp file is left half-written on disk; the
    // real snapshot must be untouched).
    let c2 = spawn_collector(&dir, &addr, spec, "snap-write=torn@1");
    let status = c2.wait_with_output().unwrap().status;
    assert_eq!(
        status.code(),
        Some(1),
        "child 2 should fail on the torn write"
    );

    // Child 3 runs fault-free; the fleet finishes its resumed sessions.
    let c3 = spawn_collector(&dir, &addr, spec, "");
    let report = fleet
        .join()
        .unwrap()
        .expect("the fleet should ride out both crashes");
    std::fs::write(dir.join("stop"), b"").unwrap();
    let status = c3.wait_with_output().unwrap().status;
    assert!(status.success(), "child 3 should retire cleanly");

    assert_eq!(report.reports, plan.total_reports(), "exactly-once count");
    assert!(report.reconnects >= 1, "the fleet must have reconnected");

    // The recovered window equals the fault-free serial reference bit
    // for bit, and the persisted cursors cover every session.
    let snap = std::fs::read_to_string(dir.join("window.snap")).unwrap();
    let mut recovered = build_session(spec).unwrap();
    recovered.restore(&snap).unwrap();
    assert_eq!(recovered.count(), expected_count);
    assert_eq!(recovered.finalize_text().unwrap(), expected);

    // `inspect` surfaces the persisted cursors.
    let out = collector_bin()
        .args(["inspect", dir.join("window.snap").to_str().unwrap()])
        .env_remove("LDP_FAULTS")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("sessions    3"), "inspect output:\n{text}");
    assert!(
        text.contains("restart-0 cursor 8"),
        "inspect output:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
