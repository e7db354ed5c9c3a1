//! Reactor-engine acceptance suite.
//!
//! The epoll serve path must carry the whole exactly-once contract at
//! fleet scale: 256 concurrent sequenced sessions multiplexed over 4
//! reactor threads, under fault injection, ending bit-identical to a
//! serial ingest — plus the router's per-window snapshots and the
//! accept-loop's fd-pressure backoff.

mod common;

use common::{reference_finalize, scratch};
use ldp_collector::server::{
    serve, serve_routed, summary_json, ServeOptions, ServeSummary, SnapshotPolicy, WindowRoute,
};
use ldp_collector::{build_session, faults};
use ldp_loadgen::{generate_frames, run, Plan};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fault schedule is process-global; every test that installs one
/// holds this lock for its whole serve run.
static FAULTS: Mutex<()> = Mutex::new(());

/// The headline acceptance run: 256 concurrent sequenced sessions on 4
/// reactor threads, riding out an injected fault schedule, must end
/// bit-identical to the serial reference with zero duplicate absorbs.
#[test]
fn c256_fleet_on_four_reactor_threads_is_bit_identical_under_chaos() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "sw-ems:eps=1,d=32";
    let plan = Plan {
        spec: spec.into(),
        connections: 256,
        frames_per_connection: 3,
        reports_per_frame: 16,
        seed: 77,
        session: Some("swarm".into()),
        retry_budget: Duration::from_secs(120),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);

    faults::install("frame-read=err@101,ack-write=err@211,commit-push=err@307").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions {
        max_connections: 300,
        reactor_threads: 4,
        ..ServeOptions::default()
    };
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

    assert_eq!(report.reports, plan.total_reports());
    assert!(summary.faults_injected > 0, "the schedule never fired");
    assert!(
        report.reconnects > 0,
        "faults should have forced reconnects"
    );
    assert_eq!(count, expected_count, "lost or doubled reports");
    assert_eq!(
        finalized, expected,
        "256-session reactor run must be bit-identical to the serial reference"
    );
    assert!(summary.window_reports.is_empty(), "no routes configured");
}

/// Hello-routed sessions must land in their named windows: each window
/// finalizes exactly like a serial ingest of its own traffic, writes
/// its own snapshot file, and the summary carries per-window counts.
#[test]
fn routed_sessions_land_in_their_named_windows() {
    let dir = scratch("reactor", "windows");
    let spec = "sw-ems:eps=1,d=16";
    let mk_plan = |prefix: &str, window: Option<&str>, seed: u64| Plan {
        spec: spec.into(),
        connections: 4,
        frames_per_connection: 2,
        reports_per_frame: 10,
        seed,
        session: Some(prefix.into()),
        retry_budget: Duration::from_secs(60),
        window: window.map(str::to_string),
        ..Plan::default()
    };
    let plans = [
        mk_plan("pa", None, 11),
        mk_plan("pb", Some("hourly"), 22),
        mk_plan("pc", Some("daily"), 33),
    ];
    let references: Vec<(String, u64)> = plans
        .iter()
        .map(|p| reference_finalize(spec, &generate_frames(p).unwrap()))
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions {
        reactor_threads: 2,
        ..ServeOptions::default()
    };
    let shutdown = Arc::clone(&options.shutdown);
    let route = {
        let dir = dir.clone();
        move |name: &str| WindowRoute {
            name: name.into(),
            session: build_session(spec).unwrap(),
            policy: SnapshotPolicy {
                path: Some(dir.join(format!("{name}.snap"))),
                every: 0,
                keep: 2,
            },
        }
    };
    let server = std::thread::spawn({
        let spec = spec.to_string();
        let default_path = dir.join("default.snap");
        move || {
            let mut windows = vec![route("hourly"), route("daily")];
            let mut session = build_session(&spec).unwrap();
            let policy = SnapshotPolicy {
                path: Some(default_path),
                every: 0,
                keep: 2,
            };
            let summary =
                serve_routed(&listener, session.as_mut(), &policy, &options, &mut windows).unwrap();
            let mut outcomes = vec![(
                "default".to_string(),
                session.finalize_text().unwrap(),
                session.count(),
            )];
            for w in &mut windows {
                outcomes.push((
                    w.name.clone(),
                    w.session.finalize_text().unwrap(),
                    w.session.count(),
                ));
            }
            (summary, outcomes)
        }
    });

    let clients: Vec<_> = plans
        .iter()
        .map(|plan| {
            let addr = addr.clone();
            let plan = plan.clone();
            std::thread::spawn(move || run(&addr, &plan).unwrap())
        })
        .collect();
    for (client, plan) in clients.into_iter().zip(&plans) {
        let report = client.join().unwrap();
        assert_eq!(report.reports, plan.total_reports());
    }
    shutdown.store(true, Ordering::SeqCst);
    let (summary, outcomes) = server.join().unwrap();

    for ((name, finalized, count), (expected, expected_count)) in outcomes.iter().zip(&references) {
        assert_eq!(count, expected_count, "window {name}: wrong report count");
        assert_eq!(
            finalized, expected,
            "window {name}: must be bit-identical to a serial ingest of its own traffic"
        );
    }
    // The summary's per-window counts line up with the routed traffic.
    let per_window: std::collections::HashMap<_, _> =
        summary.window_reports.iter().cloned().collect();
    for ((name, _, _), (_, expected_count)) in outcomes.iter().zip(&references) {
        assert_eq!(
            per_window.get(name.as_str()),
            Some(expected_count),
            "summary.window_reports[{name}]"
        );
    }
    // Every window wrote its own snapshot; a fresh session restores each
    // to the window's exact count.
    for (name, _, count) in &outcomes {
        let path = dir.join(format!("{name}.snap"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("window {name}: no snapshot at {}: {e}", path.display()));
        let mut restored = build_session(spec).unwrap();
        restored.merge_snapshot(&text).unwrap();
        assert_eq!(restored.count(), *count, "window {name}: snapshot count");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient accept-loop failures (fd exhaustion, injected here) must
/// back off and keep serving instead of killing the listener; the
/// summary counts them.
#[test]
fn a_transient_accept_failure_backs_off_and_the_fleet_completes() {
    let guard = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "sw-ems:eps=1,d=16";
    let plan = Plan {
        spec: spec.into(),
        connections: 4,
        frames_per_connection: 2,
        reports_per_frame: 8,
        seed: 5,
        session: Some("fdp".into()),
        retry_budget: Duration::from_secs(60),
        ..Plan::default()
    };
    let frames = generate_frames(&plan).unwrap();
    let (expected, expected_count) = reference_finalize(spec, &frames);

    faults::install("accept=err@1").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions::default();
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

    assert_eq!(report.reports, plan.total_reports());
    assert!(
        summary.accept_errors >= 1,
        "the injected accept failure must be counted, got {}",
        summary.accept_errors
    );
    assert_eq!(count, expected_count);
    assert_eq!(finalized, expected);
}

/// `--summary-json` consumers parse this by key: pin the exact shape,
/// including escaping and the `null` for a clean run.
#[test]
fn summary_json_pins_the_shape() {
    let summary = ServeSummary {
        accepted: 3,
        reports: 42,
        window_reports: vec![("default".to_string(), 40), ("hourly".to_string(), 2)],
        last_session_error: Some("boom \"quoted\"\nline".to_string()),
        ..ServeSummary::default()
    };
    let json = summary_json(&summary);
    assert_eq!(
        json,
        "{\"accepted\":3,\"completed\":0,\"failed\":0,\"reports\":42,\
         \"snapshots_superseded\":0,\"duplicates_suppressed\":0,\
         \"sessions_resumed\":0,\"idle_disconnects\":0,\"admission_sheds\":0,\
         \"quota_sheds\":0,\"rate_sheds\":0,\"oversized_frames\":0,\
         \"evictions\":0,\"supervisor_restarts\":0,\"peak_queue_bytes\":0,\
         \"accept_errors\":0,\"faults_injected\":0,\
         \"window_reports\":{\"default\":40,\"hourly\":2},\
         \"last_session_error\":\"boom \\\"quoted\\\"\\nline\"}"
    );

    let clean = ServeSummary::default();
    assert!(summary_json(&clean).ends_with("\"last_session_error\":null}"));
    assert!(summary_json(&clean).contains("\"window_reports\":{}"));
}
