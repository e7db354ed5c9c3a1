//! Collector crash-recovery conformance: for every registered mechanism
//! family, a collection window that is snapshotted, killed, and resumed
//! finalizes **bit-identically** to uninterrupted one-shot aggregation,
//! and snapshots collected on parallel shards merge to exactly the
//! concatenated stream. Also pins the rejection surface (corruption,
//! truncation, cross-configuration) and the documented edge semantics
//! (empty windows, duplicate lines).

use ldp_collector::registry::build_session;
use ldp_collector::session::ingest_resuming;
use ldp_collector::CollectorError;

/// Every registered mechanism family, exercised end to end. The
/// acceptance-critical four (SW-EMS, OUE, PM, HH) lead the list.
const SPECS: &[&str] = &[
    "sw-ems:eps=1,d=32",
    "oue:eps=1,d=16",
    "pm:eps=1",
    "hh:eps=1,d=64",
    "sw-em:eps=1,d=32",
    "grr:eps=1,d=16",
    "olh:eps=1,d=16",
    "hrr:eps=1,d=16",
    "adaptive:eps=1,d=16",
    "cfo-binning:eps=1,d=64,bins=16",
    "sr:eps=1",
    "hybrid:eps=2",
    "hh-admm:eps=1,d=16",
    "haar-hrr:eps=1,d=64",
];

const N: u64 = 3_000;

fn window(spec: &str) -> (String, String) {
    let mut session = build_session(spec).unwrap();
    let reports = session.gen_reports(N, 0xC0FFEE).unwrap();
    session.ingest_text(&reports).unwrap();
    assert_eq!(session.count(), N, "{spec}");
    let estimate = session.finalize_text().unwrap();
    (reports, estimate)
}

#[test]
fn kill_and_resume_is_bit_identical_for_every_mechanism() {
    for spec in SPECS {
        let (reports, expected) = window(spec);
        for crash_after in [1u64, N / 3, N - 1] {
            // Phase 1: a collector absorbs `crash_after` reports and
            // persists a snapshot; then the process dies (drop).
            let snapshot = {
                let mut collector = build_session(spec).unwrap();
                let prefix: String =
                    reports
                        .lines()
                        .take(crash_after as usize)
                        .fold(String::new(), |mut acc, l| {
                            acc.push_str(l);
                            acc.push('\n');
                            acc
                        });
                collector.ingest_text(&prefix).unwrap();
                collector.snapshot_text()
            };
            // Phase 2: a fresh process restores the snapshot and replays
            // the log from where the snapshot left off.
            let mut recovered = build_session(spec).unwrap();
            recovered.restore(&snapshot).unwrap();
            assert_eq!(recovered.count(), crash_after, "{spec}");
            ingest_resuming(recovered.as_mut(), &reports).unwrap();
            assert_eq!(recovered.count(), N, "{spec}");
            assert_eq!(
                recovered.finalize_text().unwrap(),
                expected,
                "{spec}: resume after {crash_after} must be bit-identical"
            );
        }
    }
}

#[test]
fn snapshot_merge_across_three_collectors_equals_concatenated_ingest() {
    for spec in SPECS {
        let (reports, expected) = window(spec);
        let lines: Vec<&str> = reports.lines().collect();
        // Three parallel collectors over disjoint thirds (uneven splits).
        let bounds = [0, 700, 1_900, lines.len()];
        let mut snapshots = Vec::new();
        for w in bounds.windows(2) {
            let mut shard = build_session(spec).unwrap();
            shard.ingest_text(&lines[w[0]..w[1]].join("\n")).unwrap();
            snapshots.push(shard.snapshot_text());
        }
        assert_eq!(snapshots.len(), 3);
        // Merge in order...
        let mut merged = build_session(spec).unwrap();
        for s in &snapshots {
            merged.merge_snapshot(s).unwrap();
        }
        assert_eq!(merged.count(), N, "{spec}");
        assert_eq!(merged.finalize_text().unwrap(), expected, "{spec}");
        // ...and out of order (merge must commute for these states).
        let mut reordered = build_session(spec).unwrap();
        for s in [&snapshots[2], &snapshots[0], &snapshots[1]] {
            reordered.merge_snapshot(s).unwrap();
        }
        assert_eq!(
            reordered.finalize_text().unwrap(),
            expected,
            "{spec}: out-of-order merge"
        );
    }
}

#[test]
fn bulk_sharded_ingest_equals_line_by_line() {
    // Large enough to take the pool-sharded path when the pool has
    // workers (CI runs this suite under LDP_POOL_THREADS=2). GRR decodes
    // through the default line loop, SW through the f64 frame decoder.
    for spec in ["grr:eps=1,d=8", "sw-ems:eps=1,d=64"] {
        let gen = build_session(spec).unwrap();
        let reports = gen.gen_reports(12_000, 7).unwrap();
        let mut bulk = build_session(spec).unwrap();
        bulk.ingest_text(&reports).unwrap();
        let mut serial = build_session(spec).unwrap();
        for line in reports.lines() {
            serial.ingest_line(line).unwrap();
        }
        assert_eq!(bulk.count(), serial.count(), "{spec}");
        assert_eq!(bulk.snapshot_text(), serial.snapshot_text(), "{spec}");
        assert_eq!(
            bulk.finalize_text().unwrap(),
            serial.finalize_text().unwrap(),
            "{spec}"
        );
    }
}

#[test]
fn corrupted_snapshots_are_rejected_not_absorbed() {
    for spec in ["sw-ems:eps=1,d=32", "pm:eps=1", "hh:eps=1,d=16"] {
        let mut session = build_session(spec).unwrap();
        let reports = session.gen_reports(300, 3).unwrap();
        session.ingest_text(&reports).unwrap();
        let good = session.snapshot_text();
        // Flip one digit somewhere in the body.
        let body_start = good.lines().take(5).map(|l| l.len() + 1).sum::<usize>();
        let idx = good[body_start..]
            .find(|c: char| c.is_ascii_digit() && c != '9')
            .map(|i| i + body_start)
            .unwrap();
        let mut corrupted = good.clone();
        corrupted.replace_range(idx..=idx, "9");
        let mut fresh = build_session(spec).unwrap();
        let err = fresh.restore(&corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{spec}: {err}");
        // The failed restore left the session untouched and usable.
        assert_eq!(fresh.count(), 0);
        fresh.restore(&good).unwrap();
        assert_eq!(fresh.count(), 300);
    }
}

#[test]
fn truncated_snapshots_are_rejected_at_every_line_boundary() {
    let spec = "hh:eps=1,d=16";
    let mut session = build_session(spec).unwrap();
    let reports = session.gen_reports(200, 5).unwrap();
    session.ingest_text(&reports).unwrap();
    let good = session.snapshot_text();
    let total_lines = good.lines().count();
    let mut offset = 0;
    for (i, line) in good.lines().enumerate() {
        offset += line.len() + 1;
        if i + 1 == total_lines {
            break; // the full file is valid
        }
        let mut fresh = build_session(spec).unwrap();
        assert!(
            fresh.restore(&good[..offset]).is_err(),
            "truncation after line {i} must be rejected"
        );
    }
    // Mid-line truncation as well.
    let mut fresh = build_session(spec).unwrap();
    assert!(fresh.restore(&good[..good.len() - 2]).is_err());
}

#[test]
fn cross_configuration_snapshots_are_rejected() {
    let mut a = build_session("sw-ems:eps=1,d=32").unwrap();
    let reports = a.gen_reports(200, 1).unwrap();
    a.ingest_text(&reports).unwrap();
    let snap = a.snapshot_text();

    // Different ε, different granularity, different reconstruction,
    // different family: all refused, for restore and merge alike.
    for other in [
        "sw-ems:eps=2,d=32",
        "sw-ems:eps=1,d=64",
        "sw-em:eps=1,d=32",
        "pm:eps=1",
        "grr:eps=1,d=32",
    ] {
        let mut b = build_session(other).unwrap();
        assert!(
            matches!(b.restore(&snap), Err(CollectorError::Core(_))),
            "{other} restore must be refused"
        );
        assert!(
            b.merge_snapshot(&snap).is_err(),
            "{other} merge must be refused"
        );
        assert_eq!(b.count(), 0, "{other}: rejected snapshot must not leak");
    }
}

#[test]
fn empty_window_semantics_are_pinned() {
    // Ingesting an empty stream is a no-op, not an error.
    for spec in SPECS {
        let mut s = build_session(spec).unwrap();
        assert_eq!(s.ingest_text("").unwrap(), 0, "{spec}");
        assert_eq!(s.ingest_text("\n  \n\n").unwrap(), 0, "{spec}");
        assert_eq!(s.count(), 0, "{spec}");
        // An empty snapshot round-trips (a freshly started window can
        // crash before its first report).
        let snap = s.snapshot_text();
        let mut fresh = build_session(spec).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.count(), 0, "{spec}");
    }
    // Finalizing an empty window: distribution reconstructions refuse
    // (EM needs at least one report), debiasing oracles yield the
    // all-zero frequency vector, mean mechanisms yield 0 — exactly the
    // table in docs/OPERATIONS.md.
    for spec in [
        "sw-ems:eps=1,d=32",
        "cfo-binning:eps=1,d=64,bins=16",
        "hh:eps=1,d=16",
        "haar-hrr:eps=1,d=16",
    ] {
        let s = build_session(spec).unwrap();
        assert!(
            s.finalize_text().is_err(),
            "{spec} must refuse an empty window"
        );
    }
    for spec in [
        "grr:eps=1,d=4",
        "oue:eps=1,d=4",
        "olh:eps=1,d=4",
        "hrr:eps=1,d=4",
    ] {
        let s = build_session(spec).unwrap();
        let text = s.finalize_text().unwrap();
        assert!(
            text.lines().all(|l| l.parse::<f64>().unwrap() == 0.0),
            "{spec}: empty window finalizes to zeros"
        );
    }
    for spec in ["pm:eps=1", "sr:eps=1", "hybrid:eps=2"] {
        let s = build_session(spec).unwrap();
        assert_eq!(s.finalize_text().unwrap(), "0\n", "{spec}");
    }
}

#[test]
fn duplicate_lines_are_counted_twice_by_design() {
    // The collector is at-least-once: it absorbs every line it is given
    // and never deduplicates (exactly-once is the replay log's job — see
    // docs/OPERATIONS.md). Feeding the same stream twice therefore
    // equals one stream with every report doubled.
    let spec = "grr:eps=1,d=8";
    let mut twice = build_session(spec).unwrap();
    let reports = twice.gen_reports(500, 11).unwrap();
    twice.ingest_text(&reports).unwrap();
    twice.ingest_text(&reports).unwrap();
    assert_eq!(twice.count(), 1_000);
    let mut doubled = build_session(spec).unwrap();
    doubled.ingest_text(&format!("{reports}{reports}")).unwrap();
    assert_eq!(
        twice.finalize_text().unwrap(),
        doubled.finalize_text().unwrap()
    );
    // The resume path, by contrast, is exactly-once over the replay log:
    // restoring the full window's snapshot and replaying the same log
    // absorbs nothing new.
    let snap = twice.snapshot_text();
    let mut resumed = build_session(spec).unwrap();
    resumed.restore(&snap).unwrap();
    let absorbed = ingest_resuming(resumed.as_mut(), &format!("{reports}{reports}")).unwrap();
    assert_eq!(absorbed, 0);
    assert_eq!(resumed.count(), 1_000);
}

#[test]
fn malformed_report_lines_reject_the_batch_atomically() {
    for spec in ["sw-ems:eps=1,d=32", "oue:eps=1,d=8", "pm:eps=1"] {
        let mut session = build_session(spec).unwrap();
        let reports = session.gen_reports(100, 13).unwrap();
        let poisoned = format!("{reports}definitely-not-a-report\n");
        assert!(session.ingest_text(&poisoned).is_err(), "{spec}");
        assert_eq!(session.count(), 0, "{spec}: all-or-nothing ingest");
        // The window remains usable.
        session.ingest_text(&reports).unwrap();
        assert_eq!(session.count(), 100, "{spec}");
    }
}
