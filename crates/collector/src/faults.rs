//! Deterministic fault injection for the serve path.
//!
//! Failure is the default-handled case on the serve path, and the only way
//! to keep that true is to *schedule* failures in tests and drills instead
//! of hoping for them. This module provides named **failpoints** at the
//! seams where real deployments break — frame reads, decodes, commit
//! handoffs, ack writes, and the snapshot tmp-write/rename pair — and a tiny
//! schedule grammar for arming them:
//!
//! ```text
//! LDP_FAULTS = entry ("," entry)*
//! entry      = point "=" action ["@" nth]
//! point      = frame-read | decode | commit-push | ack-write
//!            | snap-write | snap-rename | absorb | admission | ack-evict
//!            | accept
//! action     = err | exit | panic | torn | stall:<millis>
//! nth        = 1-based hit count at which the fault fires (default 1)
//! ```
//!
//! Examples: `ack-write=exit@5` crashes the process (exit code
//! [`FAULT_EXIT_CODE`]) the fifth time any success ack is about to be
//! written — *after* the batch was committed, the canonical double-count
//! hazard; `snap-write=torn@2` tears the second snapshot tmp-file write in
//! half and fails it.
//!
//! Each armed entry fires exactly once, at its scheduled hit; the same
//! point may be armed at several hit counts. The schedule is installed
//! from the `LDP_FAULTS` environment variable at binary startup
//! ([`install_from_env`]) or programmatically ([`install`]); when nothing
//! is armed, every failpoint is a single relaxed atomic load —
//! effectively zero-cost, and the default build behaves identically to
//! one without this module.
//!
//! The chaos suite (`tests/chaos.rs`) and the kill-and-retry drill in
//! `docs/OPERATIONS.md` are the two consumers.

use crate::error::CollectorError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Exit code of a `exit`-action fault — distinguishable from both clean
/// exits and ordinary failures (`1`) so drills can assert the crash they
/// scheduled is the crash they got.
pub const FAULT_EXIT_CODE: i32 = 42;

/// Every failpoint name the serve path defines.
///
/// `absorb` sits in the commit step, under the window's lock, immediately
/// before a batch is merged (the supervisor's test seam); `admission` fires in the
/// acceptor as a connection is about to be admitted (forcing a busy-shed
/// of an otherwise-admittable peer); `ack-evict` fires as a success ack is
/// about to be written and simulates a slow-consumer ack-deadline expiry
/// (the connection is evicted instead of acked); `accept` fires inside
/// the accept loop itself and simulates the listener's own syscall
/// failing (the `EMFILE`/`ENFILE` fd-exhaustion path — the serve loop
/// must back off and keep listening, not crash).
pub const FAULT_POINTS: &[&str] = &[
    "frame-read",
    "decode",
    "commit-push",
    "ack-write",
    "snap-write",
    "snap-rename",
    "absorb",
    "admission",
    "ack-evict",
    "accept",
];

/// What an armed fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// The failpoint reports an injected error to its caller.
    Err,
    /// The process exits immediately with [`FAULT_EXIT_CODE`] — a
    /// deterministic crash (nothing after the failpoint runs: no ack, no
    /// fsync, no rename).
    Exit,
    /// The failpoint panics the calling thread — a *bug*, not a clean
    /// error. This is how the supervisor drill deliberately kills a
    /// pipeline stage (`absorb=panic`, `snap-write=panic`) to prove the
    /// serve path contains panics instead of wedging.
    Panic,
    /// The operation is *torn*: only a prefix of the bytes is written
    /// before the failpoint reports an error. Only meaningful at
    /// `snap-write`.
    Torn,
    /// The failpoint blocks for this many milliseconds, then continues
    /// normally — a stalled disk or peer, not a failure.
    Stall(u64),
}

/// What a firing failpoint asks its caller to do ([`FaultAction::Exit`]
/// and [`FaultAction::Stall`] are handled inside [`hit`] and never reach
/// the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Fail the operation with [`error`].
    Err,
    /// Write a torn prefix, then fail the operation.
    Torn,
}

#[derive(Debug, Clone)]
struct Armed {
    point: String,
    action: FaultAction,
    nth: u64,
    fired: bool,
}

#[derive(Debug, Default)]
struct Schedule {
    armed: Vec<Armed>,
    hits: BTreeMap<String, u64>,
}

/// Fast-path gate: failpoints are a single relaxed load when disarmed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Total faults fired since process start (cumulative; callers diff it).
static INJECTED: AtomicU64 = AtomicU64::new(0);
static SCHEDULE: Mutex<Option<Schedule>> = Mutex::new(None);

/// Parses a fault schedule (the `LDP_FAULTS` grammar in the module docs).
pub fn parse(spec: &str) -> Result<Vec<(String, FaultAction, u64)>, CollectorError> {
    let bad = |msg: String| CollectorError::Spec(format!("invalid fault schedule: {msg}"));
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (point, rest) = entry
            .split_once('=')
            .ok_or_else(|| bad(format!("entry {entry:?} is not point=action")))?;
        if !FAULT_POINTS.contains(&point) {
            return Err(bad(format!(
                "unknown failpoint {point:?} (valid: {})",
                FAULT_POINTS.join(", ")
            )));
        }
        let (action_str, nth) = match rest.split_once('@') {
            Some((a, n)) => (
                a,
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad(format!("hit count {n:?} must be a positive integer")))?,
            ),
            None => (rest, 1),
        };
        let action = match action_str {
            "err" => FaultAction::Err,
            "exit" => FaultAction::Exit,
            "panic" => FaultAction::Panic,
            "torn" => FaultAction::Torn,
            other => match other.strip_prefix("stall:") {
                Some(ms) => FaultAction::Stall(ms.parse().map_err(|_| {
                    bad(format!("stall duration {ms:?} is not a millisecond count"))
                })?),
                None => return Err(bad(format!("unknown action {other:?}"))),
            },
        };
        if action == FaultAction::Torn && point != "snap-write" {
            return Err(bad(format!(
                "action torn is only meaningful at snap-write, not {point:?}"
            )));
        }
        out.push((point.to_string(), action, nth));
    }
    Ok(out)
}

/// Arms the fault schedule `spec`, replacing any previous schedule (an
/// empty spec disarms everything, like [`clear`]). Hit counters restart
/// from zero.
pub fn install(spec: &str) -> Result<(), CollectorError> {
    let entries = parse(spec)?;
    let mut guard = SCHEDULE.lock().expect("fault schedule lock");
    if entries.is_empty() {
        *guard = None;
        ENABLED.store(false, Ordering::SeqCst);
        return Ok(());
    }
    *guard = Some(Schedule {
        armed: entries
            .into_iter()
            .map(|(point, action, nth)| Armed {
                point,
                action,
                nth,
                fired: false,
            })
            .collect(),
        hits: BTreeMap::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Arms the schedule in the `LDP_FAULTS` environment variable, if set —
/// called once from binary startup so operator drills and CI chaos lanes
/// can schedule faults without touching code.
pub fn install_from_env() -> Result<(), CollectorError> {
    match std::env::var("LDP_FAULTS") {
        Ok(spec) => install(&spec),
        Err(_) => Ok(()),
    }
}

/// Disarms every fault and resets the hit counters.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *SCHEDULE.lock().expect("fault schedule lock") = None;
}

/// Total faults fired since process start (cumulative across schedules —
/// diff two readings to count one serve call's injections).
#[must_use]
pub fn injected() -> u64 {
    INJECTED.load(Ordering::SeqCst)
}

/// The error a failpoint reports when its fault fires with
/// [`FaultAction::Err`] (or tears a write).
#[must_use]
pub fn error(point: &str) -> CollectorError {
    CollectorError::Fault(format!("failpoint {point}"))
}

/// The failpoint itself: every instrumented seam calls this with its
/// name. Returns `None` (and does nothing) unless a schedule armed this
/// point at exactly this hit count. `Stall` sleeps here and returns
/// `None`; `Exit` terminates the process here; `Err`/`Torn` are returned
/// for the caller to act on.
pub fn hit(point: &str) -> Option<Injected> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    fire(point)
}

#[cold]
fn fire(point: &str) -> Option<Injected> {
    let action = {
        let mut guard = SCHEDULE.lock().expect("fault schedule lock");
        let schedule = guard.as_mut()?;
        let count = schedule.hits.entry(point.to_string()).or_insert(0);
        *count += 1;
        let count = *count;
        let armed = schedule
            .armed
            .iter_mut()
            .find(|a| !a.fired && a.point == point && a.nth == count)?;
        armed.fired = true;
        armed.action.clone()
    };
    INJECTED.fetch_add(1, Ordering::SeqCst);
    match action {
        FaultAction::Err => Some(Injected::Err),
        FaultAction::Torn => Some(Injected::Torn),
        FaultAction::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        FaultAction::Exit => {
            eprintln!(
                "ldp-collector: injected crash at failpoint {point} (exit {FAULT_EXIT_CODE})"
            );
            std::process::exit(FAULT_EXIT_CODE);
        }
        FaultAction::Panic => {
            panic!("injected panic at failpoint {point} (LDP_FAULTS)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is process-global; tests that arm it must not overlap.
    /// Shared with `tests/chaos.rs` conceptually — inside this crate the
    /// unit tests serialize on this mutex.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn grammar_round_trips() {
        let entries = parse("ack-write=exit@5, snap-write=torn@2,frame-read=err").unwrap();
        assert_eq!(
            entries,
            vec![
                ("ack-write".into(), FaultAction::Exit, 5),
                ("snap-write".into(), FaultAction::Torn, 2),
                ("frame-read".into(), FaultAction::Err, 1),
            ]
        );
        assert_eq!(
            parse("decode=stall:250").unwrap(),
            vec![("decode".into(), FaultAction::Stall(250), 1)]
        );
        assert_eq!(
            parse("absorb=panic@2,admission=err,ack-evict=err@3").unwrap(),
            vec![
                ("absorb".into(), FaultAction::Panic, 2),
                ("admission".into(), FaultAction::Err, 1),
                ("ack-evict".into(), FaultAction::Err, 3),
            ]
        );
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn panic_action_panics_the_calling_thread() {
        let _serial = SERIAL.lock().unwrap();
        install("absorb=panic").unwrap();
        let result = std::panic::catch_unwind(|| hit("absorb"));
        clear();
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("injected panic at failpoint absorb"));
    }

    #[test]
    fn grammar_rejects_nonsense() {
        assert!(parse("bogus-point=err").is_err());
        assert!(parse("decode").is_err());
        assert!(parse("decode=fry").is_err());
        assert!(parse("decode=err@0").is_err());
        assert!(parse("decode=err@x").is_err());
        assert!(parse("decode=stall:soon").is_err());
        // torn outside snap-write is meaningless.
        assert!(parse("ack-write=torn").is_err());
    }

    #[test]
    fn faults_fire_at_the_scheduled_hit_and_only_once() {
        let _serial = SERIAL.lock().unwrap();
        install("decode=err@3").unwrap();
        let before = injected();
        assert_eq!(hit("decode"), None);
        assert_eq!(hit("decode"), None);
        assert_eq!(hit("decode"), Some(Injected::Err));
        assert_eq!(hit("decode"), None, "a fault fires exactly once");
        assert_eq!(hit("frame-read"), None, "other points stay clean");
        assert_eq!(injected() - before, 1);
        clear();
        assert_eq!(hit("decode"), None);
    }

    #[test]
    fn stall_sleeps_then_continues() {
        let _serial = SERIAL.lock().unwrap();
        install("frame-read=stall:50").unwrap();
        let started = std::time::Instant::now();
        assert_eq!(hit("frame-read"), None);
        assert!(started.elapsed() >= Duration::from_millis(45));
        clear();
    }

    #[test]
    fn disarmed_failpoints_do_nothing() {
        let _serial = SERIAL.lock().unwrap();
        clear();
        for point in FAULT_POINTS {
            assert_eq!(hit(point), None);
        }
    }
}
