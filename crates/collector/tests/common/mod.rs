//! Helpers shared by the collector's integration suites.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use ldp_collector::build_session;
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;

/// A fresh, empty per-process directory `ldp-<suite>-<tag>-<pid>` under
/// the system temp dir.
pub fn scratch(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serial reference: one session ingesting every generated frame in
/// order. Exact merges make any concurrent or faulted run comparable to
/// this bit for bit.
pub fn reference_finalize(spec: &str, frames: &[Vec<String>]) -> (String, u64) {
    let mut session = build_session(spec).unwrap();
    for conn in frames {
        for frame in conn {
            session.ingest_text(frame).unwrap();
        }
    }
    (session.finalize_text().unwrap(), session.count())
}

/// Reads one status byte.
pub fn read_ack(stream: &mut TcpStream) -> u8 {
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).unwrap();
    ack[0]
}
