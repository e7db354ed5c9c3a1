//! The `ldp-collector` binary: a collection window as a process.
//!
//! ```text
//! ldp-collector gen      --mechanism SPEC --n N [--seed S] [--out FILE]
//! ldp-collector ingest   --mechanism SPEC [--input FILE] [--snapshot FILE]
//!                        [--snapshot-every N] [--resume] [--max-reports K]
//!                        [--finalize]
//! ldp-collector merge    --mechanism SPEC --out FILE SNAP [SNAP…]
//! ldp-collector finalize --mechanism SPEC --snapshot FILE
//! ldp-collector inspect  SNAP [SNAP…]
//! ldp-collector specs
//! ldp-collector serve    --mechanism SPEC --listen ADDR [--snapshot FILE]
//!                        [--snapshot-every N] [--keep N] [--max-connections K]
//!                        [--connections N] [--idle-timeout MS]
//!                        [--max-frame-bytes B] [--max-rps-per-conn R]
//!                        [--memory-budget-bytes B] [--report-quota N]
//!                        [--busy-retry-ms MS] [--ack-deadline-ms MS]
//!                        [--shutdown-file PATH] [--reactor-threads N]
//!                        [--window NAME=SPEC]... [--summary-json PATH]
//!                        [--resume] [--finalize]
//! ```
//!
//! See `docs/OPERATIONS.md` for the operator's guide and worked examples
//! of every subcommand.

use ldp_collector::io::{read_to_string, write_snapshot_atomic};
use ldp_collector::registry::{build_session, MECHANISMS};
use ldp_collector::server::{
    serve_routed, summary_json, ServeOptions, SnapshotPolicy, WindowRoute, DEFAULT_MAX_FRAME_BYTES,
};
use ldp_collector::session::{ingest_lines, CollectorSession};
use ldp_collector::CollectorError;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ldp-collector: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), CollectorError> {
    // Deterministic fault injection for crash drills (no-op unless the
    // LDP_FAULTS environment variable is set; see docs/OPERATIONS.md §6).
    ldp_collector::faults::install_from_env()?;
    let Some((cmd, rest)) = args.split_first() else {
        print_help();
        return Ok(());
    };
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "ingest" => cmd_ingest(rest),
        "merge" => cmd_merge(rest),
        "finalize" => cmd_finalize(rest),
        "inspect" => cmd_inspect(rest),
        "specs" => cmd_specs(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(CollectorError::Spec(format!(
            "unknown subcommand {other:?} (run `ldp-collector help`)"
        ))),
    }
}

fn print_help() {
    println!("ldp-collector — crash-recoverable LDP collection over the wire format");
    println!();
    println!("subcommands:");
    println!("  gen      --mechanism SPEC --n N [--seed S] [--out FILE]");
    println!("           simulate N clients; write one wire-report line each");
    println!("  ingest   --mechanism SPEC [--input FILE] [--snapshot FILE]");
    println!("           [--snapshot-every N] [--resume] [--max-reports K] [--finalize]");
    println!("           absorb report lines (stdin when --input is absent)");
    println!("  merge    --mechanism SPEC --out FILE SNAP [SNAP...]");
    println!("           exact multi-shard merge of parallel collectors' snapshots");
    println!("  finalize --mechanism SPEC --snapshot FILE");
    println!("           print the estimate for a snapshotted window");
    println!("  inspect  SNAP [SNAP...]");
    println!("           print snapshot headers (no mechanism needed)");
    println!("  specs    list every mechanism spec name with its parameters");
    println!("  serve    --mechanism SPEC --listen ADDR [--snapshot FILE]");
    println!("           [--snapshot-every N] [--keep N] [--max-connections K]");
    println!("           [--connections N] [--idle-timeout MS]");
    println!("           [--max-frame-bytes B] [--max-rps-per-conn R]");
    println!("           [--memory-budget-bytes B] [--report-quota N]");
    println!("           [--busy-retry-ms MS] [--ack-deadline-ms MS]");
    println!("           [--shutdown-file PATH] [--reactor-threads N]");
    println!("           [--window NAME=SPEC]... [--summary-json PATH]");
    println!("           [--resume] [--finalize]");
    println!("           concurrent length-delimited TCP ingestion (Linux x86_64/aarch64)");
    println!();
    println!("mechanism specs (name:key=value,...):");
    for (name, params) in MECHANISMS {
        println!("  {name:<12} {params}");
    }
    println!();
    println!("Paper legends (SW-EMS, CFO-binning-16, ...) are accepted as names.");
    println!("Docs: docs/OPERATIONS.md, docs/WIRE_FORMAT.md, docs/ARCHITECTURE.md.");
}

/// Minimal flag parser: `--key value` pairs, boolean `--key` switches,
/// and positional arguments. Each subcommand declares the flags it
/// accepts; any other `--name` is an error, so a typo fails loudly
/// instead of silently running with a default.
struct Flags {
    pairs: Vec<(String, String)>,
    bools: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags, CollectorError> {
        let mut pairs = Vec::new();
        let mut bools = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    bools.push(name.to_string());
                } else if value_flags.contains(&name) {
                    let value = it.next().ok_or_else(|| {
                        CollectorError::Spec(format!("--{name} requires a value"))
                    })?;
                    pairs.push((name.to_string(), value.clone()));
                } else {
                    return Err(CollectorError::Spec(format!("unknown flag --{name}")));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags {
            pairs,
            bools,
            positional,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag (`--window a=.. --window b=..`),
    /// in the order given.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, name: &str) -> Result<&str, CollectorError> {
        self.get(name)
            .ok_or_else(|| CollectorError::Spec(format!("missing required flag --{name}")))
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, CollectorError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CollectorError::Spec(format!("cannot parse --{name} {raw:?} as an integer"))
            }),
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, CollectorError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CollectorError::Spec(format!("cannot parse --{name} {raw:?} as a number"))
            }),
        }
    }
}

fn session_for(flags: &Flags) -> Result<Box<dyn CollectorSession>, CollectorError> {
    build_session(flags.require("mechanism")?)
}

fn cmd_gen(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(args, &["mechanism", "n", "seed", "out"], &[])?;
    let session = session_for(&flags)?;
    let n = flags.u64_or("n", 0)?;
    if n == 0 {
        return Err(CollectorError::Spec("gen requires --n <reports>".into()));
    }
    let seed = flags.u64_or("seed", 1)?;
    let lines = session.gen_reports(n, seed)?;
    match flags.get("out") {
        Some(path) => write_snapshot_atomic(&PathBuf::from(path), &lines)?,
        None => print!("{lines}"),
    }
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(
        args,
        &[
            "mechanism",
            "input",
            "snapshot",
            "snapshot-every",
            "keep",
            "max-reports",
        ],
        &["resume", "finalize"],
    )?;
    let mut session = session_for(&flags)?;
    let snapshot_path = flags.get("snapshot").map(PathBuf::from);
    let every = flags.u64_or("snapshot-every", 0)?;
    let max_reports = flags.u64_or("max-reports", u64::MAX)?;

    // Recovery: load the snapshot if asked to resume and one exists.
    let resuming = flags.has("resume");
    if resuming {
        let path = snapshot_path
            .as_ref()
            .ok_or_else(|| CollectorError::Spec("--resume requires --snapshot <file>".into()))?;
        if path.exists() {
            session.restore(&read_to_string(path)?)?;
            eprintln!(
                "resumed from {} at {} reports",
                path.display(),
                session.count()
            );
        }
    }

    // Stream the replay log (never materialize it: a window can be far
    // larger than RAM) through the library's one resume implementation,
    // in blocks so the snapshot cadence and the --max-reports crash
    // point apply mid-stream, exactly as against a live feed.
    let reader: Box<dyn BufRead> = match flags.get("input") {
        Some(path) if path != "-" => {
            let file =
                File::open(path).map_err(|e| CollectorError::Io(format!("open {path}: {e}")))?;
            Box::new(BufReader::new(file))
        }
        _ => Box::new(BufReader::new(std::io::stdin())),
    };
    let skip = if resuming { session.count() } else { 0 };
    let block = if every > 0 { every } else { 8_192 };
    let policy = SnapshotPolicy {
        path: snapshot_path.clone(),
        every,
        keep: flags.u64_or("keep", 0)?,
    };
    ingest_lines(
        session.as_mut(),
        reader.lines(),
        skip,
        max_reports,
        block,
        |s, before| policy.apply(s, before, false),
    )?;
    if let Some(path) = &snapshot_path {
        write_snapshot_atomic(path, &session.snapshot_text())?;
    }
    eprintln!("ingested to {} reports total", session.count());
    if flags.has("finalize") {
        print!("{}", session.finalize_text()?);
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(args, &["mechanism", "out"], &["finalize"])?;
    let mut session = session_for(&flags)?;
    let out = PathBuf::from(flags.require("out")?);
    if flags.positional.is_empty() {
        return Err(CollectorError::Spec(
            "merge requires at least one snapshot file".into(),
        ));
    }
    for path in &flags.positional {
        session.merge_snapshot(&read_to_string(&PathBuf::from(path))?)?;
        eprintln!("merged {path} -> {} reports", session.count());
    }
    write_snapshot_atomic(&out, &session.snapshot_text())?;
    if flags.has("finalize") {
        print!("{}", session.finalize_text()?);
    }
    Ok(())
}

fn cmd_finalize(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(args, &["mechanism", "snapshot"], &[])?;
    let mut session = session_for(&flags)?;
    session.restore(&read_to_string(&PathBuf::from(flags.require("snapshot")?))?)?;
    print!("{}", session.finalize_text()?);
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(args, &[], &[])?;
    if flags.positional.is_empty() {
        return Err(CollectorError::Spec(
            "inspect requires at least one snapshot file".into(),
        ));
    }
    for path in &flags.positional {
        let text = read_to_string(&PathBuf::from(path))?;
        let (header, _body) = ldp_core::snapshot::parse_snapshot(&text)?;
        println!("{path}:");
        println!("  version     v{}", header.version);
        println!("  mechanism   {}", header.mechanism);
        println!("  fingerprint {:016x}", header.fingerprint);
        println!("  reports     {}", header.count);
        println!("  body lines  {}", header.body_lines);
        if !header.sessions.is_empty() {
            println!("  sessions    {}", header.sessions.len());
            for (id, cursor) in &header.sessions {
                println!("    {id} cursor {cursor}");
            }
        }
        println!("  checksum    ok");
    }
    Ok(())
}

fn cmd_specs(args: &[String]) -> Result<(), CollectorError> {
    let _ = Flags::parse(args, &[], &[])?;
    for (name, params) in MECHANISMS {
        println!("{name:<12} {params}");
    }
    Ok(())
}

/// Watches for `path` to appear and raises `shutdown` — the portable
/// SIGTERM-equivalent (`touch <path>` from a supervisor or an operator's
/// shell; std has no signal handling and the workspace vendors no libc).
fn spawn_shutdown_watcher(path: PathBuf, shutdown: Arc<AtomicBool>) {
    std::thread::Builder::new()
        .name("ldp-shutdown-watch".into())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                if path.exists() {
                    shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        })
        .expect("spawning the shutdown watcher");
}

/// The value flags `serve` accepts.
const SERVE_FLAGS: &[&str] = &[
    "mechanism",
    "listen",
    "snapshot",
    "snapshot-every",
    "keep",
    "max-connections",
    "connections",
    "idle-timeout",
    "max-frame-bytes",
    "max-rps-per-conn",
    "memory-budget-bytes",
    "report-quota",
    "busy-retry-ms",
    "ack-deadline-ms",
    "shutdown-file",
    "reactor-threads",
    "window",
    "summary-json",
];

fn cmd_serve(args: &[String]) -> Result<(), CollectorError> {
    let flags = Flags::parse(args, SERVE_FLAGS, &["finalize", "resume"])?;
    let mut session = session_for(&flags)?;
    let snapshot_path = flags.get("snapshot").map(PathBuf::from);
    if flags.has("resume") {
        let path = snapshot_path
            .as_ref()
            .ok_or_else(|| CollectorError::Spec("--resume requires --snapshot <file>".into()))?;
        if path.exists() {
            session.restore(&read_to_string(path)?)?;
            eprintln!(
                "resumed from {} at {} reports",
                path.display(),
                session.count()
            );
        }
    }
    let policy = SnapshotPolicy {
        path: snapshot_path,
        every: flags.u64_or("snapshot-every", 0)?,
        keep: flags.u64_or("keep", 0)?,
    };
    let max_frame_bytes =
        u32::try_from(flags.u64_or("max-frame-bytes", u64::from(DEFAULT_MAX_FRAME_BYTES))?)
            .ok()
            .filter(|&bytes| bytes > 0)
            .ok_or_else(|| {
                CollectorError::Spec(format!(
                    "--max-frame-bytes must be between 1 and {}",
                    u32::MAX
                ))
            })?;
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        max_connections: flags.u64_or("max-connections", defaults.max_connections as u64)? as usize,
        connections: flags.u64_or("connections", 0)?,
        shutdown: Arc::new(AtomicBool::new(false)),
        idle_timeout: match flags.u64_or("idle-timeout", 0)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        max_frame_bytes,
        max_rps_per_conn: flags.f64_or("max-rps-per-conn", 0.0)?,
        memory_budget_bytes: flags.u64_or("memory-budget-bytes", 0)? as usize,
        report_quota: flags.u64_or("report-quota", 0)?,
        busy_retry: std::time::Duration::from_millis(
            flags.u64_or("busy-retry-ms", defaults.busy_retry.as_millis() as u64)?,
        ),
        ack_deadline: match flags.u64_or("ack-deadline-ms", 0)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        reactor_threads: flags.u64_or("reactor-threads", 0)? as usize,
    };
    let addr = flags.require("listen")?;
    let listener =
        TcpListener::bind(addr).map_err(|e| CollectorError::Io(format!("bind {addr}: {e}")))?;
    eprintln!(
        "listening on {} for {}",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string()),
        session.mechanism_id()
    );
    // Routed windows: `--window name=spec` each gets its own
    // session, commit lock, and snapshot file `<snapshot>.<name>`.
    let mut windows = Vec::new();
    for decl in flags.get_all("window") {
        let (name, spec) = decl.split_once('=').ok_or_else(|| {
            CollectorError::Spec(format!("--window wants name=mechanism-spec, got {decl:?}"))
        })?;
        let window_path = policy.path.as_ref().map(|p| {
            let mut os = p.clone().into_os_string();
            os.push(format!(".{name}"));
            PathBuf::from(os)
        });
        windows.push(WindowRoute {
            name: name.to_string(),
            session: build_session(spec)?,
            policy: SnapshotPolicy {
                path: window_path,
                every: policy.every,
                keep: policy.keep,
            },
        });
    }
    if options.connections == 0 && flags.get("shutdown-file").is_none() {
        eprintln!("serving until killed (no --connections limit or --shutdown-file)");
    }
    if let Some(path) = flags.get("shutdown-file") {
        spawn_shutdown_watcher(PathBuf::from(path), Arc::clone(&options.shutdown));
    }
    let summary = serve_routed(&listener, session.as_mut(), &policy, &options, &mut windows)?;
    if let Some(path) = flags.get("summary-json") {
        std::fs::write(path, summary_json(&summary))
            .map_err(|e| CollectorError::Io(format!("writing {path}: {e}")))?;
    }
    // With routed windows, `session.count()` is only the default
    // window's state; calling it "total" next to the cross-window
    // report count would mislead.
    let scope = if summary.window_reports.is_empty() {
        "total"
    } else {
        "in the default window"
    };
    eprintln!(
        "served {} sessions ({} completed, {} failed): {} reports, {} {scope}",
        summary.accepted,
        summary.completed,
        summary.failed,
        summary.reports,
        session.count()
    );
    for (name, reports) in &summary.window_reports {
        eprintln!("window {name}: {reports} reports");
    }
    if summary.accept_errors > 0 {
        eprintln!(
            "accept: {} transient failures survived with backoff (check ulimit -n)",
            summary.accept_errors
        );
    }
    if summary.sessions_resumed > 0 || summary.duplicates_suppressed > 0 {
        eprintln!(
            "sequenced: {} sessions resumed, {} duplicate frames suppressed",
            summary.sessions_resumed, summary.duplicates_suppressed
        );
    }
    if summary.idle_disconnects > 0 {
        eprintln!(
            "idle: {} peers disconnected past --idle-timeout",
            summary.idle_disconnects
        );
    }
    let sheds = summary.admission_sheds + summary.quota_sheds + summary.rate_sheds;
    if sheds > 0 {
        eprintln!(
            "overload: {} busy sheds ({} admission, {} quota, {} rate)",
            sheds, summary.admission_sheds, summary.quota_sheds, summary.rate_sheds
        );
    }
    if summary.oversized_frames > 0 {
        eprintln!(
            "overload: {} frames rejected over --max-frame-bytes",
            summary.oversized_frames
        );
    }
    if summary.evictions > 0 {
        eprintln!(
            "overload: {} slow consumers evicted past --ack-deadline-ms",
            summary.evictions
        );
    }
    if summary.supervisor_restarts > 0 {
        eprintln!(
            "supervisor: {} snapshot-writer restarts after panics",
            summary.supervisor_restarts
        );
    }
    if summary.peak_queue_bytes > 0 {
        eprintln!(
            "memory: peak pipeline charge {} bytes{}",
            summary.peak_queue_bytes,
            match options.memory_budget_bytes {
                0 => String::new(),
                budget => format!(" of --memory-budget-bytes {budget}"),
            }
        );
    }
    if summary.faults_injected > 0 {
        eprintln!("faults: {} injected (LDP_FAULTS)", summary.faults_injected);
    }
    if summary.snapshots_superseded > 0 {
        eprintln!(
            "note: {} cadence snapshots were superseded before hitting disk \
             (writer lagging; consider a larger --snapshot-every)",
            summary.snapshots_superseded
        );
    }
    if let Some(err) = &summary.last_session_error {
        eprintln!("last session error: {err}");
    }
    if flags.has("finalize") {
        print!("{}", session.finalize_text()?);
    }
    Ok(())
}
