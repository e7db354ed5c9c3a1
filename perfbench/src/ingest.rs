//! The ingest workloads: a real `ldp-collector serve` process fed by a
//! closed-loop load generator over loopback TCP, then checked against an
//! in-process serial ingest of exactly the frames it acknowledged.

use crate::sys;
use ldp_collector::{build_session, protocol, CollectorSession};
use ldp_numeric::rng::mix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (and load-generator threads) per ingest run.
pub const CONNECTIONS: usize = 2;

/// Spacing of the collector start-ups timed for `setup_s`.
const SETUP_GAP: Duration = Duration::from_millis(100);

/// Spacing of the timed finalize runs.
const FINALIZE_GAP: Duration = Duration::from_millis(400);

/// Frames per connection in each extra finalize window: a fixed shape near
/// a served window's, so the extra windows do not grow and shrink with the
/// throughput of the run (EM's iteration count grows with the report
/// count).
const FINALIZE_WINDOW_FRAMES: u64 = 1 << 18;

/// One served workload: what the collector hosts and how the load
/// generator frames its reports.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    pub spec: &'static str,
    pub reports_per_frame: usize,
    /// Distinct pre-generated frames per connection, sent in a cycle.
    pub pool_frames: usize,
    /// Sequenced sessions (hello + `seq` dedup) instead of bare framing.
    pub sequenced: bool,
    /// `--snapshot-every` (0 = only at end-of-stream).
    pub snapshot_every: u64,
    /// `--keep` rotated snapshot generations.
    pub keep: u64,
    /// Windows whose finalize time is measured: the served one plus
    /// windows of [`FINALIZE_WINDOW_FRAMES`] frames per connection drawn
    /// from further seeds. SW's EM runs a sample-dependent number of
    /// iterations, so one window is a noisy draw; OUE's debiasing is not.
    pub finalize_windows: u64,
    /// Timed `restore` + `finalize_text` runs per window.
    pub finalize_reps: usize,
}

/// The paper's mechanism served as in production.
pub const INGEST_SW: IngestConfig = IngestConfig {
    spec: "sw-ems:eps=1,d=1024",
    reports_per_frame: 128,
    pool_frames: 256,
    sequenced: true,
    snapshot_every: 1 << 18,
    keep: 2,
    finalize_windows: 9,
    finalize_reps: 2,
};

/// The same serve path with large, decode-heavy OUE frames.
pub const INGEST_OUE: IngestConfig = IngestConfig {
    spec: "oue:eps=1,d=1024",
    reports_per_frame: 1024,
    pool_frames: 24,
    sequenced: false,
    snapshot_every: 0,
    keep: 0,
    finalize_windows: 1,
    finalize_reps: 21,
};

impl IngestConfig {
    /// The same workload with a smaller frame pool (self-check runs and
    /// off-path probes).
    pub fn tiny(self) -> Self {
        IngestConfig {
            pool_frames: (self.pool_frames / 8).max(3),
            ..self
        }
    }
}

/// Per-connection frame payloads generated from `seed` by the mechanism's
/// own client-side generator; the collector only ever sees these.
pub fn generate_frames(cfg: &IngestConfig, seed: u64) -> Result<Vec<Vec<String>>, String> {
    (0..CONNECTIONS)
        .map(|c| {
            let session = build_session(cfg.spec).map_err(|e| e.to_string())?;
            let n = (cfg.pool_frames * cfg.reports_per_frame) as u64;
            let text = session
                .gen_reports(n, mix64(seed ^ (c as u64 + 1)))
                .map_err(|e| e.to_string())?;
            let lines: Vec<&str> = text.lines().collect();
            Ok(lines
                .chunks(cfg.reports_per_frame)
                .map(|chunk| chunk.join("\n"))
                .collect())
        })
        .collect()
}

/// A spawned `ldp-collector serve` process; killed on drop if still
/// running.
pub struct Collector {
    child: Child,
    pub addr: String,
    log: Option<JoinHandle<String>>,
}

impl Collector {
    /// Spawns the collector and waits for its `listening on` line.
    /// Returns it with the spawn → listener-ready time.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<(Collector, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let _ = child.wait();
                return Err(format!("collector exited before listening: {log}"));
            }
            log.push_str(&line);
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let ready = started.elapsed();
        let drain = std::thread::spawn(move || {
            let mut rest = log;
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok((
            Collector {
                child,
                addr,
                log: Some(drain),
            },
            ready,
        ))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits up to `timeout` for the process to exit on its own; returns
    /// its status and everything it wrote to stderr.
    pub fn wait(mut self, timeout: Duration) -> Result<(ExitStatus, String), String> {
        let deadline = Instant::now() + timeout;
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(format!("collector still running after {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let log = self.log.take().map(|h| h.join().unwrap_or_default());
        Ok((status, log.unwrap_or_default()))
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

/// The collector's `--reactor-threads`: the pool size, which is what the
/// collector picks by default.
pub fn reactor_threads() -> usize {
    ldp_pool::configured_threads()
}

/// `serve` arguments for `cfg`, persisting under `work`.
pub fn serve_args(cfg: &IngestConfig, work: &Path) -> Vec<String> {
    let path = |name: &str| work.join(name).display().to_string();
    let mut args: Vec<String> = [
        "serve",
        "--mechanism",
        cfg.spec,
        "--listen",
        "127.0.0.1:0",
        "--connections",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(CONNECTIONS.to_string());
    args.extend([
        "--reactor-threads".to_string(),
        reactor_threads().to_string(),
        "--snapshot".to_string(),
        path("window.snap"),
        "--summary-json".to_string(),
        path("summary.json"),
    ]);
    if cfg.snapshot_every > 0 {
        args.extend([
            "--snapshot-every".to_string(),
            cfg.snapshot_every.to_string(),
            "--keep".to_string(),
            cfg.keep.to_string(),
        ]);
    }
    args
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Frames each connection got acked, warm-up included (what the
    /// collector absorbed).
    pub acked_frames: Vec<u64>,
    /// Frames acked inside the measured window.
    pub window_frames: u64,
    /// Send → ack latency of every frame in the window, in ns.
    pub latencies_ns: Vec<f64>,
    pub window: Duration,
    /// The load generator's (this process's) CPU over the whole window.
    pub client_cpu_ns: u64,
    pub server_peak_rss: u64,
    /// Frames acked `-`, `!busy` sheds and connection errors.
    pub failures: u64,
    pub errors: Vec<String>,
    /// The measured window in consecutive slices.
    pub slices: Vec<Slice>,
}

/// One slice of the measured window: the frames acked in it, its length,
/// the CPU each process spent, and its ack-latency percentiles.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub frames: u64,
    pub seconds: f64,
    pub server_cpu_ns: u64,
    pub client_cpu_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// One load-generator connection.
struct Conn<'a> {
    stream: TcpStream,
    frames: &'a [String],
    sequenced: bool,
    sent: u64,
    buf: Vec<u8>,
}

impl<'a> Conn<'a> {
    fn open(addr: &str, id: usize, frames: &'a [String], sequenced: bool) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            frames,
            sequenced,
            sent: 0,
            buf: Vec::new(),
        };
        if sequenced {
            let hello = protocol::encode_hello(&format!("bench-{id}"), 0);
            conn.write_payload(&[hello.as_bytes()])?;
            let mut ack = [0u8; 9];
            conn.stream
                .read_exact(&mut ack)
                .map_err(|e| format!("hello ack: {e}"))?;
            if ack != protocol::encode_hello_ack(0) {
                return Err(format!("unexpected hello ack {ack:?}"));
            }
        }
        Ok(conn)
    }

    fn write_payload(&mut self, parts: &[&[u8]]) -> Result<(), String> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.buf.clear();
        self.buf
            .extend_from_slice(&u32::try_from(len).map_err(|e| e.to_string())?.to_be_bytes());
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("write frame: {e}"))
    }

    /// Sends the next frame of the cycle and waits for its ack. Returns the
    /// send → ack latency, or `None` for a `!busy` shed (nothing absorbed;
    /// the same frame goes again).
    fn send_next(&mut self) -> Result<Option<u64>, String> {
        let frame = self.frames[(self.sent % self.frames.len() as u64) as usize].as_bytes();
        let seq_line = if self.sequenced {
            format!("seq {}\n", self.sent)
        } else {
            String::new()
        };
        let started = Instant::now();
        self.write_payload(&[seq_line.as_bytes(), frame])?;
        let mut ack = [0u8; 1];
        self.stream
            .read_exact(&mut ack)
            .map_err(|e| format!("read ack: {e}"))?;
        match ack[0] {
            b'+' => {
                self.sent += 1;
                Ok(Some(started.elapsed().as_nanos() as u64))
            }
            protocol::BUSY_BYTE => {
                let mut hint = [0u8; 4];
                self.stream
                    .read_exact(&mut hint)
                    .map_err(|e| format!("read busy hint: {e}"))?;
                let ms = u64::from(protocol::decode_busy_ms(hint)).min(1_000);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(None)
            }
            other => Err(format!("frame {} acked {:?}", self.sent, other as char)),
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.stream
            .write_all(&0u32.to_be_bytes())
            .map_err(|e| format!("write end-of-stream: {e}"))?;
        let mut ack = [0u8; 1];
        self.stream
            .read_exact(&mut ack)
            .map_err(|e| format!("read final ack: {e}"))?;
        if ack[0] == b'+' {
            Ok(())
        } else {
            Err("end-of-stream not acked".into())
        }
    }
}

#[derive(Default)]
struct ConnOut {
    acked: u64,
    /// `(ack time since the window opened, send → ack latency)` in ns.
    acks: Vec<(u64, u64)>,
    failures: u64,
    error: Option<String>,
}

/// Builds the window's slices from the acks and the CPU samples taken at
/// the slice edges (`(ns since the window opened, server cpu, client
/// cpu)`).
fn slices(acks: &[(u64, u64)], samples: &[(u64, u64, u64)]) -> Vec<Slice> {
    samples
        .windows(2)
        .map(|edge| {
            let (t0, s0, c0) = edge[0];
            let (t1, s1, c1) = edge[1];
            let lat: Vec<f64> = acks
                .iter()
                .filter(|(t, _)| (t0..t1).contains(t))
                .map(|&(_, l)| l as f64)
                .collect();
            Slice {
                frames: lat.len() as u64,
                seconds: (t1 - t0) as f64 / 1e9,
                server_cpu_ns: s1.saturating_sub(s0),
                client_cpu_ns: c1.saturating_sub(c0),
                p50_ns: sys::quantile(&lat, 0.50),
                p99_ns: sys::quantile(&lat, 0.99),
            }
        })
        .collect()
}

/// Runs the closed loop: every connection sends its next frame as soon as
/// the previous one is acked, first for `warmup`, then for the measured
/// `seconds`, then closes its session. The measured window is cut into
/// slices of about half a second; collector and load-generator CPU are read at
/// every slice edge, and the collector's peak RSS at the end.
pub fn drive(
    addr: &str,
    server_pid: &str,
    frames: &[Vec<String>],
    sequenced: bool,
    warmup: Duration,
    seconds: Duration,
) -> Result<Drive, String> {
    let barrier = Barrier::new(frames.len() + 1);
    let opened: OnceLock<Instant> = OnceLock::new();
    let run_conn = |id: usize, conn_frames: &[String]| -> ConnOut {
        let mut out = ConnOut::default();
        let mut conn = match Conn::open(addr, id, conn_frames, sequenced) {
            Ok(c) => Some(c),
            Err(e) => {
                out.error = Some(e);
                None
            }
        };
        // Every phase ends at a barrier that every thread reaches, even
        // one whose connection failed, so the others never wedge.
        let phase = |conn: &mut Option<Conn>, out: &mut ConnOut, opened: Option<Instant>| {
            let Some(c) = conn.as_mut() else { return };
            let deadline = opened.unwrap_or_else(Instant::now)
                + if opened.is_some() { seconds } else { warmup };
            while Instant::now() < deadline {
                match c.send_next() {
                    Ok(Some(ns)) => {
                        out.acked += 1;
                        if let Some(t0) = opened {
                            out.acks.push((t0.elapsed().as_nanos() as u64, ns));
                        }
                    }
                    Ok(None) => out.failures += 1,
                    Err(e) => {
                        out.failures += 1;
                        out.error = Some(e);
                        *conn = None;
                        return;
                    }
                }
            }
        };
        barrier.wait();
        phase(&mut conn, &mut out, None);
        barrier.wait();
        barrier.wait();
        phase(&mut conn, &mut out, opened.get().copied());
        barrier.wait();
        barrier.wait();
        if let Some(c) = conn.as_mut() {
            if let Err(e) = c.finish() {
                out.failures += 1;
                out.error = Some(e);
            }
        }
        out
    };
    let slice_count = ((seconds.as_secs_f64() / 0.5).round() as u32).clamp(2, 60);
    let slice_len = seconds / slice_count;
    let mut drive = Drive::default();
    let mut samples = Vec::new();
    let outs: Vec<ConnOut> = std::thread::scope(|scope| -> Result<Vec<ConnOut>, String> {
        let handles: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(id, f)| {
                let run_conn = &run_conn;
                scope.spawn(move || run_conn(id, f))
            })
            .collect();
        barrier.wait(); // connected
        barrier.wait(); // warm-up done
        let sample = |t: u64| -> Result<(u64, u64, u64), String> {
            Ok((t, sys::cpu_ns(server_pid)?, sys::cpu_ns("self")?))
        };
        let first = sample(0);
        let started = *opened.get_or_init(Instant::now);
        barrier.wait(); // window opens
        let mut sampled = vec![first];
        for k in 1..=slice_count {
            let due = started + slice_len * k;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            sampled.push(sample(started.elapsed().as_nanos() as u64));
        }
        barrier.wait(); // window closed
        drive.window = started.elapsed();
        let rss = sys::peak_rss_bytes(server_pid);
        barrier.wait(); // sessions may close
        let outs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load-generator thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        samples = sampled.into_iter().collect::<Result<Vec<_>, _>>()?;
        drive.server_peak_rss = rss?;
        Ok(outs)
    })?;
    let mut acks = Vec::new();
    for mut out in outs {
        drive.acked_frames.push(out.acked);
        acks.append(&mut out.acks);
        drive.failures += out.failures;
        drive.errors.extend(out.error);
    }
    drive.window_frames = acks.len() as u64;
    drive.latencies_ns = acks.iter().map(|&(_, l)| l as f64).collect();
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    drive.client_cpu_ns = last.2.saturating_sub(first.2);
    drive.slices = slices(&acks, &samples);
    Ok(drive)
}

/// The window an in-process serial ingest of exactly the acked frames
/// produces: per connection, `ingest_text` of its whole frame pool
/// multiplied by the completed cycles through the exact snapshot merge,
/// then `ingest_text` of the partial cycle.
pub fn reference_window(
    cfg: &IngestConfig,
    frames: &[Vec<String>],
    acked: &[u64],
) -> Result<Box<dyn CollectorSession>, String> {
    let err = |e: ldp_collector::CollectorError| e.to_string();
    let mut window = build_session(cfg.spec).map_err(err)?;
    for (pool, &n) in frames.iter().zip(acked) {
        let cycles = n / pool.len() as u64;
        let rest = (n % pool.len() as u64) as usize;
        if cycles > 0 {
            let mut power = build_session(cfg.spec).map_err(err)?;
            power.ingest_text(&pool.join("\n")).map_err(err)?;
            let mut k = cycles;
            loop {
                if k & 1 == 1 {
                    window.merge_snapshot(&power.snapshot_text()).map_err(err)?;
                }
                k >>= 1;
                if k == 0 {
                    break;
                }
                let doubled = power.snapshot_text();
                power.merge_snapshot(&doubled).map_err(err)?;
            }
        }
        if rest > 0 {
            window.ingest_text(&pool[..rest].join("\n")).map_err(err)?;
        }
    }
    Ok(window)
}

/// One timed `restore` + `finalize_text` of `snapshot` on `session`, in
/// milliseconds, with the rendered estimate.
fn time_finalize(
    session: &mut dyn CollectorSession,
    snapshot: &str,
) -> Result<(f64, String), String> {
    let started = Instant::now();
    session.restore(snapshot).map_err(|e| e.to_string())?;
    let text = session.finalize_text().map_err(|e| e.to_string())?;
    Ok((
        started.elapsed().as_secs_f64() * 1e3,
        std::hint::black_box(text),
    ))
}

/// Everything one ingest run produced.
pub struct IngestRun {
    pub setup_s: Vec<f64>,
    pub drive: Drive,
    pub finalize_ms: f64,
    /// The collector's final snapshot.
    pub snapshot: String,
    /// `(check, passed)` in the order they ran.
    pub checks: Vec<(String, bool)>,
}

impl IngestRun {
    pub fn window_reports(&self, cfg: &IngestConfig) -> u64 {
        self.drive.window_frames * cfg.reports_per_frame as u64
    }

    /// Frames sent: acked ones plus failed attempts.
    pub fn frames_attempted(&self) -> u64 {
        self.drive.acked_frames.iter().sum::<u64>() + self.drive.failures
    }
}

/// Options of one ingest run.
pub struct IngestOptions<'a> {
    pub collector: &'a Path,
    pub seed: u64,
    pub work: PathBuf,
    pub setup_reps: usize,
    pub warmup: Duration,
    pub seconds: Duration,
    /// Perturb the reference window on purpose (the self-check's proof
    /// that a wrong estimate is caught).
    pub corrupt_reference: bool,
}

fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs one ingest workload end to end: repeated collector start-ups
/// (set-up time), the closed loop, the collector's own exit, and the
/// correctness checks.
pub fn run(
    cfg: &IngestConfig,
    frames: &[Vec<String>],
    opts: &IngestOptions,
) -> Result<IngestRun, String> {
    let _ = std::fs::remove_dir_all(&opts.work);
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let args = serve_args(cfg, &opts.work);
    // Start-ups spread out in time; the last one stays up and serves.
    let mut collector = None;
    let reps = opts.setup_reps.max(1);
    let setup_s = sys::spaced(reps, SETUP_GAP, |rep| {
        let (c, ready) = Collector::spawn(opts.collector, &args)?;
        if rep + 1 == reps {
            collector = Some(c);
        }
        Ok::<f64, String>(ready.as_secs_f64())
    })?;
    let collector = collector.expect("at least one start-up");
    let drive = drive(
        &collector.addr,
        &collector.pid(),
        frames,
        cfg.sequenced,
        opts.warmup,
        opts.seconds,
    )?;
    let (status, log) = collector.wait(Duration::from_secs(60))?;
    let mut checks = Vec::new();
    let mut check = |name: String, ok: bool| checks.push((name, ok));
    check(
        format!("collector exited cleanly ({status})"),
        status.success(),
    );
    for e in &drive.errors {
        check(format!("load-generator connection: {e}"), false);
    }
    let acked_reports: u64 = drive.acked_frames.iter().sum::<u64>() * cfg.reports_per_frame as u64;
    let summary = std::fs::read_to_string(opts.work.join("summary.json")).unwrap_or_default();
    let field = |k: &str| json_u64(&summary, k);
    check(
        format!("summary: {CONNECTIONS} sessions completed, none failed"),
        field("completed") == Some(CONNECTIONS as u64) && field("failed") == Some(0),
    );
    check(
        "summary: no busy sheds or evictions".into(),
        ["admission_sheds", "quota_sheds", "rate_sheds", "evictions"]
            .iter()
            .all(|k| field(k) == Some(0)),
    );
    check(
        format!("summary reports == acked reports ({acked_reports})"),
        field("reports") == Some(acked_reports),
    );
    let snapshot = std::fs::read_to_string(opts.work.join("window.snap")).unwrap_or_default();
    let header = ldp_core::snapshot::parse_snapshot(&snapshot).map(|(h, _)| h);
    check(
        "final snapshot count == acked reports".into(),
        header.as_ref().map(|h| h.count).ok() == Some(acked_reports),
    );
    if cfg.sequenced {
        let cursors_ok = header.as_ref().is_ok_and(|h| {
            drive
                .acked_frames
                .iter()
                .enumerate()
                .all(|(c, &n)| h.sessions.get(&format!("bench-{c}")).copied() == Some(n))
        });
        check("session cursors == acked frames".into(), cursors_ok);
    }
    // Every window's snapshot, the served one first; then
    // `finalize_reps` timings of each, spread out in time.
    let mut windows = vec![snapshot.clone()];
    for k in 1..cfg.finalize_windows {
        let more = generate_frames(cfg, mix64(opts.seed ^ (0xF1A1 + k)))?;
        let shape = [FINALIZE_WINDOW_FRAMES; CONNECTIONS];
        windows.push(reference_window(cfg, &more, &shape)?.snapshot_text());
    }
    let mut session = build_session(cfg.spec).map_err(|e| e.to_string())?;
    let mut served = String::new();
    let timed = sys::spaced(windows.len() * cfg.finalize_reps, FINALIZE_GAP, |i| {
        let (ms, text) = time_finalize(session.as_mut(), &windows[i % windows.len()])?;
        if i == 0 {
            served = text;
        }
        Ok::<f64, String>(ms)
    });
    let finalize_ms = match timed {
        Ok(samples) => sys::mean_of_medians(&samples, windows.len()),
        Err(e) => {
            check(
                format!("restore + finalize of the final snapshot: {e}"),
                false,
            );
            f64::NAN
        }
    };
    let mut reference = reference_window(cfg, frames, &drive.acked_frames)?;
    if opts.corrupt_reference {
        reference
            .ingest_text(&frames[0][0])
            .map_err(|e| e.to_string())?;
    }
    let expected = reference.finalize_text().map_err(|e| e.to_string())?;
    check(
        "finalized estimate bit-identical to serial ingest of the acked frames".into(),
        !served.is_empty() && served == expected,
    );
    if checks.iter().any(|(_, ok)| !ok) {
        eprintln!("collector log:\n{log}");
    }
    Ok(IngestRun {
        setup_s,
        drive,
        finalize_ms,
        snapshot,
        checks,
    })
}
