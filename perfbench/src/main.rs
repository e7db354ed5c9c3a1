//! The sw-ldp repository benchmark.
//!
//! ```text
//! perfbench --collector BIN --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! perfbench --collector BIN --self-check
//! ```
//!
//! Workloads: `ingest-sw` and `ingest-oue` serve generated frames to a
//! separate `ldp-collector serve` process from a two-connection closed
//! loop; `repro-grid` runs the paper's ε sweep in a child process. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
//! replays the workload's inputs through each layer's public API inside
//! spans and reports per-layer self times, their sum, and the remainder
//! the layers leave unexplained. Every run checks its outputs; the last
//! line of stdout is one JSON object. See `perfbench/README.md`.

mod grid;
mod ingest;
mod layers;
mod sys;
mod trace;

use ingest::{IngestConfig, IngestOptions, INGEST_OUE, INGEST_SW};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed with `--trace 0`, on every workload. An "item" is a report on
/// the ingest workloads and a trial on `repro-grid`. Throughput and the
/// ack p99 are printed beside them but not gated: on the shared 2-vCPU
/// host this was tuned on, stalls from other tenants moved them by more
/// than the widest bound a gate may have, while the median latency and
/// the CPU per item held.
const END_TO_END: &[Metric] = &[
    m("latency_p50_us", "us", "lower"),
    m("server_cpu_ns_per_item", "ns", "lower"),
    m("server_peak_rss_mb", "MB", "lower"),
    m("finalize_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
];

/// Printed with `--trace 1`, on every workload.
const PER_LAYER: &[Metric] = &[
    m("client.cpu_ns_per_report", "ns", "lower"),
    m("net.echo_us_per_frame", "us", "lower"),
    m("machine.ns_per_frame", "ns", "lower"),
    m("machine.frames", "count", "higher"),
    m("decode.ns_per_report", "ns", "lower"),
    m("decode.bytes_per_report", "bytes", "lower"),
    m("preabsorb.ns_per_report", "ns", "lower"),
    m("empty_state.ns_per_frame", "ns", "lower"),
    m("commit.ns_per_frame", "ns", "lower"),
    m("commit.busy_frac", "frac", "lower"),
    m("snapshot.encode_us", "us", "lower"),
    m("snapshot.write_us", "us", "lower"),
    m("snapshot.bytes", "bytes", "lower"),
    m("em.iterations", "count", "lower"),
    m("em.us_per_iteration", "us", "lower"),
    m("finalize.oue_ms", "ms", "lower"),
    m("trial_ms.sw_ems", "ms", "lower"),
    m("trial_ms.sw_em", "ms", "lower"),
    m("trial_ms.hh_admm", "ms", "lower"),
    m("trial_ms.cfo_binning_16", "ms", "lower"),
    m("trial_ms.cfo_binning_32", "ms", "lower"),
    m("trial_ms.cfo_binning_64", "ms", "lower"),
    m("sw_ems.randomize_ns_per_report", "ns", "lower"),
    m("sw_ems.absorb_ns_per_report", "ns", "lower"),
    m("sw_ems.finalize_us_per_trial", "us", "lower"),
    m("sw_ems.metrics_us_per_trial", "us", "lower"),
    m("hh.randomize_ns_per_report", "ns", "lower"),
    m("hh.absorb_ns_per_report", "ns", "lower"),
    m("hh.finalize_us_per_trial", "us", "lower"),
    m("hh.admm_ms", "ms", "lower"),
    m("hh.metrics_us_per_trial", "us", "lower"),
    m("pool.threads", "count", "higher"),
    m("pool.busy_frac", "frac", "higher"),
    m("e2e.ns_per_item", "ns", "lower"),
    m("layers.sum_ns_per_item", "ns", "lower"),
    m("unattributed.ns_per_item", "ns", "lower"),
];

/// SW-EMS on the grid's dataset must stay at least this accurate (mean
/// Wasserstein-1 over its trials); a faster build that loses accuracy
/// fails the run.
const SW_EMS_W1_CEILING: f64 = 0.05;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    IngestSw,
    IngestOue,
    Grid,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::IngestSw, Workload::IngestOue, Workload::Grid];

    /// The workloads `BENCHMARK.json` gates on. `ingest-oue` runs by hand:
    /// it saturates both cores with decode, and on the shared 2-vCPU host
    /// it was tuned on its run-to-run spread sat at 0.2–0.4 of the median,
    /// at or past the widest bound a gate may have.
    const GATED: [Workload; 2] = [Workload::IngestSw, Workload::Grid];

    fn name(self) -> &'static str {
        match self {
            Workload::IngestSw => "ingest-sw",
            Workload::IngestOue => "ingest-oue",
            Workload::Grid => "repro-grid",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (ingest-sw, ingest-oue, repro-grid)"))
    }
}

struct Args {
    collector: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt_reference: bool,
}

impl Args {
    fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Scratch space inside the checkout, one directory per run.
    fn work(&self, part: &str) -> PathBuf {
        PathBuf::from(".perfbench_work").join(format!(
            "{}-{}-{part}",
            self.workload.name(),
            std::process::id()
        ))
    }

    fn grid_n(&self) -> usize {
        if self.tiny {
            10_000
        } else {
            grid::KIND.paper_n()
        }
    }

    fn warmup(&self) -> f64 {
        if self.tiny {
            0.2
        } else {
            1.0
        }
    }

    fn ingest_options(&self, part: &str, seconds: f64, setup_reps: usize) -> IngestOptions<'_> {
        IngestOptions {
            collector: &self.collector,
            seed: self.seed,
            work: self.work(part),
            setup_reps,
            warmup: sys::secs(self.warmup()),
            seconds: sys::secs(seconds),
            corrupt_reference: self.corrupt_reference,
        }
    }
}

/// A run's result: the checks' verdict and the metrics by name.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one check; a failed one is printed.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}

fn host_facts(args: &Args) {
    let pool_env = std::env::var("LDP_POOL_THREADS").unwrap_or_else(|_| "unset".into());
    let no_simd = std::env::var("LDP_NO_SIMD").unwrap_or_default();
    let simd = if ldp_numeric::kernels::simd_enabled() {
        "avx2".to_string()
    } else if !no_simd.is_empty() && no_simd != "0" {
        format!("scalar (LDP_NO_SIMD={no_simd})")
    } else {
        "scalar (no AVX2)".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=thin, codegen-units=1)"
    };
    println!(
        "host: nproc={} LDP_POOL_THREADS={pool_env} pool_threads={} reactor_threads={} simd={simd} build={profile}",
        args.nproc(),
        ldp_pool::configured_threads(),
        ingest::reactor_threads(),
    );
}

fn frac(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

fn ingest_config(workload: Workload, tiny: bool) -> IngestConfig {
    let cfg = if workload == Workload::IngestOue {
        INGEST_OUE
    } else {
        INGEST_SW
    };
    if tiny {
        cfg.tiny()
    } else {
        cfg
    }
}

/// `--trace 0` on an ingest workload.
fn ingest_untraced(args: &Args) -> Result<Outcome, String> {
    let cfg = ingest_config(args.workload, args.tiny);
    let frames = ingest::generate_frames(&cfg, args.seed)?;
    let setup_reps = if args.tiny { 3 } else { 21 };
    let run = ingest::run(
        &cfg,
        &frames,
        &args.ingest_options("e2e", args.seconds, setup_reps),
    )?;
    let _ = std::fs::remove_dir_all(args.work("e2e"));
    let mut out = Outcome::new();
    for (what, ok) in &run.checks {
        out.check(what, *ok);
    }
    out.attempted += run.frames_attempted();
    out.failed += run.drive.failures;
    let reports = run.window_reports(&cfg) as f64;
    let wall = run.drive.window.as_secs_f64();
    let rpf = cfg.reports_per_frame as f64;
    // Each figure is the median over the window's half-second slices.
    let slices = &run.drive.slices;
    let over =
        |f: &dyn Fn(&ingest::Slice) -> f64| sys::median(&slices.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.frames as f64 * rpf / s.seconds)
        .collect();
    let throughput = sys::median(&rates);
    let p50 = over(&|s| s.p50_ns / 1e3);
    let p99 = over(&|s| s.p99_ns / 1e3);
    let server_cpu = over(&|s| s.server_cpu_ns as f64 / (s.frames as f64 * rpf));
    let client_cpu = over(&|s| s.client_cpu_ns as f64 / (s.frames as f64 * rpf));
    let rss_mb = run.drive.server_peak_rss as f64 / 1e6;
    let setup = sys::median(&run.setup_s);
    let lat = &run.drive.latencies_ns;
    println!(
        "{}: {} {} sessions, closed loop, {} reports/frame, {:.2} s window after {:.2} s warm-up, \
         medians over {} slices",
        args.workload.name(),
        ingest::CONNECTIONS,
        if cfg.sequenced { "sequenced" } else { "bare" },
        cfg.reports_per_frame,
        wall,
        args.warmup(),
        slices.len(),
    );
    println!(
        "  ingest_reports_per_s     {throughput:>14.1} reports/s   (whole window: {:.1})",
        reports / wall
    );
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| format!("{:.0}", sys::quantile(&rates, q)))
        .collect();
    println!(
        "    per-slice reports/s p10 p25 p50 p75 p90: {}",
        deciles.join(" ")
    );
    println!(
        "  ack_p50_us               {p50:>14.3} us   (whole window: {:.3} over {} acked frames)",
        sys::quantile(lat, 0.50) / 1e3,
        lat.len()
    );
    println!(
        "  ack_p99_us               {p99:>14.3} us   (whole window: {:.3})",
        sys::quantile(lat, 0.99) / 1e3
    );
    println!("  server_cpu_ns_per_report {server_cpu:>14.1} ns");
    println!("  client_cpu_ns_per_report {client_cpu:>14.1} ns   (load generator, for context)");
    println!("  server_peak_rss_mb       {rss_mb:>14.3} MB");
    println!(
        "  finalize_ms              {:>14.3} ms   ({} windows x {} runs: mean of per-window medians)",
        run.finalize_ms, cfg.finalize_windows, cfg.finalize_reps
    );
    println!(
        "  setup_s                  {setup:>14.6} s    (median of {} start-ups)",
        run.setup_s.len()
    );
    println!(
        "  failed_frac              {:>14.6}",
        frac(out.failed, out.attempted)
    );
    out.set("latency_p50_us", p50);
    out.set("server_cpu_ns_per_item", server_cpu);
    out.set("server_peak_rss_mb", rss_mb);
    out.set("finalize_ms", run.finalize_ms);
    out.set("setup_s", setup);
    Ok(out)
}

/// `--trace 0` on `repro-grid`.
fn grid_untraced(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let n = args.grid_n();
    let run = grid::run_child(&exe, args.seed, args.seconds, n)?;
    let mut out = Outcome::new();
    out.attempted += run.trials;
    out.failed += run.failed;
    let serial = grid::serial_digest(args.seed, n)?;
    out.check(
        &format!(
            "grid digest {} equals the one-thread recomputation {serial}",
            run.digest
        ),
        serial == run.digest,
    );
    out.check(
        &format!("sw_ems_w1 {} below {SW_EMS_W1_CEILING}", run.sw_ems_w1),
        run.sw_ems_w1.is_finite() && run.sw_ems_w1 < SW_EMS_W1_CEILING,
    );
    let data = grid::inputs(args.seed, n)?;
    let finalize = sys::mean_of_medians(&run.finalize_ms, grid::FINALIZE_DATASETS);
    // Throughput and CPU are medians over passes; latencies are
    // percentiles over all passes.
    let per_pass = grid::trials_per_pass() as f64;
    let rates: Vec<f64> = run.pass_us.iter().map(|us| per_pass * 1e6 / us).collect();
    let trials_per_s = sys::median(&rates);
    let p50 = sys::quantile(&run.pass_us, 0.50);
    let p99 = sys::quantile(&run.pass_us, 0.99);
    let costs: Vec<f64> = run.pass_cpu_ns.iter().map(|ns| ns / per_pass).collect();
    let cpu = sys::median(&costs);
    let rss_mb = run.rss_bytes as f64 / 1e6;
    let setup = sys::median(&run.setup_s);
    println!(
        "repro-grid: {:?} n={n} d={}, {} methods x {} eps per pass, {} passes on {} pool threads",
        grid::KIND,
        data.d,
        ldp_experiments::Method::distribution_methods().len(),
        ldp_experiments::ExperimentConfig::default().epsilons.len(),
        run.pass_us.len(),
        run.threads
    );
    println!(
        "  grid_trials_per_s        {trials_per_s:>14.3} trials/s   (whole run: {:.3})",
        run.trials as f64 / run.wall_s
    );
    println!(
        "  grid pass p50            {p50:>14.1} us   ({} passes)",
        run.pass_us.len()
    );
    println!("  grid pass p99            {p99:>14.1} us");
    println!(
        "  grid cpu per trial       {cpu:>14.1} ns   (whole run: {:.1})",
        run.cpu_ns as f64 / run.trials as f64
    );
    println!("  grid peak rss            {rss_mb:>14.3} MB");
    println!("  sw_ems_w1                {:>14.6}", run.sw_ems_w1);
    println!("  grid digest (pass 0)     {:>14}", run.digest);
    println!(
        "  finalize_ms              {finalize:>14.3} ms   (SW-EMS at {} EM iterations, {} runs over {} datasets: \
         mean of per-dataset medians)",
        grid::PINNED_EM_ITERATIONS,
        run.finalize_ms.len(),
        grid::FINALIZE_DATASETS
    );
    println!(
        "  setup_s                  {setup:>14.6} s    (median of {} set-ups)",
        run.setup_s.len()
    );
    println!(
        "  failed_frac              {:>14.6}",
        frac(out.failed, out.attempted)
    );
    out.set("latency_p50_us", p50);
    out.set("server_cpu_ns_per_item", cpu);
    out.set("server_peak_rss_mb", rss_mb);
    out.set("finalize_ms", finalize);
    out.set("setup_s", setup);
    Ok(out)
}

/// Per-layer numbers of one traced run, with where each came from.
struct Layers {
    out: Outcome,
    /// `(metric, on the workload's own path)`.
    on_path: Vec<(&'static str, bool)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, on_path: bool) {
        self.out.set(name, value);
        self.on_path.push((name, on_path));
    }
}

/// `--trace 1`: the serve path and the grid are both profiled on every
/// workload, each on the workload's own inputs when it runs them and on a
/// small seed-derived probe otherwise; only on-path layers enter the sum.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut layers = Layers {
        out: Outcome::new(),
        on_path: Vec::new(),
    };
    let s = args.seconds;

    // --- serve path: an untraced window for the end-to-end figure, then
    // the in-process replay.
    let serve_on = w != Workload::Grid;
    let serve_cfg = IngestConfig {
        // The traced pass does not report finalize_ms: time the served
        // window once.
        finalize_windows: 1,
        finalize_reps: 1,
        ..if serve_on {
            ingest_config(w, args.tiny)
        } else {
            INGEST_SW.tiny()
        }
    };
    let frames = ingest::generate_frames(&serve_cfg, args.seed)?;
    let serve_secs = if serve_on {
        s * 0.4
    } else {
        (s * 0.1).max(0.5)
    };
    let run = ingest::run(
        &serve_cfg,
        &frames,
        &args.ingest_options("trace", serve_secs, 1),
    )?;
    for (what, ok) in &run.checks {
        layers.out.check(what, *ok);
    }
    layers.out.attempted += run.frames_attempted();
    layers.out.failed += run.drive.failures;
    let rpf = serve_cfg.reports_per_frame as f64;
    let window_reports = run.window_reports(&serve_cfg) as f64;
    let window_ns = run.drive.window.as_secs_f64() * 1e9;
    let client_cpu = run.drive.client_cpu_ns as f64 / window_reports;
    let serve_e2e = window_ns * args.nproc() as f64 / window_reports;
    let first_wire = layers::wire_frame(serve_cfg.sequenced.then_some(0), &frames[0][0]);
    let (echo_us, _) =
        layers::echo_floor(&first_wire, sys::secs(if serve_on { 0.5 } else { 0.2 }))?;
    let replay_budget = sys::secs(if serve_on {
        s * 0.25
    } else {
        (s * 0.05).max(0.3)
    });
    let work = args.work("replay");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let sw_1024 = ldp_sw::mechanism::SwMechanism::ems(1.0, 1024).map_err(|e| e.to_string())?;
    let oue_1024 = ldp_cfo::Oue::new(1024, 1.0).map_err(|e| e.to_string())?;
    // Frame caps keep the written span file to a few megabytes.
    let replay = if serve_cfg.spec.starts_with("oue") {
        layers::replay_serve(
            &oue_1024,
            &serve_cfg,
            &frames[0],
            replay_budget,
            3_000,
            &work,
        )?
    } else {
        let cap = if serve_on { 20_000 } else { 2_000 };
        layers::replay_serve(&sw_1024, &serve_cfg, &frames[0], replay_budget, cap, &work)?
    };

    // --- finalize layers: SW's EM and OUE's debiasing.
    let grid_on = w == Workload::Grid;
    let n = if grid_on { args.grid_n() } else { 10_000 };
    let data = grid::inputs(args.seed, n)?;
    let (em_iters, em_us) = match w {
        Workload::IngestSw => {
            let state = layers::snapshot_state(&sw_1024, &run.snapshot)?;
            layers::em_profile(&sw_1024, &state.to_counts())?
        }
        Workload::Grid => {
            let (mech, state) = grid::sw_ems_state(&data, args.seed)?;
            layers::em_profile(&mech, &state.to_counts())?
        }
        Workload::IngestOue => {
            let probe = layers::probe_snapshot(INGEST_SW.spec, 20_000, args.seed)?;
            let state = layers::snapshot_state(&sw_1024, &probe)?;
            layers::em_profile(&sw_1024, &state.to_counts())?
        }
    };
    let oue_snapshot = if w == Workload::IngestOue {
        run.snapshot.clone()
    } else {
        layers::probe_snapshot(INGEST_OUE.spec, 5_000, args.seed)?
    };
    let oue_state = layers::snapshot_state(&oue_1024, &oue_snapshot)?;
    let oue_ms = sys::median(&sys::spaced(31, sys::secs(0.01), |_| {
        layers::time_finalize_ms(&oue_1024, &oue_state)
    })?);

    // --- the grid: a short untraced child run for pool occupancy, then
    // the per-method profile.
    let grid_secs = if grid_on { s * 0.4 } else { (s * 0.1).max(0.5) };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let grun = grid::run_child(&exe, args.seed, grid_secs, n)?;
    layers.out.attempted += grun.trials;
    layers.out.failed += grun.failed;
    let profile = grid::profile(&data, args.seed)?;

    let times = trace::self_times();
    let spans = trace::span_count();
    std::fs::create_dir_all(".perfbench_out").map_err(|e| e.to_string())?;
    let spans_path =
        PathBuf::from(".perfbench_out").join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    trace::flush_to(&spans_path)?;
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(args.work("trace"));

    let st = |name: &str| times.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let frames_n = replay.frames as f64;
    let reports_n = replay.reports as f64;
    let machine = st("machine") / frames_n;
    let decode = st("decode") / reports_n;
    let preabsorb = st("preabsorb") / reports_n;
    let empty_state = st("empty_state") / frames_n;
    let commit = st("commit") / frames_n;
    let snaps = replay.snapshots.max(1) as f64;
    let snap_encode_us = st("snapshot.encode") / snaps / 1e3;
    let snap_write_us = st("snapshot.write") / snaps / 1e3;
    layers.set("client.cpu_ns_per_report", client_cpu, serve_on);
    layers.set("net.echo_us_per_frame", echo_us, serve_on);
    layers.set("machine.ns_per_frame", machine, serve_on);
    layers.set("machine.frames", frames_n, serve_on);
    layers.set("decode.ns_per_report", decode, serve_on);
    layers.set(
        "decode.bytes_per_report",
        replay.payload_bytes as f64 / reports_n,
        serve_on,
    );
    layers.set("preabsorb.ns_per_report", preabsorb, serve_on);
    layers.set("empty_state.ns_per_frame", empty_state, serve_on);
    layers.set("commit.ns_per_frame", commit, serve_on);
    layers.set(
        "commit.busy_frac",
        commit * run.drive.window_frames as f64 / window_ns,
        serve_on,
    );
    layers.set("snapshot.encode_us", snap_encode_us, serve_on);
    layers.set("snapshot.write_us", snap_write_us, serve_on);
    layers.set("snapshot.bytes", replay.snapshot_bytes as f64, serve_on);
    layers.set("em.iterations", em_iters, w != Workload::IngestOue);
    layers.set("em.us_per_iteration", em_us, w != Workload::IngestOue);
    layers.set("finalize.oue_ms", oue_ms, w == Workload::IngestOue);
    for &(name, ms) in &profile.trial_ms {
        layers.set(name, ms, grid_on);
    }
    let n_f = profile.n as f64;
    for (metric, span_name, scale) in [
        ("sw_ems.randomize_ns_per_report", "sw_ems.randomize", n_f),
        ("sw_ems.absorb_ns_per_report", "sw_ems.absorb", n_f),
        ("sw_ems.finalize_us_per_trial", "sw_ems.finalize", 1e3),
        ("sw_ems.metrics_us_per_trial", "sw_ems.metrics", 1e3),
        ("hh.randomize_ns_per_report", "hh.randomize", n_f),
        ("hh.absorb_ns_per_report", "hh.absorb", n_f),
        ("hh.finalize_us_per_trial", "hh.finalize", 1e3),
        ("hh.admm_ms", "hh.admm", 1e6),
        ("hh.metrics_us_per_trial", "hh.metrics", 1e3),
    ] {
        layers.set(metric, st(span_name) / scale, grid_on);
    }
    let threads = grun.threads.max(1) as f64;
    let pass_ns: f64 = grun.pass_us.iter().sum::<f64>() * 1e3;
    let trial_ns = profile.mean_trial_ms * 1e6;
    layers.set("pool.threads", threads, grid_on);
    layers.set(
        "pool.busy_frac",
        trial_ns * grun.trials as f64 / (pass_ns * threads),
        grid_on,
    );

    // --- the attribution: end to end vs the sum of on-path layers.
    let snapshot_per_report = if serve_cfg.snapshot_every > 0 {
        (st("snapshot.encode") + st("snapshot.write")) / snaps / serve_cfg.snapshot_every as f64
    } else {
        0.0
    };
    let parts: Vec<(&str, f64)> = if grid_on {
        vec![("mean trial (profiled, one thread)", trial_ns)]
    } else {
        vec![
            ("client cpu", client_cpu),
            ("echo floor", echo_us * 1e3 / rpf),
            ("machine", machine / rpf),
            ("decode", decode),
            ("empty_state", empty_state / rpf),
            ("preabsorb", preabsorb),
            ("commit", commit / rpf),
            ("snapshot", snapshot_per_report),
        ]
    };
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let e2e = if grid_on {
        pass_ns * threads / grun.trials as f64
    } else {
        serve_e2e
    };
    layers.set("e2e.ns_per_item", e2e, true);
    layers.set("layers.sum_ns_per_item", sum, true);
    layers.set("unattributed.ns_per_item", e2e - sum, true);

    let item = if grid_on { "trial" } else { "report" };
    println!(
        "{} traced: serve layers on {}, grid layers on n={n}; {spans} spans -> {}",
        w.name(),
        if serve_on {
            "the workload's frames"
        } else {
            "an ingest-sw probe"
        },
        spans_path.display()
    );
    let unit_of = |name: &str| {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    for (name, on) in &layers.on_path {
        let value = layers
            .out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        let tag = if *on { "" } else { "   (off-path probe)" };
        println!("  {name:<32} {value:>16.3} {}{tag}", unit_of(name));
    }
    println!("  layer sum per {item}, on-path layers only:");
    for (name, v) in &parts {
        println!("    {name:<28} {v:>16.1} ns");
    }
    println!("    {:<28} {sum:>16.1} ns", "= layer sum");
    println!(
        "  end to end per {item} (untraced: {}) {e2e:>12.1} ns",
        if grid_on {
            "pass wall x pool threads / trials"
        } else {
            "window wall x nproc / acked reports"
        }
    );
    println!(
        "  unattributed remainder per {item}    {:>12.1} ns ({:.1}% of end to end)",
        e2e - sum,
        100.0 * (e2e - sum) / e2e
    );
    if serve_on {
        println!(
            "  prepare as the machine calls it: {:.1} ns/report (decode + empty_state + preabsorb split: {:.1})",
            st("prepare") / reports_n,
            decode + preabsorb + empty_state / rpf
        );
    }
    println!(
        "  failed_frac {:.6}",
        frac(layers.out.failed, layers.out.attempted)
    );
    Ok(layers.out)
}

/// Prints the metrics table and the one-line JSON result. Missing or
/// non-finite metrics fail the run.
fn emit(mut out: Outcome, table: &[Metric]) {
    let mut fields = Vec::new();
    for metric in table {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                out.check(&format!("metric {} was not measured", metric.name), false);
                0.0
            }
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    out.attempted = out.attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

fn parse_args(raw: &[String]) -> Result<(Option<Args>, bool), String> {
    let mut collector = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt_reference = false;
    let mut self_check = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--collector" => collector = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--tiny" => tiny = true,
            "--corrupt-reference" => corrupt_reference = true,
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let collector = collector.ok_or("--collector is required")?;
    if self_check {
        return Ok((
            Some(Args {
                collector,
                workload: Workload::IngestSw,
                seed,
                seconds,
                trace,
                tiny,
                corrupt_reference,
            }),
            true,
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((
        Some(Args {
            collector,
            workload,
            seed,
            seconds,
            trace,
            tiny,
            corrupt_reference,
        }),
        false,
    ))
}

/// Runs this executable on every workload at a tiny size and checks its
/// own output: every metric present with its unit, the checks passing,
/// `BENCHMARK.json` naming exactly these metrics, and a corrupted
/// reference estimate reported as a failure.
fn self_check(collector: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = |workload: &str, trace: &str, extra: &[&str]| -> Result<String, String> {
        let out = std::process::Command::new(&exe)
            .arg("--collector")
            .arg(collector)
            .args([
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--tiny",
            ])
            .args(extra)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        if !out.status.success() {
            return Err(format!(
                "{workload} --trace {trace} exited {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        stdout
            .lines()
            .last()
            .map(str::to_string)
            .ok_or_else(|| format!("{workload} --trace {trace} printed nothing"))
    };
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let before = problems.len();
            let line = run(workload.name(), trace, &[])?;
            let tag = format!("{} --trace {trace}", workload.name());
            if !line.starts_with("{\"correct\": true, ") || !line.contains("\"failed\": 0,") {
                problems.push(format!("{tag}: checks failed: {line}"));
            }
            let printed = line.matches("\"value\": ").count();
            if printed != table.len() {
                problems.push(format!("{tag}: {printed} metrics, want {}", table.len()));
            }
            for metric in table {
                let needle = format!("\"{}\": {{\"value\": ", metric.name);
                let unit = format!("\"unit\": \"{}\"}}", metric.unit);
                let ok = line
                    .split_once(&needle)
                    .and_then(|(_, rest)| rest.split_once('}'))
                    .is_some_and(|(body, _)| format!("{body}}}").contains(&unit));
                if !ok {
                    problems.push(format!(
                        "{tag}: {} missing or without unit {}",
                        metric.name, metric.unit
                    ));
                }
            }
            if problems.len() == before {
                println!("self-check: {tag} ok");
            }
        }
    }
    let line = run("ingest-sw", "0", &["--corrupt-reference"])?;
    if line.starts_with("{\"correct\": true") || line.contains("\"failed\": 0,") {
        problems.push(format!(
            "a corrupted reference estimate was not reported: {line}"
        ));
    } else {
        println!("self-check: corrupted reference reported as a failure");
    }
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            metric.name, metric.unit, metric.better
        );
        if !spec.contains(&entry) {
            problems.push(format!("BENCHMARK.json lacks {entry}"));
        }
    }
    for w in Workload::GATED {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
        if !spec.contains(&entry) {
            problems.push(format!("BENCHMARK.json lacks workload {}", w.name()));
        }
    }
    let named = spec.matches("\"name\": ").count();
    let want = END_TO_END.len() + PER_LAYER.len() + Workload::GATED.len();
    if named != want {
        problems.push(format!("BENCHMARK.json names {named} entries, want {want}"));
    }
    if problems.is_empty() {
        println!("self-check: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--grid-child") {
        let flag = |name: &str| {
            raw.iter()
                .position(|a| a == name)
                .and_then(|i| raw.get(i + 1))
                .cloned()
                .unwrap_or_default()
        };
        let result = (|| {
            let seed = flag("--seed").parse().map_err(|e| format!("--seed: {e}"))?;
            let seconds = flag("--seconds")
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            let n = flag("--grid-n")
                .parse()
                .map_err(|e| format!("--grid-n: {e}"))?;
            grid::child_main(seed, seconds, n)
        })();
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench grid child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (args, self_checking) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = args.expect("parsed");
    if self_checking {
        return match self_check(&args.collector) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench self-check failed:\n{e}");
                ExitCode::FAILURE
            }
        };
    }
    host_facts(&args);
    let result = match (args.workload, args.trace) {
        (Workload::Grid, false) => grid_untraced(&args).map(|o| (o, END_TO_END)),
        (_, false) => ingest_untraced(&args).map(|o| (o, END_TO_END)),
        (_, true) => traced(&args).map(|o| (o, PER_LAYER)),
    };
    // Removes the scratch root only once no run is using it.
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok((out, table)) => {
            emit(out, table);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
