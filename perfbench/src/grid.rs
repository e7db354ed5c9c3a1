//! The researcher's workload: the paper's ε sweep (`run_grid` over
//! `Method::distribution_methods()`) on one synthetic dataset, run in a
//! child process so its CPU and memory are measured from outside the
//! benchmark process. Also the traced per-method profile of a grid trial.

use crate::sys::{self, Digest};
use crate::trace::span;
use ldp_core::{Aggregator, Client, Domain, Epsilon, Mechanism};
use ldp_datasets::{DatasetKind, DatasetSpec};
use ldp_experiments::{evaluate_trial, run_grid, ExperimentConfig, GridResults, Method};
use ldp_hierarchy::{hh_admm_histogram, AdmmConfig, HierarchicalHistogram};
use ldp_numeric::histogram::bucket_of;
use ldp_numeric::rng::mix64;
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::aggregator::ShardAggregator;
use ldp_sw::em::EmConfig;
use ldp_sw::mechanism::SwMechanism;
use ldp_sw::pipeline::Reconstruction;
use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The dataset the grid runs on, at its paper bucket count.
pub const KIND: DatasetKind = DatasetKind::Beta;

/// EM iterations of the grid's timed finalize: pinned, so `finalize_ms`
/// is the reconstruction's cost rather than a draw of the sample-dependent
/// iteration count (that count is the traced `em.iterations`).
pub const PINNED_EM_ITERATIONS: usize = 500;

/// Range queries per trial (the experiment harness's default).
fn range_queries() -> usize {
    ExperimentConfig::default().range_queries
}

/// The users' values and the ground truth at the paper's granularity.
pub struct GridInputs {
    pub values: Vec<f64>,
    pub truth: Histogram,
    pub d: usize,
}

/// Generates the dataset and its truth histogram from `seed`.
pub fn inputs(seed: u64, n: usize) -> Result<GridInputs, String> {
    let dataset = DatasetSpec {
        kind: KIND,
        n,
        seed,
    }
    .generate();
    let d = KIND.paper_buckets();
    let truth = dataset.histogram(d).map_err(|e| e.to_string())?;
    Ok(GridInputs {
        values: dataset.values,
        truth,
        d,
    })
}

/// The grid configuration of pass `pass` (each pass draws fresh trial
/// seeds, so more passes mean more independent trials).
pub fn config(seed: u64, pass: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        repeats: 1,
        seed: if pass == 0 { seed } else { mix64(seed ^ pass) },
        threads,
        datasets: vec![KIND],
        ..ExperimentConfig::default()
    }
}

/// Trials in one pass.
pub fn trials_per_pass() -> u64 {
    (Method::distribution_methods().len() * ExperimentConfig::default().epsilons.len()) as u64
}

/// Digest of every metric of every trial, bit for bit.
pub fn digest(results: &GridResults) -> u64 {
    let mut digest = Digest::new();
    for per_eps in &results.metrics {
        for trials in per_eps {
            for t in trials {
                for m in [
                    t.w1,
                    t.ks,
                    t.rq_01,
                    t.rq_04,
                    t.mean_err,
                    t.var_err,
                    t.quantile_err,
                ] {
                    digest.word(m.map_or(u64::MAX, f64::to_bits));
                }
            }
        }
    }
    digest.finish()
}

/// Trials whose distribution metrics are missing or out of range.
fn invalid_trials(results: &GridResults) -> u64 {
    let mut bad = 0;
    for per_eps in &results.metrics {
        for t in per_eps.iter().flatten() {
            let ok = [t.w1, t.ks]
                .iter()
                .all(|m| m.is_some_and(|v| v.is_finite() && (0.0..=1.0).contains(&v)));
            bad += u64::from(!ok);
        }
    }
    bad
}

fn sw_ems_w1s(results: &GridResults) -> Vec<f64> {
    results
        .methods
        .iter()
        .position(|m| *m == Method::SwEms)
        .map(|i| {
            results.metrics[i]
                .iter()
                .flatten()
                .filter_map(|t| t.w1)
                .collect()
        })
        .unwrap_or_default()
}

/// Body of the grid child process: prints `key value...` lines for the
/// parent to parse.
pub fn child_main(seed: u64, seconds: f64, n: usize) -> Result<(), String> {
    // Set-ups spread out in time, like the collector's start-ups.
    let mut data = None;
    let setup = sys::spaced(15, sys::secs(0.1), |_| {
        let started = Instant::now();
        data = Some(inputs(seed, n)?);
        Ok::<f64, String>(started.elapsed().as_secs_f64())
    })?;
    let data = data.expect("the set-ups ran");
    let methods = Method::distribution_methods();
    let threads = ldp_pool::configured_threads();
    let per_pass = trials_per_pass();
    let mut failed = 0u64;
    let mut w1s = Vec::new();
    // Pass 0 warms the pool and pages; it is digested and checked, not timed.
    let first = run_grid(
        &methods,
        &data.values,
        &data.truth,
        data.d,
        &config(seed, 0, threads),
    )
    .map_err(|e| e.to_string())?;
    let first_digest = digest(&first);
    failed += invalid_trials(&first);
    w1s.extend(sw_ems_w1s(&first));
    let (pinned, pinned_states) = pinned_finalize(&data, seed)?;
    let cpu0 = sys::cpu_ns("self")?;
    let started = Instant::now();
    let mut pass_us = Vec::new();
    let mut pass_cpu_ns = Vec::new();
    let mut finalize_ms = Vec::new();
    let mut trials = 0u64;
    let mut pass = 1;
    while pass_us.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let (t, cpu) = (Instant::now(), sys::cpu_ns("self")?);
        let result = run_grid(
            &methods,
            &data.values,
            &data.truth,
            data.d,
            &config(seed, pass, threads),
        );
        pass_us.push(t.elapsed().as_secs_f64() * 1e6);
        pass_cpu_ns.push((sys::cpu_ns("self")? - cpu) as f64);
        // One finalize between passes: the samples span the whole run.
        let state = &pinned_states[pass as usize % pinned_states.len()];
        let t = Instant::now();
        std::hint::black_box(pinned.finalize(state).map_err(|e| e.to_string())?);
        finalize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) => {
                failed += invalid_trials(&r);
                w1s.extend(sw_ems_w1s(&r));
            }
            Err(e) => {
                eprintln!("grid pass {pass}: {e}");
                failed += per_pass;
            }
        }
        trials += per_pass;
        pass += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::cpu_ns("self")? - cpu0;
    let rss = sys::peak_rss_bytes("self")?;
    let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
    println!("setup_s {}", join(&setup));
    println!("pass_us {}", join(&pass_us));
    println!("pass_cpu_ns {}", join(&pass_cpu_ns));
    println!("finalize_ms {}", join(&finalize_ms));
    println!("wall_s {wall}");
    println!("trials {trials}");
    println!("failed {failed}");
    println!("cpu_ns {cpu}");
    println!("rss_bytes {rss}");
    println!("threads {threads}");
    println!("digest {first_digest:016x}");
    println!(
        "sw_ems_w1 {}",
        w1s.iter().sum::<f64>() / w1s.len().max(1) as f64
    );
    Ok(())
}

/// What the grid child reported.
#[derive(Debug, Default)]
pub struct GridRun {
    pub setup_s: Vec<f64>,
    pub pass_us: Vec<f64>,
    pub pass_cpu_ns: Vec<f64>,
    pub finalize_ms: Vec<f64>,
    pub wall_s: f64,
    pub trials: u64,
    pub failed: u64,
    pub cpu_ns: u64,
    pub rss_bytes: u64,
    pub threads: usize,
    pub digest: String,
    pub sw_ems_w1: f64,
}

/// Spawns this executable as the grid child and collects its report.
pub fn run_child(exe: &Path, seed: u64, seconds: f64, n: usize) -> Result<GridRun, String> {
    let mut child = Command::new(exe)
        .args([
            "--grid-child",
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--grid-n", &n.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the grid child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut run = GridRun::default();
    let floats = |rest: &str| {
        rest.split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect()
    };
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (key, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match key {
            "setup_s" => run.setup_s = floats(rest),
            "pass_us" => run.pass_us = floats(rest),
            "pass_cpu_ns" => run.pass_cpu_ns = floats(rest),
            "finalize_ms" => run.finalize_ms = floats(rest),
            "wall_s" => run.wall_s = rest.parse().unwrap_or(f64::NAN),
            "trials" => run.trials = rest.parse().unwrap_or(0),
            "failed" => run.failed = rest.parse().unwrap_or(u64::MAX),
            "cpu_ns" => run.cpu_ns = rest.parse().unwrap_or(0),
            "rss_bytes" => run.rss_bytes = rest.parse().unwrap_or(0),
            "threads" => run.threads = rest.parse().unwrap_or(0),
            "digest" => run.digest = rest.to_string(),
            "sw_ems_w1" => run.sw_ems_w1 = rest.parse().unwrap_or(f64::NAN),
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() || run.trials == 0 {
        return Err(format!("grid child failed ({status})"));
    }
    Ok(run)
}

/// Pass 0 recomputed in this process on one thread: its digest must
/// equal the child's pooled one.
pub fn serial_digest(seed: u64, n: usize) -> Result<String, String> {
    let data = inputs(seed, n)?;
    let results = run_grid(
        &Method::distribution_methods(),
        &data.values,
        &data.truth,
        data.d,
        &config(seed, 0, 1),
    )
    .map_err(|e| e.to_string())?;
    Ok(format!("{:016x}", digest(&results)))
}

/// An SW-EMS aggregator over the dataset at ε = 1 (what an analyst
/// finalizes on this dataset).
pub fn sw_ems_state(
    data: &GridInputs,
    seed: u64,
) -> Result<(SwMechanism, ShardAggregator), String> {
    let mech = SwMechanism::ems(1.0, data.d).map_err(|e| e.to_string())?;
    let client = Client::new(&mech);
    let mut rng = SplitMix64::new(seed);
    let reports = client
        .randomize_batch(&data.values, &mut rng)
        .map_err(|e| e.to_string())?;
    let mut agg = Aggregator::new(&mech);
    agg.push_slice(&reports).map_err(|e| e.to_string())?;
    let state = agg.state().clone();
    Ok((mech, state))
}

/// Datasets the grid's `finalize_ms` cycles through: the workload's own
/// and siblings from the same generator. Even at a pinned iteration count
/// EM's cost per iteration depends on the sample (near-empty buckets run
/// slow), so one dataset is a noisy draw.
pub const FINALIZE_DATASETS: usize = 9;

/// SW-EMS at ε = 1 with [`PINNED_EM_ITERATIONS`], and its states over the
/// workload's dataset and its siblings: what the grid's `finalize_ms`
/// times.
fn pinned_finalize(
    data: &GridInputs,
    seed: u64,
) -> Result<(SwMechanism, Vec<ShardAggregator>), String> {
    let pinned = EmConfig {
        ll_threshold: 0.0,
        max_iterations: PINNED_EM_ITERATIONS,
        min_iterations: PINNED_EM_ITERATIONS,
        ..EmConfig::ems()
    };
    let mech = SwMechanism::new(
        Epsilon::new(1.0).map_err(|e| e.to_string())?,
        Domain::new(data.d).map_err(|e| e.to_string())?,
        Reconstruction::Custom(pinned),
    )
    .map_err(|e| e.to_string())?;
    let mut states = vec![sw_ems_state(data, seed)?.1];
    for k in 1..FINALIZE_DATASETS as u64 {
        let sibling = inputs(mix64(seed ^ (0xF1A1 + k)), data.values.len())?;
        states.push(sw_ems_state(&sibling, seed)?.1);
    }
    Ok((mech, states))
}

/// Per-method trial time and the SW-EMS / HH-ADMM stage split.
#[derive(Debug, Default)]
pub struct GridProfile {
    /// `(metric name, mean ms per trial over the ε axis)`, in method order.
    pub trial_ms: Vec<(&'static str, f64)>,
    /// Mean over all methods and ε: the average trial.
    pub mean_trial_ms: f64,
    pub n: usize,
}

fn trial_metric(method: Method) -> &'static str {
    match method {
        Method::SwEms => "trial_ms.sw_ems",
        Method::SwEm => "trial_ms.sw_em",
        Method::HhAdmm => "trial_ms.hh_admm",
        Method::CfoBinning { bins: 16 } => "trial_ms.cfo_binning_16",
        Method::CfoBinning { bins: 32 } => "trial_ms.cfo_binning_32",
        Method::CfoBinning { bins: 64 } => "trial_ms.cfo_binning_64",
        _ => "trial_ms.other",
    }
}

/// Evaluates the metrics `evaluate_trial` computes for a distribution.
fn trial_metrics(truth: &Histogram, h: &Histogram, seed: u64) -> Result<f64, String> {
    let e = |e: ldp_metrics::MetricError| e.to_string();
    let mut rng = SplitMix64::new(mix64(seed ^ 0x5EED_CAFE));
    let rq = range_queries();
    let mut acc = ldp_metrics::wasserstein(truth, h).map_err(e)?;
    acc += ldp_metrics::ks_distance(truth, h).map_err(e)?;
    acc += ldp_metrics::range_query_mae(truth, h, 0.1, rq, &mut rng).map_err(e)?;
    acc += ldp_metrics::range_query_mae(truth, h, 0.4, rq, &mut rng).map_err(e)?;
    acc += ldp_metrics::mean_error(truth, h).map_err(e)?;
    acc += ldp_metrics::variance_error(truth, h).map_err(e)?;
    acc += ldp_metrics::quantile_mae(truth, h, &ldp_metrics::paper_levels()).map_err(e)?;
    Ok(acc)
}

/// Randomize → absorb → finalize (→ post-process) → metrics through the
/// public `Client`/`Aggregator` API, each stage in its own span named
/// `<prefix>.<stage>`.
fn split_trial<M, FIn, FPost>(
    names: [&'static str; 4],
    post_name: Option<&'static str>,
    mech: &M,
    data: &GridInputs,
    seed: u64,
    to_input: FIn,
    post: FPost,
) -> Result<(), String>
where
    M: Mechanism,
    M::Input: Sized,
    FIn: Fn(f64) -> M::Input,
    FPost: Fn(M::Output) -> Result<Histogram, String>,
{
    let inputs: Vec<M::Input> = data.values.iter().map(|&v| to_input(v)).collect();
    let client = Client::new(mech);
    let mut rng = SplitMix64::new(seed);
    let reports =
        span(names[0], || client.randomize_batch(&inputs, &mut rng)).map_err(|e| e.to_string())?;
    let mut agg = Aggregator::new(mech);
    span(names[1], || -> Result<(), String> {
        for block in reports.chunks(8 * 1024) {
            agg.push_slice(block).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let output = span(names[2], || agg.finalize()).map_err(|e| e.to_string())?;
    let hist = match post_name {
        Some(name) => span(name, || post(output))?,
        None => post(output)?,
    };
    let score = span(names[3], || trial_metrics(&data.truth, &hist, seed))?;
    std::hint::black_box(score);
    Ok(())
}

/// Times `evaluate_trial` for every method at every ε of the grid, then
/// splits SW-EMS and HH-ADMM trials (at ε = 1) into their stages.
pub fn profile(data: &GridInputs, seed: u64) -> Result<GridProfile, String> {
    let epsilons = ExperimentConfig::default().epsilons;
    let mut profile = GridProfile {
        n: data.values.len(),
        ..GridProfile::default()
    };
    let mut all = Vec::new();
    for method in Method::distribution_methods() {
        let mut times = Vec::new();
        for (i, &eps) in epsilons.iter().enumerate() {
            let started = Instant::now();
            let trial_seed = mix64(seed ^ (i as u64 + 1));
            span(trial_metric(method), || {
                evaluate_trial(
                    method,
                    &data.values,
                    &data.truth,
                    data.d,
                    eps,
                    trial_seed,
                    range_queries(),
                )
            })
            .map_err(|e| e.to_string())?;
            times.push(started.elapsed().as_secs_f64() * 1e3);
        }
        all.extend_from_slice(&times);
        profile.trial_ms.push((
            trial_metric(method),
            times.iter().sum::<f64>() / times.len() as f64,
        ));
    }
    profile.mean_trial_ms = all.iter().sum::<f64>() / all.len() as f64;
    let sw = SwMechanism::ems(1.0, data.d).map_err(|e| e.to_string())?;
    split_trial(
        [
            "sw_ems.randomize",
            "sw_ems.absorb",
            "sw_ems.finalize",
            "sw_ems.metrics",
        ],
        None,
        &sw,
        data,
        seed,
        |v| v,
        Ok,
    )?;
    let d = data.d;
    let hh = HierarchicalHistogram::new(ldp_experiments::methods::HIERARCHY_BRANCHING, d, 1.0)
        .map_err(|e| e.to_string())?;
    split_trial(
        ["hh.randomize", "hh.absorb", "hh.finalize", "hh.metrics"],
        Some("hh.admm"),
        &hh,
        data,
        seed,
        move |v| bucket_of(v, d),
        |raw| {
            hh_admm_histogram(raw.shape(), &raw, AdmmConfig::default()).map_err(|e| e.to_string())
        },
    )?;
    Ok(profile)
}
