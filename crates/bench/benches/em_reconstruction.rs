//! Perf trajectory benches for the structured transition operator, the
//! pooled experiment grid and server-side ingest (recorded into
//! `BENCH_em.json` by `scripts/bench_record.sh`).
//!
//! - `em_fixed/{dense,structured}_d{D}_iters{K}`: EM over exactly `K`
//!   iterations at `d = d̃ = D`, dense matrix vs `BandedBaselineOperator`.
//!   Per-iteration cost = reported ns / `K`. These never test for
//!   convergence, so they time iterations without the log-likelihood.
//! - `em_fixed/ems_converging_d{D}_iters{K}`: EMS on the same counts run to
//!   convergence, which took `K` iterations; per-iteration cost = ns / `K`,
//!   including the log-likelihood evaluations the stopping test needs.
//! - `grid/sw_ems_jobs{J}_d{D}`: a figure-6-style `run_grid` slice of `J`
//!   (ε × trial) jobs through `parallel_jobs`; per-trial cost = ns / `J`.
//! - `bootstrap/replicates{R}_d{D}`: Poisson bootstrap with `R` replicates
//!   on the pool; per-replicate cost = ns / `R`.
//! - `streaming/{push_slice,one_shot}_n{N}_d{D}`: server-side aggregation
//!   of `N` pre-randomized reports + EMS reconstruction — chunked
//!   `Aggregator::push_slice` vs. one-shot `Mechanism::aggregate`;
//!   per-report cost = ns / `N`. The two must stay at parity.
//! - `absorb/{family}_n{N}`: bulk `Aggregator::push_slice` absorption of
//!   `N` pre-randomized reports per mechanism family — the SIMD/unrolled
//!   kernel path; per-report cost = ns / `N`.
//! - `absorb_push/{family}_n{N}`: the same ingest through per-report
//!   `Aggregator::push` — the scalar serial baseline the kernels are
//!   measured against (speedup = absorb_push / absorb).
//! - `absorb_pooled/{family}_n{N}_w{W}`: bulk ingest through the
//!   pool-sharded `Aggregator::push_slice_sharded` fan-out with `W`
//!   shards on the shared `ldp-pool` worker pool.
//!
//! `BENCH_SMOKE=1` switches to a seconds-long configuration for CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_cfo::{BinningEstimator, Grr, Hrr, Olh, Oue};
use ldp_core::{Aggregator, Client, Mechanism};
use ldp_experiments::{run_grid, ExperimentConfig, Method};
use ldp_hierarchy::{HaarHrr, HierarchicalHistogram};
use ldp_mean::{Hybrid, Pm};
use ldp_numeric::Histogram;
use ldp_sw::{
    bootstrap, optimal_b, reconstruct, transition_matrix, BandedBaselineOperator, BootstrapConfig,
    EmConfig, SwMechanism, Wave,
};
use std::time::Duration;

/// Fixed EM iteration count so dense and structured runs do identical work.
const EM_ITERS: usize = 32;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").as_deref() == Ok("1")
}

/// An EmConfig that runs exactly `iters` iterations (early stop disabled).
fn fixed_iters(iters: usize) -> EmConfig {
    EmConfig {
        ll_threshold: 0.0,
        max_iterations: iters,
        min_iterations: iters + 1,
        smoothing: None,
    }
}

/// Expected report counts for a smooth bimodal truth — EM sees realistic,
/// strictly positive conditionals without any sampling noise in the bench.
fn expected_counts(m: &ldp_numeric::Matrix, d: usize) -> Vec<f64> {
    let mut truth: Vec<f64> = (0..d)
        .map(|i| {
            let x = (i as f64 + 0.5) / d as f64;
            (-(x - 0.3).powi(2) / 0.02).exp() + 0.6 * (-(x - 0.75).powi(2) / 0.01).exp()
        })
        .collect();
    let s: f64 = truth.iter().sum();
    for t in &mut truth {
        *t /= s;
    }
    m.matvec(&truth).unwrap().iter().map(|p| p * 1e6).collect()
}

fn bench_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("em_fixed");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(3));
    }
    let dims: &[usize] = if smoke() { &[256] } else { &[256, 1024] };
    let eps = 1.0;
    let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
    for &d in dims {
        let m = transition_matrix(&wave, d, d).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        let counts = expected_counts(&m, d);
        let config = fixed_iters(EM_ITERS);
        group.bench_function(format!("dense_d{d}_iters{EM_ITERS}"), |b| {
            b.iter(|| reconstruct(black_box(&m), black_box(&counts), &config).unwrap())
        });
        group.bench_function(format!("structured_d{d}_iters{EM_ITERS}"), |b| {
            b.iter(|| reconstruct(black_box(&op), black_box(&counts), &config).unwrap())
        });
        // `fixed_iters` never tests for convergence, so it never takes the
        // log-likelihood's logarithms; this run stops as EMS does. The
        // name carries its (deterministic) iteration count.
        let ems = EmConfig::ems();
        let iters = reconstruct(&op, &counts, &ems).unwrap().iterations;
        group.bench_function(format!("ems_converging_d{d}_iters{iters}"), |b| {
            b.iter(|| reconstruct(black_box(&op), black_box(&counts), &ems).unwrap())
        });
    }
    group.finish();
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(400));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(3));
    }
    let d = 64;
    let n = if smoke() { 1_000 } else { 4_000 };
    let values: Vec<f64> = (0..n).map(|i| ((i * 13) % 1000) as f64 / 1000.0).collect();
    let truth = Histogram::from_samples(&values, d).unwrap();
    // A figure-6-style slice: one method, a small ε × trial grid running
    // through `parallel_jobs` on the shared pool.
    let config = ExperimentConfig {
        epsilons: vec![0.5, 1.0, 2.0],
        repeats: if smoke() { 2 } else { 8 },
        scale: 1.0,
        seed: 23,
        range_queries: 20,
        ..ExperimentConfig::default()
    };
    let jobs = config.epsilons.len() * config.repeats;
    group.bench_function(format!("sw_ems_jobs{jobs}_d{d}"), |b| {
        b.iter(|| run_grid(&[Method::SwEms], black_box(&values), &truth, d, &config).unwrap())
    });
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(400));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(3));
    }
    let d = 64;
    let replicates = if smoke() { 10 } else { 30 };
    let mech = SwMechanism::ems(1.0, d).unwrap();
    let values: Vec<f64> = (0..60_000).map(|i| (i % 4093) as f64 / 4093.0).collect();
    let mut agg = Aggregator::new(&mech);
    agg.push_slice(&absorb_reports(&mech, &values, 7)).unwrap();
    let counts = agg.state().to_counts();
    let config = BootstrapConfig {
        replicates,
        ..BootstrapConfig::default()
    };
    group.bench_function(format!("replicates{replicates}_d{d}"), |b| {
        b.iter(|| {
            let mut rng = ldp_numeric::SplitMix64::new(11);
            bootstrap(
                mech.pipeline().operator(),
                black_box(&counts),
                &config,
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(400));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(3));
    }
    let d = 256;
    let n: usize = if smoke() { 20_000 } else { 200_000 };
    let mech = SwMechanism::ems(1.0, d).unwrap();
    let client = Client::new(&mech);
    let mut rng = ldp_numeric::SplitMix64::new(17);
    let values: Vec<f64> = (0..n).map(|i| (i % 9973) as f64 / 9973.0).collect();
    let reports = client.randomize_batch(&values, &mut rng).unwrap();

    // Unified API, streaming ingestion in collector-sized chunks.
    group.bench_function(format!("push_slice_n{n}_d{d}"), |b| {
        b.iter(|| {
            let mut agg = Aggregator::new(&mech);
            for chunk in black_box(&reports).chunks(8 * 1024) {
                agg.push_slice(chunk).unwrap();
            }
            agg.finalize().unwrap()
        })
    });
    // Unified API, one-shot server side.
    group.bench_function(format!("one_shot_n{n}_d{d}"), |b| {
        b.iter(|| mech.aggregate(black_box(&reports)).unwrap())
    });
    group.finish();
}

/// Pre-randomized report streams for the absorb benches, one per family.
fn absorb_reports<M: Mechanism>(mech: &M, inputs: &[M::Input], seed: u64) -> Vec<M::Report>
where
    M::Input: Sized,
{
    let client = Client::new(mech);
    let mut rng = ldp_numeric::SplitMix64::new(seed);
    inputs
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect()
}

fn bench_absorb(c: &mut Criterion) {
    let n: usize = if smoke() { 10_000 } else { 100_000 };
    let unit: Vec<f64> = (0..n).map(|i| (i % 9973) as f64 / 9973.0).collect();
    let signed: Vec<f64> = (0..n)
        .map(|i| ((i * 31) % 2001) as f64 / 1000.0 - 1.0)
        .collect();
    let cat = |d: usize| -> Vec<usize> { (0..n).map(|i| (i * 13) % d).collect() };

    let grr = Grr::new(64, 1.0).unwrap();
    let grr_reports = absorb_reports(&grr, &cat(64), 41);
    let olh = Olh::new(64, 1.0).unwrap();
    let olh_reports = absorb_reports(&olh, &cat(64), 42);
    let oue = Oue::new(1024, 1.0).unwrap();
    let oue_reports = absorb_reports(&oue, &cat(1024), 43);
    let hrr = Hrr::new(256, 1.0).unwrap();
    let hrr_reports = absorb_reports(&hrr, &cat(256), 44);
    let sw = SwMechanism::ems(1.0, 256).unwrap();
    let sw_reports = absorb_reports(&sw, &unit, 45);
    let pm = Pm::new(1.0).unwrap();
    let pm_reports = absorb_reports(&pm, &signed, 46);
    let hybrid = Hybrid::new(2.0).unwrap();
    let hybrid_reports = absorb_reports(&hybrid, &signed, 47);
    let hh = HierarchicalHistogram::new(4, 256, 1.0).unwrap();
    let hh_reports = absorb_reports(&hh, &cat(256), 48);
    let haar = HaarHrr::new(256, 1.0).unwrap();
    let haar_reports = absorb_reports(&haar, &cat(256), 49);
    // CFO-binning at the paper's d = 256 with 64 bins: its OLH oracle walks
    // 64 values per report.
    let binning = BinningEstimator::new(64, 256, 1.0).unwrap();
    let binning_reports = absorb_reports(&binning, &unit, 50);

    macro_rules! each_family {
        ($m:ident) => {
            $m!(grr, grr_reports);
            $m!(olh, olh_reports);
            $m!(oue, oue_reports);
            $m!(hrr, hrr_reports);
            $m!(sw, sw_reports);
            $m!(pm, pm_reports);
            $m!(hybrid, hybrid_reports);
            $m!(hh, hh_reports);
            $m!(haar, haar_reports);
            $m!(binning, binning_reports);
        };
    }

    let configure = |group: &mut criterion::BenchmarkGroup| {
        if smoke() {
            group
                .sample_size(2)
                .warm_up_time(Duration::from_millis(50))
                .measurement_time(Duration::from_millis(200));
        } else {
            group
                .sample_size(10)
                .warm_up_time(Duration::from_millis(300))
                .measurement_time(Duration::from_secs(2));
        }
    };

    let mut group = c.benchmark_group("absorb");
    configure(&mut group);
    macro_rules! slice_bench {
        ($mech:ident, $reports:ident) => {
            group.bench_function(format!("{}_n{n}", stringify!($mech)), |b| {
                b.iter(|| {
                    let mut agg = Aggregator::new(&$mech);
                    agg.push_slice(black_box(&$reports)).unwrap();
                    agg.count()
                })
            });
        };
    }
    each_family!(slice_bench);
    group.finish();

    let mut group = c.benchmark_group("absorb_push");
    configure(&mut group);
    macro_rules! push_bench {
        ($mech:ident, $reports:ident) => {
            group.bench_function(format!("{}_n{n}", stringify!($mech)), |b| {
                b.iter(|| {
                    let mut agg = Aggregator::new(&$mech);
                    for r in black_box(&$reports) {
                        agg.push(r).unwrap();
                    }
                    agg.count()
                })
            });
        };
    }
    each_family!(push_bench);
    group.finish();

    let mut group = c.benchmark_group("absorb_pooled");
    configure(&mut group);
    macro_rules! pooled_bench {
        ($mech:ident, $reports:ident) => {
            for w in [2usize, 4] {
                group.bench_function(format!("{}_n{n}_w{w}", stringify!($mech)), |b| {
                    b.iter(|| {
                        let mut agg = Aggregator::new(&$mech);
                        agg.push_slice_sharded(black_box(&$reports), w).unwrap();
                        agg.count()
                    })
                });
            }
        };
    }
    each_family!(pooled_bench);
    group.finish();
}

/// Names the widest kernel arm the benches above dispatch to, for
/// `scripts/bench_record.sh`'s `simd_kernels` field.
fn report_kernel_arm(_: &mut Criterion) {
    println!("simd_kernels: {}", ldp_numeric::kernels::widest_arm());
}

criterion_group!(
    benches,
    report_kernel_arm,
    bench_em,
    bench_grid,
    bench_bootstrap,
    bench_streaming,
    bench_absorb
);
criterion_main!(benches);
