//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! smoothing kernel width, Norm-Sub vs Norm-Mul, randomize-before-bucketize
//! vs bucketize-before-randomize, and the ADMM iteration budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_dataset, sw_ems_trial, BENCH_N};
use ldp_cfo::postprocess::{norm_mul, norm_sub};
use ldp_core::{Client, Mechanism};
use ldp_datasets::DatasetKind;
use ldp_hierarchy::{hh_admm, AdmmConfig, HierarchicalHistogram};
use ldp_numeric::SplitMix64;
use ldp_sw::{
    reconstruct, transition_matrix, DiscreteSw, EmConfig, ShardAggregator, SmoothingKernel,
    SwPipeline,
};
use std::time::Duration;

const D: usize = 256;

fn bench_smoothing_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_smoothing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);
    let pipeline = SwPipeline::new(1.0, D).unwrap();
    let mut rng = SplitMix64::new(600);
    let reports: Vec<f64> = ds
        .values
        .iter()
        .map(|&v| pipeline.wave().randomize(v, &mut rng).unwrap())
        .collect();
    let mut agg = ShardAggregator::for_pipeline(&pipeline);
    agg.push_slice(&reports).unwrap();
    let counts = agg.to_counts();
    let m = &transition_matrix(pipeline.wave(), D, D).unwrap();

    let configs = [
        ("none_em", EmConfig::em(1.0)),
        ("binomial3_ems", EmConfig::ems()),
        (
            "binomial5_ems",
            EmConfig {
                smoothing: Some(SmoothingKernel::binomial5()),
                ..EmConfig::ems()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_function(name, |b| {
            b.iter(|| reconstruct(black_box(m), black_box(&counts), &config).unwrap())
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_normalization");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    // A noisy estimate vector with ~30% negative entries.
    let noisy: Vec<f64> = (0..1024)
        .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 / 1000.0 - 0.3)
        .collect();
    group.bench_function("norm_sub_1024", |b| {
        b.iter(|| norm_sub(black_box(&noisy), 1.0))
    });
    group.bench_function("norm_mul_1024", |b| {
        b.iter(|| norm_mul(black_box(&noisy), 1.0))
    });
    group.finish();
}

fn bench_rb_vs_br(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rb_vs_br");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);

    group.bench_function("randomize_before_bucketize", |b| {
        let pipeline = SwPipeline::new(1.0, D).unwrap();
        let mut seed = 700u64;
        b.iter(|| {
            seed += 1;
            sw_ems_trial(&pipeline, &ds.values, seed)
        })
    });

    group.bench_function("bucketize_before_randomize", |b| {
        let sw = DiscreteSw::new(D, 1.0).unwrap();
        let buckets = ds.bucket_values(D);
        let mut seed = 800u64;
        b.iter(|| {
            seed += 1;
            let reports = Client::new(&sw)
                .randomize_batch(&buckets, &mut SplitMix64::new(seed))
                .unwrap();
            sw.aggregate(&reports).unwrap()
        })
    });
    group.finish();
}

fn bench_admm_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_admm_iterations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let ds = bench_dataset(DatasetKind::Income, BENCH_N);
    let buckets = ds.bucket_values(D);
    let hh = HierarchicalHistogram::new(4, D, 1.0).unwrap();
    let mut rng = SplitMix64::new(900);
    let reports = Client::new(&hh)
        .randomize_batch(&buckets, &mut rng)
        .unwrap();
    let raw = hh.aggregate(&reports).unwrap();
    for iters in [50usize, 300] {
        group.bench_function(format!("admm_{iters}_iters"), |b| {
            let config = AdmmConfig {
                max_iterations: iters,
                tolerance: 0.0,
            };
            b.iter(|| hh_admm(hh.shape(), black_box(&raw), config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_smoothing_kernels,
    bench_normalization,
    bench_rb_vs_br,
    bench_admm_iterations
);
criterion_main!(benches);
