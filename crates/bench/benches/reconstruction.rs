//! Server-side reconstruction costs: transition-matrix construction,
//! EM/EMS iterations, constrained inference, and ADMM.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_dataset, BENCH_D, BENCH_N};
use ldp_core::{Client, Mechanism};
use ldp_datasets::DatasetKind;
use ldp_hierarchy::{hh_admm, AdmmConfig, HierarchicalHistogram};
use ldp_numeric::SplitMix64;
use ldp_sw::{optimal_b, reconstruct, transition_matrix, EmConfig, ShardAggregator, Wave};
use std::time::Duration;

fn bench_transition(c: &mut Criterion) {
    let mut group = c.benchmark_group("transition_matrix");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let wave = Wave::square(optimal_b(1.0).unwrap(), 1.0).unwrap();
    for d in [256usize, 1024] {
        group.bench_function(format!("square_d{d}"), |b| {
            b.iter(|| transition_matrix(black_box(&wave), d, d).unwrap())
        });
    }
    let triangle = Wave::new(ldp_sw::WaveShape::Triangle, 0.25, 1.0).unwrap();
    group.bench_function("triangle_d256", |b| {
        b.iter(|| transition_matrix(black_box(&triangle), 256, 256).unwrap())
    });
    group.finish();
}

fn bench_em_ems(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    let eps = 1.0;
    let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
    let m = transition_matrix(&wave, BENCH_D, BENCH_D).unwrap();
    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);
    let pipeline = ldp_sw::SwPipeline::with_wave(wave, BENCH_D, BENCH_D).unwrap();
    let mut rng = SplitMix64::new(10);
    let reports: Vec<f64> = ds
        .values
        .iter()
        .map(|&v| pipeline.wave().randomize(v, &mut rng).unwrap())
        .collect();
    let mut agg = ShardAggregator::for_pipeline(&pipeline);
    agg.push_slice(&reports).unwrap();
    let counts = agg.to_counts();

    group.bench_function("em_d256", |b| {
        b.iter(|| reconstruct(black_box(&m), black_box(&counts), &EmConfig::em(eps)).unwrap())
    });
    group.bench_function("ems_d256", |b| {
        b.iter(|| reconstruct(black_box(&m), black_box(&counts), &EmConfig::ems()).unwrap())
    });
    group.finish();
}

fn bench_hierarchy_postprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);
    let buckets = ds.bucket_values(BENCH_D);
    let hh = HierarchicalHistogram::new(4, BENCH_D, 1.0).unwrap();
    let mut rng = SplitMix64::new(11);
    let reports = Client::new(&hh)
        .randomize_batch(&buckets, &mut rng)
        .unwrap();
    let raw = hh.aggregate(&reports).unwrap();

    group.bench_function("constrained_inference_d256", |b| {
        b.iter(|| hh.make_consistent(black_box(&raw)).unwrap())
    });
    group.bench_function("hh_admm_d256", |b| {
        b.iter(|| hh_admm(hh.shape(), black_box(&raw), AdmmConfig::default()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_transition,
    bench_em_ems,
    bench_hierarchy_postprocessing
);
criterion_main!(benches);
