//! Figure 5 harness benchmark: one EMS trial per wave shape (square,
//! trapezoid, triangle) at fixed ε and b.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_dataset, bench_truth, sw_ems_trial, BENCH_D, BENCH_N};
use ldp_datasets::DatasetKind;
use ldp_metrics::wasserstein;
use ldp_sw::{SwPipeline, Wave, WaveShape};
use std::time::Duration;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);
    let truth = bench_truth(&ds, BENCH_D);
    let shapes = [
        ("square", WaveShape::Square),
        ("trapezoid_0.5", WaveShape::Trapezoid { ratio: 0.5 }),
        ("triangle", WaveShape::Triangle),
    ];
    for (name, shape) in shapes {
        group.bench_function(name, |b| {
            let wave = Wave::new(shape, 0.25, 1.0).unwrap();
            let pipeline = SwPipeline::with_wave(wave, BENCH_D, BENCH_D).unwrap();
            let mut seed = 300u64;
            b.iter(|| {
                seed += 1;
                let est = sw_ems_trial(&pipeline, &ds.values, seed);
                wasserstein(&truth, &est).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
