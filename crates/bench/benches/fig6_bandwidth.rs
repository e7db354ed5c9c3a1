//! Figure 6 harness benchmark: EMS trials at bandwidths around the
//! closed-form optimum, plus the bandwidth rule itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_dataset, bench_truth, sw_ems_trial, BENCH_D, BENCH_N};
use ldp_datasets::DatasetKind;
use ldp_metrics::wasserstein;
use ldp_sw::{optimal_b, SwPipeline, Wave};
use std::time::Duration;

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    group.bench_function("optimal_b_closed_form", |b| {
        b.iter(|| optimal_b(black_box(1.0)).unwrap())
    });

    let ds = bench_dataset(DatasetKind::Beta, BENCH_N);
    let truth = bench_truth(&ds, BENCH_D);
    for b_val in [0.05f64, 0.25] {
        group.bench_function(format!("ems_trial_b{b_val}"), |bch| {
            let wave = Wave::square(b_val, 1.0).unwrap();
            let pipeline = SwPipeline::with_wave(wave, BENCH_D, BENCH_D).unwrap();
            let mut seed = 400u64;
            bch.iter(|| {
                seed += 1;
                let est = sw_ems_trial(&pipeline, &ds.values, seed);
                wasserstein(&truth, &est).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
