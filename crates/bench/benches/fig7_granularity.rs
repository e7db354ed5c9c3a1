//! Figure 7 harness benchmark: full SW-EMS trials at increasing
//! bucketization granularities (the EM cost is O(d̃·d) per iteration, so
//! this is the scaling-sensitive axis).

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_dataset, sw_ems_trial, BENCH_N};
use ldp_datasets::DatasetKind;
use ldp_metrics::wasserstein;
use ldp_sw::SwPipeline;
use std::time::Duration;

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8));
    let ds = bench_dataset(DatasetKind::Taxi, BENCH_N);
    for d in [256usize, 512, 1024] {
        let truth = ds.histogram(d).unwrap();
        group.bench_function(format!("sw_ems_d{d}"), |b| {
            let pipeline = SwPipeline::new(1.0, d).unwrap();
            let mut seed = 500u64;
            b.iter(|| {
                seed += 1;
                let est = sw_ems_trial(&pipeline, &ds.values, seed);
                wasserstein(&truth, &est).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
