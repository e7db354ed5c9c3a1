//! Client-side randomizer throughput: how fast each LDP mechanism can
//! perturb reports. These are the per-user costs a deployment pays.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ldp_cfo::{Grr, Hrr, Olh, Oue};
use ldp_core::Mechanism;
use ldp_mean::{Pm, Sr};
use ldp_numeric::SplitMix64;
use ldp_sw::{DiscreteSw, ShardAggregator, SwMechanism};
use std::time::Duration;

fn bench_randomizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("randomize");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    let eps = 1.0;
    let sw = SwMechanism::ems(eps, 256).unwrap();
    group.bench_function("sw_continuous", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| sw.randomize(black_box(&0.37), &mut rng).unwrap())
    });

    let dsw = DiscreteSw::new(256, eps).unwrap();
    group.bench_function("sw_discrete", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| dsw.randomize(black_box(&97), &mut rng).unwrap())
    });

    let grr = Grr::new(256, eps).unwrap();
    group.bench_function("grr_d256", |b| {
        let mut rng = SplitMix64::new(3);
        b.iter(|| grr.randomize(black_box(&97), &mut rng).unwrap())
    });

    let olh = Olh::new(256, eps).unwrap();
    group.bench_function("olh_d256", |b| {
        let mut rng = SplitMix64::new(4);
        b.iter(|| olh.randomize(black_box(&97), &mut rng).unwrap())
    });

    let hrr = Hrr::new(256, eps).unwrap();
    group.bench_function("hrr_d256", |b| {
        let mut rng = SplitMix64::new(5);
        b.iter(|| hrr.randomize(black_box(&97), &mut rng).unwrap())
    });

    let oue = Oue::new(256, eps).unwrap();
    group.bench_function("oue_d256", |b| {
        let mut rng = SplitMix64::new(6);
        b.iter(|| oue.randomize(black_box(&97), &mut rng).unwrap())
    });

    let pm = Pm::new(eps).unwrap();
    group.bench_function("pm", |b| {
        let mut rng = SplitMix64::new(7);
        b.iter(|| pm.randomize(black_box(-0.3), &mut rng).unwrap())
    });

    let sr = Sr::new(eps).unwrap();
    group.bench_function("sr", |b| {
        let mut rng = SplitMix64::new(8);
        b.iter(|| sr.randomize(black_box(-0.3), &mut rng).unwrap())
    });

    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    let eps = 1.0;
    let n = 20_000;
    let d = 64;

    let olh = Olh::new(d, eps).unwrap();
    let mut rng = SplitMix64::new(9);
    let olh_reports: Vec<_> = (0..n)
        .map(|i| olh.randomize(&(i % d), &mut rng).unwrap())
        .collect();
    group.bench_function("olh_support_counting_n20k_d64", |b| {
        b.iter_batched(
            || olh_reports.clone(),
            |r| olh.aggregate(&r).unwrap(),
            BatchSize::LargeInput,
        )
    });

    let hrr = Hrr::new(d, eps).unwrap();
    let hrr_reports: Vec<_> = (0..n)
        .map(|i| hrr.randomize(&(i % d), &mut rng).unwrap())
        .collect();
    group.bench_function("hrr_fwht_n20k_d64", |b| {
        b.iter_batched(
            || hrr_reports.clone(),
            |r| hrr.aggregate(&r).unwrap(),
            BatchSize::LargeInput,
        )
    });

    let sw = SwMechanism::ems(eps, 256).unwrap();
    let sw_reports: Vec<f64> = (0..n)
        .map(|i| {
            sw.randomize(&((i % 1000) as f64 / 1000.0), &mut rng)
                .unwrap()
        })
        .collect();
    group.bench_function("sw_bucketize_n20k_d256", |b| {
        b.iter(|| {
            let mut agg = ShardAggregator::for_pipeline(sw.pipeline());
            agg.push_slice(black_box(&sw_reports)).unwrap();
            agg
        })
    });

    group.finish();
}

criterion_group!(benches, bench_randomizers, bench_aggregation);
criterion_main!(benches);
