//! Pool-backed execution invariants.
//!
//! Everything that fans out onto the shared `ldp-pool` worker pool —
//! `Aggregator::push_slice_sharded`, the experiment runner's
//! `parallel_jobs`, and the bootstrap — derives per-job state from **job
//! indices**, never from worker identity. These tests pin the
//! consequences:
//!
//! 1. results are bit-identical no matter how large the pool is (the CI
//!    matrix additionally runs the whole suite under
//!    `LDP_POOL_THREADS ∈ {1, 2}`, exercising the same assertions against
//!    differently-sized global pools);
//! 2. a panicking job surfaces as an `Err` and does not poison the global
//!    pool for subsequent calls.

use proptest::prelude::*;
use rand::Rng as _;
use sw_ldp::experiments::runner::parallel_jobs;
use sw_ldp::pool::Pool;
use sw_ldp::prelude::*;
use sw_ldp::sw::{bootstrap, BootstrapConfig};

/// Dedicated pools sized like the CI matrix: the global pool's size is
/// fixed per process, so cross-size determinism is asserted against
/// explicit instances.
const POOL_SIZES: [usize; 3] = [1, 2, 7];

#[test]
fn indexed_jobs_are_bit_identical_across_pool_sizes() {
    let reference: Vec<u64> = (0..257)
        .map(|i| {
            let mut rng = SplitMix64::new(0xFEED ^ i as u64);
            let mut acc = 0u64;
            for _ in 0..50 {
                acc = acc.wrapping_add(rng.gen_range(0..1 << 20));
            }
            acc
        })
        .collect();
    for threads in POOL_SIZES {
        let pool = Pool::new(threads);
        let out = pool
            .run(257, |i| {
                let mut rng = SplitMix64::new(0xFEED ^ i as u64);
                let mut acc = 0u64;
                for _ in 0..50 {
                    acc = acc.wrapping_add(rng.gen_range(0..1 << 20));
                }
                acc
            })
            .unwrap();
        assert_eq!(out, reference, "pool size {threads}");
    }
}

#[test]
fn parallel_jobs_results_do_not_depend_on_thread_cap() {
    let run = |threads: usize| {
        parallel_jobs(40, threads, |idx| {
            let mut rng = SplitMix64::new(1_000 + idx as u64);
            Ok(rng.gen_range(0..u64::MAX / 2) + idx as u64)
        })
        .unwrap()
    };
    let reference = run(1);
    for threads in [2, 7] {
        assert_eq!(run(threads), reference, "cap {threads}");
    }
}

#[test]
fn bootstrap_is_deterministic_for_a_fixed_rng_state() {
    let mech = SwMechanism::ems(1.0, 16).unwrap();
    let values: Vec<f64> = (0..6_000).map(|i| (i % 89) as f64 / 89.0).collect();
    let reports = Client::new(&mech)
        .randomize_batch(&values, &mut SplitMix64::new(5))
        .unwrap();
    let mut agg = Aggregator::new(&mech);
    agg.push_slice_sharded(&reports, 4).unwrap();
    let counts = agg.state().to_counts();
    let operator = mech.pipeline().operator();
    let run = || {
        let mut rng = SplitMix64::new(4242);
        bootstrap(operator, &counts, &BootstrapConfig::default(), &mut rng).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.lower, b.lower);
    assert_eq!(a.upper, b.upper);
    assert_eq!(a.mean_interval, b.mean_interval);
    assert_eq!(a.median_interval, b.median_interval);
    assert_eq!(a.replicates, b.replicates);
}

#[test]
fn panicking_job_errors_without_poisoning_the_global_pool() {
    // A panicking trial cancels the batch and reports an error...
    let r = parallel_jobs(24, 4, |idx| {
        assert!(idx != 13, "injected trial failure");
        Ok(idx)
    });
    assert!(r.is_err());
    // ...and the *same global pool* keeps serving every pool consumer.
    let ok = parallel_jobs(24, 4, |idx| Ok(idx * 2)).unwrap();
    assert_eq!(ok.len(), 24);
    let mech = SwMechanism::ems(1.0, 16).unwrap();
    let reports = Client::new(&mech)
        .randomize_batch(&[0.2; 512], &mut SplitMix64::new(9))
        .unwrap();
    let mut agg = Aggregator::new(&mech);
    agg.push_slice_sharded(&reports, 2).unwrap();
    assert_eq!(agg.count(), 512);
    let mut rng = SplitMix64::new(7);
    let counts = agg.state().to_counts();
    let operator = mech.pipeline().operator();
    assert!(bootstrap(operator, &counts, &BootstrapConfig::default(), &mut rng).is_ok());
}

// ---------------------------------------------------------------------------
// Pooled `absorb_slice` fan-out: every mechanism family
// ---------------------------------------------------------------------------

mod pooled_absorb {
    use super::POOL_SIZES;
    use sw_ldp::cfo::{Grr, Hrr, Olh, Oue};
    use sw_ldp::core_api::{Aggregator, Client, Mechanism};
    use sw_ldp::hierarchy::{HaarHrr, HierarchicalHistogram};
    use sw_ldp::mean::{Hybrid, Pm, Sr};
    use sw_ldp::numeric::SplitMix64;
    use sw_ldp::sw::SwMechanism;

    /// Randomizes `inputs` into wire reports under a fixed seed.
    fn reports_for<M: Mechanism>(mechanism: &M, inputs: &[M::Input], seed: u64) -> Vec<M::Report>
    where
        M::Input: Sized,
    {
        let client = Client::new(mechanism);
        let mut rng = SplitMix64::new(seed);
        inputs
            .iter()
            .map(|v| client.randomize(v, &mut rng).unwrap())
            .collect()
    }

    /// The pooled-fan-out contract for one family:
    ///
    /// 1. `push_slice_sharded` equals serial `push` for shard counts
    ///    {1, 2, 7} — raw state equality when `exact_state` (integer-count
    ///    states), bit-identical canonical estimates always;
    /// 2. independently pooled shard aggregators merged **out of index
    ///    order** through the fingerprint-checked `merge` still equal the
    ///    serial aggregator.
    ///
    /// The global pool behind the fan-out has whatever size
    /// `LDP_POOL_THREADS` gave it; the CI matrix re-runs this suite at 2
    /// and 4 workers.
    fn pooled_fanout_case<M, F>(
        label: &str,
        mechanism: M,
        reports: &[M::Report],
        canon: F,
        exact_state: bool,
    ) where
        M: Mechanism + Clone + Sync,
        M::Report: Sync,
        M::State: Send + PartialEq + std::fmt::Debug,
        F: Fn(&M::Output) -> Vec<f64>,
    {
        let mut serial = Aggregator::new(mechanism.clone());
        for r in reports {
            serial.push(r).unwrap();
        }
        let reference = canon(&serial.finalize().unwrap());
        for shards in POOL_SIZES {
            let mut pooled = Aggregator::new(mechanism.clone());
            pooled.push_slice_sharded(reports, shards).unwrap();
            assert_eq!(
                pooled.count(),
                serial.count(),
                "{label}: count ({shards} shards)"
            );
            if exact_state {
                assert_eq!(
                    pooled.state(),
                    serial.state(),
                    "{label}: raw state ({shards} shards)"
                );
            }
            let got = canon(&pooled.finalize().unwrap());
            assert_eq!(got.len(), reference.len(), "{label}: estimate length");
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{label}: estimate entry {i} ({shards} shards)"
                );
            }

            // Out-of-order fingerprint-checked shard merges: each shard is
            // itself pooled, then folded back in reverse index order.
            let chunk = reports.len().div_ceil(shards).max(1);
            let mut shard_aggs: Vec<Aggregator<M>> = reports
                .chunks(chunk)
                .map(|c| {
                    let mut a = Aggregator::new(mechanism.clone());
                    a.push_slice_sharded(c, 2).unwrap();
                    a
                })
                .collect();
            let mut merged = shard_aggs.pop().unwrap();
            for a in shard_aggs.iter().rev() {
                merged.merge(a).unwrap();
            }
            assert_eq!(merged.count(), serial.count(), "{label}: merged count");
            if exact_state {
                assert_eq!(
                    merged.state(),
                    serial.state(),
                    "{label}: out-of-order merged state ({shards} shards)"
                );
            }
            let got = canon(&merged.finalize().unwrap());
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{label}: merged estimate entry {i} ({shards} shards)"
                );
            }
        }
    }

    fn categorical(n: usize, d: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 13) % d).collect()
    }

    fn signed(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31) % 201) as f64 / 100.0 - 1.0)
            .collect()
    }

    #[test]
    fn cfo_families_pooled_fanout_matches_serial() {
        let grr = Grr::new(16, 1.0).unwrap();
        pooled_fanout_case(
            "GRR",
            grr.clone(),
            &reports_for(&grr, &categorical(2_001, 16), 601),
            Clone::clone,
            true,
        );
        let olh = Olh::new(32, 1.0).unwrap();
        pooled_fanout_case(
            "OLH",
            olh.clone(),
            &reports_for(&olh, &categorical(2_001, 32), 602),
            Clone::clone,
            true,
        );
        let oue = Oue::new(80, 1.0).unwrap();
        pooled_fanout_case(
            "OUE",
            oue.clone(),
            &reports_for(&oue, &categorical(2_001, 80), 603),
            Clone::clone,
            true,
        );
        let hrr = Hrr::new(20, 1.0).unwrap();
        pooled_fanout_case(
            "HRR",
            hrr.clone(),
            &reports_for(&hrr, &categorical(2_001, 20), 604),
            Clone::clone,
            true,
        );
    }

    #[test]
    fn mean_families_pooled_fanout_matches_serial() {
        let pm = Pm::new(1.0).unwrap();
        pooled_fanout_case(
            "PM",
            pm,
            &reports_for(&pm, &signed(2_001), 605),
            |m| vec![*m],
            false,
        );
        let sr = Sr::new(0.8).unwrap();
        pooled_fanout_case(
            "SR",
            sr,
            &reports_for(&sr, &signed(2_001), 606),
            |m| vec![*m],
            false,
        );
        let hybrid = Hybrid::new(2.0).unwrap();
        pooled_fanout_case(
            "Hybrid",
            hybrid,
            &reports_for(&hybrid, &signed(2_001), 607),
            |m| vec![*m],
            false,
        );
    }

    #[test]
    fn sw_pooled_fanout_matches_serial() {
        let sw = SwMechanism::ems(1.0, 32).unwrap();
        let inputs: Vec<f64> = (0..2_001).map(|i| (i % 173) as f64 / 173.0).collect();
        pooled_fanout_case(
            "SW-EMS",
            sw.clone(),
            &reports_for(&sw, &inputs, 608),
            |h| h.probs().to_vec(),
            true,
        );
    }

    #[test]
    fn hierarchy_families_pooled_fanout_matches_serial() {
        let hh = HierarchicalHistogram::new(4, 64, 1.0).unwrap();
        pooled_fanout_case(
            "HH",
            hh.clone(),
            &reports_for(&hh, &categorical(2_001, 64), 609),
            |raw| raw.tree.levels.concat(),
            true,
        );
        let haar = HaarHrr::new(32, 1.0).unwrap();
        pooled_fanout_case(
            "HaarHRR",
            haar.clone(),
            &reports_for(&haar, &categorical(2_001, 32), 610),
            Clone::clone,
            true,
        );
    }

    /// A pooled fan-out is all-or-nothing (one bad report anywhere leaves
    /// the aggregator untouched), and shard merges across configurations
    /// are refused by the fingerprint check.
    #[test]
    fn pooled_fanout_error_paths() {
        let grr = Grr::new(8, 1.0).unwrap();
        let mut agg = Aggregator::new(grr.clone());
        let mut reports = categorical(100, 8);
        reports[63] = 8; // outside the domain
        let err = agg.push_slice_sharded(&reports, 7).unwrap_err();
        assert!(err.to_string().contains("outside domain"), "{err}");
        assert!(agg.is_empty(), "failed pooled ingest must not mutate");
        assert!(agg.push_slice_sharded(&[1, 2, 3], 0).is_err(), "0 shards");

        let mut ok = Aggregator::new(grr);
        ok.push_slice_sharded(&categorical(100, 8), 3).unwrap();
        let other = Aggregator::new(Grr::new(8, 2.0).unwrap());
        assert!(
            ok.merge(&other).is_err(),
            "cross-configuration shard merge must be refused"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `parallel_jobs` output is a pure function of the job index for any
    /// cap, including caps exceeding the job count.
    #[test]
    fn parallel_jobs_pure_in_index(jobs in 0usize..60, cap in 1usize..10) {
        let out = parallel_jobs(jobs, cap, |idx| Ok(idx * idx)).unwrap();
        prop_assert_eq!(out, (0..jobs).map(|i| i * i).collect::<Vec<_>>());
    }
}
