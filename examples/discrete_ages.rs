//! Discrete-domain collection: estimating an age distribution.
//!
//! Paper §5.4: when the attribute is already discrete (age in years), the
//! client can bucketize *before* randomizing — the discrete Square Wave
//! mechanism works directly on bucket indices with `p = eᵉ/((2b+1)eᵉ+d−1)`.
//! It plugs into the same `Client`/`Aggregator` split as every other
//! mechanism: the aggregator streams output-bucket counts and finalizes
//! with EMS.
//!
//! ```sh
//! cargo run --release --example discrete_ages
//! ```

use sw_ldp::prelude::*;

/// Synthesizes an age distribution over 0..=99: working-age bulge plus a
/// retirement shoulder.
fn synthesize_ages(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    use rand::Rng;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let age = if u < 0.22 {
                // Children and students, roughly uniform 0..25.
                rng.gen_range(0..25)
            } else if u < 0.80 {
                // Working-age bell around 40.
                let x: f64 = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>();
                (25.0 + (x / 3.0) * 40.0) as usize
            } else {
                // Retirees tapering to 99.
                65 + (rng.gen::<f64>().powf(1.5) * 34.0) as usize
            };
            age.min(99)
        })
        .collect()
}

fn main() {
    let d = 100; // ages 0..=99, one bucket per year
    let epsilon = 1.0;
    let n = 500_000;
    let mut rng = SplitMix64::new(61);
    let ages = synthesize_ages(n, &mut rng);

    // Ground truth for comparison.
    let mut truth_counts = vec![0u64; d];
    for &a in &ages {
        truth_counts[a] += 1;
    }
    let truth = Histogram::from_counts(&truth_counts).expect("non-empty population");

    // --- Client side: discrete SW on bucket indices -----------------------
    let sw = DiscreteSw::new(d, epsilon).expect("valid parameters");
    println!(
        "discrete SW over {d} ages: integer bandwidth b = {}, output domain {} buckets",
        sw.bandwidth(),
        sw.output_size()
    );
    let reports = Client::new(&sw)
        .randomize_batch(&ages, &mut rng)
        .expect("ages in domain");

    // --- Server side -------------------------------------------------------
    let mut aggregator = Aggregator::new(&sw);
    aggregator
        .push_slice(&reports)
        .expect("reports are in range");
    let est = aggregator.finalize().expect("reconstruction succeeds");

    println!(
        "\nW1 = {:.5}, KS = {:.5}",
        wasserstein(&truth, &est).unwrap(),
        ks_distance(&truth, &est).unwrap()
    );
    println!(
        "median age: true {:.1}, estimated {:.1}",
        truth.quantile(0.5) * 100.0,
        est.quantile(0.5) * 100.0
    );
    println!(
        "share under 18: true {:.3}, estimated {:.3}",
        truth.range_mass(0.0, 0.18),
        est.range_mass(0.0, 0.18)
    );
    println!(
        "share 65+:      true {:.3}, estimated {:.3}",
        truth.range_mass(0.65, 1.0),
        est.range_mass(0.65, 1.0)
    );

    // A coarse text rendering of the two distributions.
    println!("\nage decade | true vs estimated mass");
    for decade in 0..10 {
        let lo = decade as f64 / 10.0;
        let hi = lo + 0.1;
        let t = truth.range_mass(lo, hi);
        let e = est.range_mass(lo, hi);
        let bar = |m: f64| "#".repeat((m * 200.0) as usize);
        println!(
            "{:>2}0s  true {t:>6.3} {}\n      est  {e:>6.3} {}",
            decade,
            bar(t),
            bar(e)
        );
    }
}
