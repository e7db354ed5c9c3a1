//! Wave-shape and bandwidth exploration (the paper's §5.2–5.3 analysis,
//! Figures 5 and 6, at example scale).
//!
//! Shows (1) that the square wave beats trapezoid and triangle shapes of
//! the same bandwidth, matching Theorem 5.3, and (2) that the closed-form
//! mutual-information bandwidth b* sits at (or near) the empirical optimum.
//!
//! ```sh
//! cargo run --release --example wave_shapes
//! ```

use sw_ldp::prelude::*;

fn main() {
    let epsilon = 1.0;
    let d = 256;
    let dataset = DatasetSpec {
        kind: DatasetKind::Beta,
        n: 100_000,
        seed: 31,
    }
    .generate();
    let truth = dataset.histogram(d).expect("non-empty dataset");

    // --- Shape comparison at fixed b (Figure 5) ---------------------------
    let b = optimal_b(epsilon).expect("valid epsilon");
    println!("shape comparison at eps = {epsilon}, b = {b:.3}:");
    let shapes: [(&str, WaveShape); 4] = [
        ("square", WaveShape::Square),
        ("trapezoid r=0.6", WaveShape::Trapezoid { ratio: 0.6 }),
        ("trapezoid r=0.2", WaveShape::Trapezoid { ratio: 0.2 }),
        ("triangle", WaveShape::Triangle),
    ];
    for (name, shape) in shapes {
        let wave = Wave::new(shape, b, epsilon).expect("valid wave");
        let q = wave.q();
        let est = ems_estimate(wave, d, &dataset.values, 37);
        println!(
            "  {name:<16} W1 = {:.5}  (q = {q:.4})",
            wasserstein(&truth, &est).unwrap(),
        );
    }

    // --- Bandwidth sweep for the square wave (Figure 6) -------------------
    println!("\nbandwidth sweep (square wave, eps = {epsilon}), b* = {b:.3}:");
    for bb in [0.05, 0.15, b, 0.35, 0.45] {
        let wave = Wave::square(bb, epsilon).expect("valid wave");
        let est = ems_estimate(wave, d, &dataset.values, 41);
        let marker = if (bb - b).abs() < 1e-9 {
            "  <-- b*"
        } else {
            ""
        };
        println!(
            "  b = {bb:.3}   W1 = {:.5}{marker}",
            wasserstein(&truth, &est).unwrap()
        );
    }
}

/// One EMS estimate through an explicit wave: every value randomized on
/// the `seed` stream, aggregated, and finalized.
fn ems_estimate(wave: Wave, d: usize, values: &[f64], seed: u64) -> Histogram {
    let pipeline = SwPipeline::with_wave(wave, d, d).expect("valid pipeline");
    let mechanism = SwMechanism::with_pipeline(pipeline, Reconstruction::Ems);
    let reports = Client::new(&mechanism)
        .randomize_batch(values, &mut SplitMix64::new(seed))
        .expect("values in [0, 1]");
    mechanism
        .aggregate(&reports)
        .expect("reconstruction succeeds")
}
