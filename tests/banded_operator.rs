//! Property tests: the structured `BandedBaselineOperator` is exactly
//! equivalent (to 1e-12) to the dense `transition_matrix` it encodes —
//! matvec, transposed matvec, and the EM reconstruction built on them —
//! across all three wave shapes, the bucket-count grid
//! `d, d̃ ∈ {1, 2, 7, 64, 257}`, and ε ∈ {0.1, 1, 4} — plus bitwise pins of
//! the operator's outputs at the served, wide-output, long-edge and
//! discrete shapes.

use proptest::prelude::*;
use sw_ldp::numeric::LinearOperator;
use sw_ldp::sw::em::reconstruct;
use sw_ldp::sw::{optimal_b, transition_matrix, BandedBaselineOperator, EmConfig, Wave, WaveShape};

const DIMS: [usize; 5] = [1, 2, 7, 64, 257];
const EPSILONS: [f64; 3] = [0.1, 1.0, 4.0];

fn shape_for(idx: usize) -> WaveShape {
    match idx {
        0 => WaveShape::Square,
        1 => WaveShape::Trapezoid { ratio: 0.4 },
        _ => WaveShape::Triangle,
    }
}

/// Normalizes a raw vector to unit sum so matvec outputs stay O(1) and an
/// absolute 1e-12 tolerance is meaningful at every granularity.
fn unit_sum(raw: &[f64], len: usize) -> Vec<f64> {
    let slice = &raw[..len];
    let s: f64 = slice.iter().sum();
    slice.iter().map(|x| x / s).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn banded_matches_dense_matvecs(
        shape_idx in 0usize..3,
        d_idx in 0usize..5,
        dt_idx in 0usize..5,
        eps_idx in 0usize..3,
        b in 0.05f64..0.6,
        x_raw in prop::collection::vec(0.01f64..1.0, 257),
        t_raw in prop::collection::vec(0.01f64..1.0, 257),
    ) {
        let (d, dt) = (DIMS[d_idx], DIMS[dt_idx]);
        let wave = Wave::new(shape_for(shape_idx), b, EPSILONS[eps_idx]).unwrap();
        let dense = transition_matrix(&wave, d, dt).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
        prop_assert_eq!(LinearOperator::rows(&op), dt);
        prop_assert_eq!(LinearOperator::cols(&op), d);

        let x = unit_sum(&x_raw, d);
        let yd = dense.matvec(&x).unwrap();
        let yo = LinearOperator::matvec(&op, &x).unwrap();
        for (j, (a, b)) in yd.iter().zip(&yo).enumerate() {
            prop_assert!((a - b).abs() < 1e-12,
                "matvec row {} of {:?} d={} dt={}: {} vs {}", j, wave.shape(), d, dt, a, b);
        }

        let t = unit_sum(&t_raw, dt);
        let yd = dense.matvec_transpose(&t).unwrap();
        let yo = LinearOperator::matvec_transpose(&op, &t).unwrap();
        for (i, (a, b)) in yd.iter().zip(&yo).enumerate() {
            prop_assert!((a - b).abs() < 1e-12,
                "transpose col {} of {:?} d={} dt={}: {} vs {}", i, wave.shape(), d, dt, a, b);
        }
    }

    #[test]
    fn banded_em_reconstruction_matches_dense(
        shape_idx in 0usize..3,
        eps_idx in 0usize..3,
        d_idx in 1usize..5, // EM needs at least 2 buckets of signal
        peak_bucket in 0.0f64..1.0,
    ) {
        let d = DIMS[d_idx];
        let wave = Wave::new(shape_for(shape_idx), 0.25, EPSILONS[eps_idx]).unwrap();
        let dense = transition_matrix(&wave, d, d).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        // Expected counts of a two-spike truth.
        let mut truth = vec![0.0; d];
        let hot = ((peak_bucket * d as f64) as usize).min(d - 1);
        truth[hot] = 0.7;
        truth[d - 1 - hot] += 0.3;
        let counts: Vec<f64> = dense
            .matvec(&truth)
            .unwrap()
            .iter()
            .map(|p| p * 1e5)
            .collect();
        let config = EmConfig {
            ll_threshold: 1e-6,
            max_iterations: 500,
            min_iterations: 2,
            smoothing: None,
        };
        let a = reconstruct(&dense, &counts, &config).unwrap();
        let b = reconstruct(&op, &counts, &config).unwrap();
        prop_assert_eq!(a.iterations, b.iterations);
        for (x, y) in a.histogram.probs().iter().zip(b.histogram.probs()) {
            prop_assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
        }
    }
}

/// Deterministic sweep of the full satellite grid for the square wave (the
/// shape the structured fast path targets), entrywise.
#[test]
fn square_grid_entrywise_equivalence() {
    for &d in &DIMS {
        for &dt in &DIMS {
            for &eps in &EPSILONS {
                let wave = Wave::square(0.25, eps).unwrap();
                let dense = transition_matrix(&wave, d, dt).unwrap();
                let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
                let materialized = op.to_dense();
                for j in 0..dt {
                    for i in 0..d {
                        let (a, b) = (dense.get(j, i), materialized.get(j, i));
                        assert!(
                            (a - b).abs() < 1e-12,
                            "d={d} dt={dt} eps={eps} entry ({j},{i}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

/// FNV-1a 64 over the bit patterns of `values`: a change in any output bit
/// changes the digest.
fn bits_digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A fixed, irregular, strictly positive vector of length `n`.
fn probe_vector(n: usize, mul: usize, add: usize, modulus: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * mul + add) % modulus) as f64 / modulus as f64 + 1e-3)
        .collect()
}

/// The operators whose outputs are pinned, by label.
fn pinned_operators() -> Vec<(&'static str, BandedBaselineOperator)> {
    let square = |eps: f64| {
        let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
        BandedBaselineOperator::from_wave(&wave, 1024, 1024).unwrap()
    };
    let shaped = |shape: WaveShape, b: f64, eps: f64, d: usize, dt: usize| {
        let wave = Wave::new(shape, b, eps).unwrap();
        BandedBaselineOperator::from_wave(&wave, d, dt).unwrap()
    };
    vec![
        ("square d=1024 eps=0.5", square(0.5)),
        ("square d=1024 eps=1", square(1.0)),
        ("square d=1024 eps=4", square(4.0)),
        ("square 16x24", shaped(WaveShape::Square, 0.25, 1.0, 16, 24)),
        (
            "trapezoid(0.5) 32x32",
            shaped(WaveShape::Trapezoid { ratio: 0.5 }, 0.25, 1.0, 32, 32),
        ),
        (
            "trapezoid(0.3) 48x56",
            shaped(WaveShape::Trapezoid { ratio: 0.3 }, 0.3, 1.2, 48, 56),
        ),
        (
            "triangle 48x56",
            shaped(WaveShape::Triangle, 0.3, 1.2, 48, 56),
        ),
        (
            "discrete d=64 b=3",
            BandedBaselineOperator::from_discrete(64, 3, 1.0).unwrap(),
        ),
    ]
}

/// `(label, matvec digest, matvec_transpose digest)`, recorded before the
/// band lines were regrouped into edge-length classes: a change in any
/// output bit of either product fails the pin.
const OPERATOR_OUTPUT_PINS: &[(&str, u64, u64)] = &[
    (
        "square d=1024 eps=0.5",
        0x17dbc6a29b865e58,
        0xe3060f8b62040360,
    ),
    (
        "square d=1024 eps=1",
        0x485d0e07f9e2f4dd,
        0x53073f4d4af1912a,
    ),
    (
        "square d=1024 eps=4",
        0x12c6838ac378e405,
        0xe3b220caf8198bbd,
    ),
    ("square 16x24", 0xa57663f88048f64d, 0xe74506be862dfe2c),
    (
        "trapezoid(0.5) 32x32",
        0x870b7e107d101b8f,
        0xdeebd3e61aa4e778,
    ),
    (
        "trapezoid(0.3) 48x56",
        0x2c6134953d6c1c94,
        0x0fe2e62ff65b80d4,
    ),
    ("triangle 48x56", 0x0753250228e43080, 0xa79af2a88fb7eee2),
    ("discrete d=64 b=3", 0x7dea8f8c7ea164e1, 0x9e0c2f78d64fa10c),
];

/// Every square-wave line at `d̃ = d` — the served and paper shapes — has
/// edge runs of at most 3 entries, so it lands in a fixed-length class.
#[test]
fn square_wave_lines_all_take_fixed_length_kernels() {
    for d in [64usize, 256, 1024] {
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
            assert_eq!(op.variable_length_lines(), 0, "d={d} eps={eps}");
        }
    }
    let discrete = BandedBaselineOperator::from_discrete(64, 3, 1.0).unwrap();
    assert_eq!(discrete.variable_length_lines(), 0);
    // Long-edge shapes fall back to runtime-length kernels.
    let wave = Wave::new(WaveShape::Triangle, 0.3, 1.2).unwrap();
    let op = BandedBaselineOperator::from_wave(&wave, 48, 56).unwrap();
    assert!(op.variable_length_lines() > 0);
}

#[test]
fn operator_outputs_match_golden_pins() {
    let actual: Vec<(&str, u64, u64)> = pinned_operators()
        .iter()
        .map(|(label, op)| {
            let x = probe_vector(LinearOperator::cols(op), 37, 11, 101);
            let t = probe_vector(LinearOperator::rows(op), 53, 3, 97);
            let y = LinearOperator::matvec(op, &x).unwrap();
            let z = LinearOperator::matvec_transpose(op, &t).unwrap();
            (*label, bits_digest(&y), bits_digest(&z))
        })
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(label, y, z)| format!("({label:?}, 0x{y:016x}, 0x{z:016x})"))
        .collect();
    assert!(
        actual.as_slice() == OPERATOR_OUTPUT_PINS,
        "operator output pins differ; actual:\n{}",
        rendered.join(",\n")
    );
}
