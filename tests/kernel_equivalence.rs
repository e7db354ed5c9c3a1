//! Kernel-equivalence differential suite: every vectorized / unrolled
//! kernel in `ldp_numeric::kernels`, the batched `SplitMix64` fills, and
//! `ExactSum::add_slice` are pinned **bit-for-bit** against their scalar
//! serial references, the OLH support walk (multiply-only residue test
//! over cached value mixes) is pinned against a reference loop over
//! `olh_hash`, each arm of the block randomizers' draw window (AVX-512,
//! AVX2, scalar) is pinned against serial `SplitMix64::next`, and each arm
//! of the SW banded operator's band-line kernel (dispatch, AVX-512) is
//! pinned against its scalar reference on synthetic classes of every
//! edge-length shape and on the classes of real operators.
//!
//! The suite sweeps domain sizes `d ∈ {1, 2, 7, 64, 257, 1024}`, every
//! lane-remainder length (0..=17 and beyond the 4-lane / 7-row block
//! boundaries), and hostile payloads: signed zeros, subnormals,
//! large-magnitude cancellation, NaN/infinity domain violations and stray
//! tail bits past the domain edge. Property tests run ≥ 20 randomized
//! cases on top of the deterministic sweeps.
//!
//! CI runs this suite twice — once with SIMD dispatch live and once under
//! `LDP_NO_SIMD=1` — so both sides of the runtime dispatch stay pinned.

use proptest::prelude::*;
use rand::Rng;
use sw_ldp::cfo::olh::{olh_hash, OlhReport};
use sw_ldp::cfo::{AdaptiveOracle, BinningEstimator, Olh, OracleKind};
use sw_ldp::core_api::{Aggregator, Client, Mechanism};
use sw_ldp::hierarchy::HierarchicalHistogram;
use sw_ldp::numeric::kernels::{self, BandLines, BandSweep, ResidueTest};
use sw_ldp::numeric::operator::running_sums_into;
use sw_ldp::numeric::{ExactSum, LinearOperator, SplitMix64};
use sw_ldp::sw::{optimal_b, BandedBaselineOperator, Wave};

/// Domain sizes crossing every dispatch boundary: single bucket, tiny,
/// sub-word, exactly one word, word + remainder, and multi-word large.
const D_SWEEP: [usize; 6] = [1, 2, 7, 64, 257, 1024];

/// Slice lengths covering every 4-lane and 7-row remainder class.
fn len_sweep() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=17).collect();
    lens.extend([28, 29, 63, 64, 65, 255, 1000]);
    lens
}

/// Hostile f64 payloads: signed zeros, subnormals, and magnitudes that
/// force catastrophic cancellation in naive summation.
fn hostile_values() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 4.0,
        1e16,
        -1e16,
        1.0,
        -1.0,
        1e-16,
        f64::MAX / 4.0,
        -f64::MAX / 4.0,
    ]
}

// ---------------------------------------------------------------------------
// dot4: SW band-edge dot product
// ---------------------------------------------------------------------------

#[test]
fn dot4_equals_scalar_at_every_remainder_length() {
    let mut rng = SplitMix64::new(9001);
    for n in len_sweep() {
        let a: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        assert_eq!(
            kernels::dot4(&a, &b).to_bits(),
            kernels::dot4_scalar(&a, &b).to_bits(),
            "dot4 diverged from scalar at n = {n}"
        );
    }
}

#[test]
fn dot4_equals_scalar_on_hostile_payloads() {
    let h = hostile_values();
    // Repeat the hostile set to push past the 8-element SIMD threshold and
    // land every value in every lane position.
    for reps in 1..=5 {
        let a: Vec<f64> = h.iter().cycle().take(h.len() * reps).copied().collect();
        let b: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(
            kernels::dot4(&a, &b).to_bits(),
            kernels::dot4_scalar(&a, &b).to_bits(),
            "dot4 diverged on hostile payloads (reps = {reps})"
        );
    }
}

// ---------------------------------------------------------------------------
// first_out_of_range: SW domain validation
// ---------------------------------------------------------------------------

#[test]
fn range_check_equals_scalar_for_every_violation_position() {
    // One violating value planted at every index of every remainder-class
    // length, for each kind of violation the SW aggregator must catch.
    let violations = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1.5];
    for n in len_sweep() {
        let base: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 96.0).collect();
        assert_eq!(
            kernels::first_out_of_range(&base, 0.0, 1.0),
            kernels::first_out_of_range_scalar(&base, 0.0, 1.0),
            "clean slice, n = {n}"
        );
        for &bad in &violations {
            for pos in 0..n {
                let mut v = base.clone();
                v[pos] = bad;
                let got = kernels::first_out_of_range(&v, 0.0, 1.0);
                let want = kernels::first_out_of_range_scalar(&v, 0.0, 1.0);
                assert_eq!(got, want, "n = {n}, bad = {bad}, pos = {pos}");
                assert_eq!(want, Some(pos));
            }
        }
    }
}

#[test]
fn range_check_boundary_values_are_inside() {
    for n in [1usize, 4, 5, 8, 13] {
        let lo_edge = vec![0.0; n];
        let hi_edge = vec![1.0; n];
        assert_eq!(kernels::first_out_of_range(&lo_edge, 0.0, 1.0), None);
        assert_eq!(kernels::first_out_of_range(&hi_edge, 0.0, 1.0), None);
        // -0.0 == 0.0 under IEEE comparison: inside on both paths.
        let neg_zero = vec![-0.0; n];
        assert_eq!(kernels::first_out_of_range(&neg_zero, 0.0, 1.0), None);
    }
}

// ---------------------------------------------------------------------------
// bucket_histogram: SW report absorption
// ---------------------------------------------------------------------------

#[test]
fn bucket_histogram_equals_scalar_across_domains_and_lengths() {
    let mut rng = SplitMix64::new(9002);
    for d in D_SWEEP {
        for n in len_sweep() {
            let vals: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1.5 - 0.25).collect();
            let mut simd = vec![0u64; d];
            let mut scalar = vec![0u64; d];
            kernels::bucket_histogram(&mut simd, &vals, -0.25, 1.25);
            kernels::bucket_histogram_scalar(&mut scalar, &vals, -0.25, 1.25);
            assert_eq!(simd, scalar, "d = {d}, n = {n}");
        }
    }
}

#[test]
fn bucket_histogram_pins_the_bucket_edges() {
    // Values sitting exactly on bucket boundaries exercise the
    // truncation-rounding agreement between `as isize` and `cvttpd`.
    for d in D_SWEEP {
        let edges: Vec<f64> = (0..=d).map(|i| i as f64 / d as f64).collect();
        let mut simd = vec![0u64; d];
        let mut scalar = vec![0u64; d];
        kernels::bucket_histogram(&mut simd, &edges, 0.0, 1.0);
        kernels::bucket_histogram_scalar(&mut scalar, &edges, 0.0, 1.0);
        assert_eq!(simd, scalar, "bucket edges, d = {d}");
        let total: u64 = simd.iter().sum();
        assert_eq!(total, edges.len() as u64, "every edge lands in a bucket");
    }
}

#[test]
fn bucket_histogram_accumulates_into_existing_counts() {
    let vals = [0.1, 0.9, 0.5, 0.5001, 0.25];
    let mut simd = vec![7u64; 8];
    let mut scalar = vec![7u64; 8];
    kernels::bucket_histogram(&mut simd, &vals, 0.0, 1.0);
    kernels::bucket_histogram_scalar(&mut scalar, &vals, 0.0, 1.0);
    assert_eq!(simd, scalar);
}

// ---------------------------------------------------------------------------
// bitcount_rows: OUE absorption (CSA-7 block kernel)
// ---------------------------------------------------------------------------

#[test]
fn bitcount_equals_scalar_across_domains_and_row_counts() {
    let mut rng = SplitMix64::new(9003);
    for d in D_SWEEP {
        let words = d.div_ceil(64);
        // 0..=17 rows covers every 7-row block remainder twice over.
        for n_rows in 0..=17 {
            let rows: Vec<Vec<u64>> = (0..n_rows)
                .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
                .collect();
            let mut blocked = vec![0u64; d];
            let mut reference = vec![0u64; d];
            kernels::bitcount_rows(&mut blocked, rows.iter().map(Vec::as_slice));
            kernels::bitcount_rows_scalar(&mut reference, rows.iter().map(Vec::as_slice));
            assert_eq!(blocked, reference, "d = {d}, rows = {n_rows}");
        }
    }
}

#[test]
fn bitcount_ignores_stray_bits_past_the_domain_edge() {
    // Hostile payload: every bit set, including positions >= d in the
    // final word. The blocked kernel's tail mask must match the scalar
    // reference's index guard exactly.
    for d in [1usize, 2, 7, 63, 65, 127, 257, 1023] {
        let words = d.div_ceil(64);
        let rows: Vec<Vec<u64>> = (0..9).map(|_| vec![!0u64; words]).collect();
        let mut blocked = vec![0u64; d];
        let mut reference = vec![0u64; d];
        kernels::bitcount_rows(&mut blocked, rows.iter().map(Vec::as_slice));
        kernels::bitcount_rows_scalar(&mut reference, rows.iter().map(Vec::as_slice));
        assert_eq!(blocked, reference, "d = {d}");
        assert!(blocked.iter().all(|&c| c == 9), "d = {d}");
    }
}

#[test]
fn bitcount_all_zero_rows_leave_counts_untouched() {
    let rows: Vec<Vec<u64>> = (0..14).map(|_| vec![0u64; 2]).collect();
    let mut counts = vec![3u64; 100];
    kernels::bitcount_rows(&mut counts, rows.iter().map(Vec::as_slice));
    assert!(counts.iter().all(|&c| c == 3));
}

// ---------------------------------------------------------------------------
// ExactSum::add_slice: bulk-add path of the mean/collector accumulators
// ---------------------------------------------------------------------------

#[test]
fn exact_sum_add_slice_equals_serial_adds_on_hostile_payloads() {
    // Cancellation-heavy sequence: large magnitudes that annihilate,
    // signed zeros, subnormals. add_slice must reproduce the serial-add
    // expansion representation exactly (not just the rendered value).
    let mut payload = hostile_values();
    payload.extend(hostile_values().iter().map(|v| -v));
    payload.extend((0..200).map(|i| (i as f64 - 100.0) * 1e12));
    payload.extend((0..200).map(|i| (100.0 - i as f64) * 1e12));

    for start_len in [0usize, 1, 5] {
        let mut serial = ExactSum::new();
        let mut bulk = ExactSum::new();
        for i in 0..start_len {
            serial.add(i as f64 * 0.1);
            bulk.add(i as f64 * 0.1);
        }
        for &x in &payload {
            serial.add(x);
        }
        bulk.add_slice(&payload);
        assert_eq!(
            serial.parts(),
            bulk.parts(),
            "expansion diverged (start_len = {start_len})"
        );
        assert_eq!(serial.value().to_bits(), bulk.value().to_bits());
    }
}

#[test]
fn exact_sum_add_slice_survives_expansion_overflow_spill() {
    // Geometrically spaced magnitudes force the expansion to grow past
    // the bulk path's stack buffer; the spill must hand off to serial
    // adds without losing a component.
    let wide: Vec<f64> = (0..900).map(|i| 2f64.powi(i % 120 - 60)).collect();
    let mut serial = ExactSum::new();
    let mut bulk = ExactSum::new();
    for &x in &wide {
        serial.add(x);
    }
    bulk.add_slice(&wide);
    assert_eq!(serial.parts(), bulk.parts());
}

// ---------------------------------------------------------------------------
// Batched SplitMix64 fills: draw-order compatibility + golden pins
// ---------------------------------------------------------------------------

#[test]
fn batched_rng_fills_are_draw_order_compatible_with_serial() {
    for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 17, 255] {
        let mut serial = SplitMix64::new(0xDEAD_BEEF ^ n as u64);
        let mut batched = serial.clone();

        let want: Vec<u64> = (0..n).map(|_| serial.next()).collect();
        let mut got = vec![0u64; n];
        batched.fill_u64(&mut got);
        assert_eq!(want, got, "fill_u64, n = {n}");
        // Post-fill state identical: the streams stay interchangeable.
        assert_eq!(serial.next(), batched.next(), "state after fill, n = {n}");
    }
}

#[test]
fn batched_rng_golden_vector_pin() {
    // Frozen outputs: any change to the SplitMix64 stream or the batched
    // fill order breaks draw-for-draw reproducibility of recorded
    // experiments and must be deliberate.
    let mut rng = SplitMix64::new(1234567);
    let mut out = [0u64; 3];
    rng.fill_u64(&mut out);
    assert_eq!(
        out,
        [
            6_457_827_717_110_365_317,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
        ]
    );
}

// ---------------------------------------------------------------------------
// Draw window: the block randomizers' SplitMix64 look-ahead fill
// ---------------------------------------------------------------------------

/// Window lengths covering every 4- and 8-lane remainder 0..=15 twice
/// over, plus one block-randomizer window.
fn window_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=33).collect();
    lens.extend([63, 64, 65, 2051]);
    lens
}

/// Seeds at the top of the state space, where the counter `state + i·γ`
/// wraps past `u64::MAX` in the first lanes, and ordinary ones.
const WINDOW_SEEDS: [u64; 5] = [0, 1, 0xDEAD_BEEF, u64::MAX - 1, u64::MAX];

/// Offsets into the stream at which a window starts: at the cursor and
/// after serial draws, across lane and block boundaries.
const WINDOW_OFFSETS: [usize; 6] = [0, 1, 7, 8, 9, 1000];

/// Runs `arm` against serial `next()`: for every seed, offset and length,
/// the window filled from the state `offset` draws in equals the next
/// draws of a generator advanced by `offset` serial calls, and filling
/// it leaves that generator untouched.
fn assert_draw_window_arm(label: &str, arm: impl Fn(u64, &mut [u64])) {
    for seed in WINDOW_SEEDS {
        for offset in WINDOW_OFFSETS {
            let mut serial = SplitMix64::new(seed);
            for _ in 0..offset {
                serial.next();
            }
            // The state after `offset` draws, wrapping like the counter.
            let state = seed.wrapping_add((offset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for len in window_lengths() {
                let mut ahead = serial.clone();
                let want: Vec<u64> = (0..len).map(|_| ahead.next()).collect();
                let mut got = vec![0u64; len];
                arm(state, &mut got);
                assert_eq!(
                    got, want,
                    "{label}: seed {seed:#x}, offset {offset}, len {len}"
                );
            }
        }
    }
}

#[test]
fn draw_window_scalar_reference_equals_serial_next() {
    assert_draw_window_arm("scalar", kernels::draw_window_scalar);
}

#[test]
fn draw_window_dispatch_equals_serial_next() {
    assert_draw_window_arm(kernels::widest_arm(), kernels::draw_window);
}

#[test]
fn draw_window_avx2_arm_equals_serial_next() {
    if !kernels::draw_window_avx2(0, &mut []) {
        eprintln!("skipped: no avx2 on this host");
        return;
    }
    assert_draw_window_arm("avx2", |state, out| {
        assert!(kernels::draw_window_avx2(state, out));
    });
}

#[test]
fn draw_window_avx512_arm_equals_serial_next() {
    if !kernels::draw_window_avx512(0, &mut []) {
        eprintln!("skipped: no avx512f/avx512dq on this host");
        return;
    }
    assert_draw_window_arm("avx512", |state, out| {
        assert!(kernels::draw_window_avx512(state, out));
    });
}

#[test]
fn draw_window_fills_do_not_advance_the_generator() {
    let mut rng = SplitMix64::new(42);
    let before = rng.clone();
    let mut out = vec![0u64; 100];
    kernels::draw_window(42, &mut out);
    assert_eq!(rng, before);
    assert_eq!(out[0], rng.next());
}

// ---------------------------------------------------------------------------
// Band lines: the SW banded operator's per-class kernel
// ---------------------------------------------------------------------------

/// A value for band-line inputs: a signed zero one time in five, else a
/// random sign and mantissa with a decimal exponent in −300..=300 or, half
/// the time, in −2..=2, where sums of a line's terms round and a change in
/// their order shows.
fn band_value(rng: &mut SplitMix64) -> f64 {
    let kind = rng.gen_range(0..5u32);
    if kind == 0 {
        return if rng.gen::<bool>() { 0.0 } else { -0.0 };
    }
    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    let exponent = if kind <= 2 {
        rng.gen_range(0..=4i32) - 2
    } else {
        rng.gen_range(0..=600i32) - 300
    };
    sign * (1.0 + rng.gen::<f64>()) * 10f64.powi(exponent)
}

/// `x`, its running sums, `plateau` and `base` for one band sweep.
struct SweepInput {
    x: Vec<f64>,
    prefix: Vec<f64>,
    plateau: f64,
    base: f64,
}

impl SweepInput {
    fn new(rng: &mut SplitMix64, len: usize) -> Self {
        let x: Vec<f64> = (0..len).map(|_| band_value(rng)).collect();
        let mut prefix = vec![0.0; len + 1];
        running_sums_into(&x, &mut prefix);
        SweepInput {
            x,
            prefix,
            plateau: band_value(rng),
            base: band_value(rng),
        }
    }

    fn sweep(&self) -> BandSweep<'_> {
        BandSweep {
            x: &self.x,
            prefix: &self.prefix,
            plateau: self.plateau,
            base: self.base,
        }
    }
}

/// Runs `arm` and the scalar reference on `lines` into copies of one
/// output vector and asserts every entry equal bit for bit, the entries no
/// line writes included.
fn assert_band_lines_equal(
    label: &str,
    arm: &impl Fn(&BandLines, &BandSweep, &mut [f64]),
    lines: &BandLines,
    input: &SweepInput,
    y_len: usize,
) {
    let sentinel: Vec<f64> = (0..y_len).map(|j| -(j as f64) - 0.25).collect();
    let (mut want, mut got) = (sentinel.clone(), sentinel);
    kernels::band_lines_scalar(lines, &input.sweep(), &mut want);
    arm(lines, &input.sweep(), &mut got);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&got), bits(&want), "{label}");
}

/// Edge-length classes of the synthetic sweep: every `head, tail ≤ 3`
/// class (fixed trip counts) and a few longer ones (run-time lengths).
fn band_classes() -> Vec<(usize, usize)> {
    let mut classes: Vec<(usize, usize)> = (0..=3)
        .flat_map(|head| (0..=3).map(move |tail| (head, tail)))
        .collect();
    classes.extend([(4, 1), (0, 5), (7, 7)]);
    classes
}

/// Synthetic classes: each class of [`band_classes`] with 0–17 lines
/// (every 8-lane remainder), lines placed at random in a 48-entry `x` (up
/// to its last entry), distinct outputs in random order, and in a second
/// pass outputs with repeats, where the later line's value must win.
fn assert_band_arm_on_synthetic_classes(
    label: &str,
    arm: impl Fn(&BandLines, &BandSweep, &mut [f64]),
) {
    let mut rng = SplitMix64::new(0xBA4D);
    let x_len = 48;
    for (head, tail) in band_classes() {
        let width = head + tail;
        for n in 0..=17usize {
            for repeats in [false, true] {
                let input = SweepInput::new(&mut rng, x_len);
                let y_len = n + 5;
                let mut outs: Vec<u32> = (0..y_len as u32).collect();
                for k in (1..outs.len()).rev() {
                    outs.swap(k, rng.gen_range(0..=k));
                }
                let mut out: Vec<u32> = outs[..n].to_vec();
                if repeats {
                    for o in &mut out {
                        *o %= 3;
                    }
                }
                let (mut start, mut run) = (Vec::new(), Vec::new());
                for k in 0..n {
                    let room = x_len - width;
                    // The first line of each case reaches the last entry.
                    let r = if k == 0 {
                        room / 2
                    } else {
                        rng.gen_range(0..=room)
                    };
                    let s = if k == 0 {
                        room - r
                    } else {
                        rng.gen_range(0..=room - r)
                    };
                    start.push(s as u32);
                    run.push(r as u32);
                }
                let edges: Vec<f64> = (0..BandLines::edge_len(n, width))
                    .map(|_| band_value(&mut rng))
                    .collect();
                let lines = BandLines {
                    head,
                    tail,
                    out: &out,
                    start: &start,
                    run: &run,
                    edges: &edges,
                };
                let case = format!("{label}: class ({head}, {tail}), {n} lines, repeats {repeats}");
                assert_band_lines_equal(&case, &arm, &lines, &input, y_len);
            }
        }
    }
}

/// The operators whose real classes the arms run: square waves at the
/// paper's granularities, an odd one and a non-power-of-two one, two
/// non-square grids, and the discrete operator.
fn band_operators() -> Vec<(String, BandedBaselineOperator)> {
    let mut ops = Vec::new();
    for d in [16usize, 64, 256, 1000, 1024] {
        for eps in [0.5, 1.0, 4.0] {
            let wave = Wave::square(optimal_b(eps).unwrap(), eps).unwrap();
            let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
            ops.push((format!("square d={d} eps={eps}"), op));
        }
    }
    for (d, dt, b, eps) in [(24usize, 16usize, 0.25, 1.0), (33, 47, 0.18, 2.0)] {
        let wave = Wave::square(b, eps).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, dt).unwrap();
        ops.push((format!("square {d}x{dt}"), op));
    }
    let discrete = BandedBaselineOperator::from_discrete(64, 3, 1.0).unwrap();
    ops.push(("discrete d=64 b=3".to_string(), discrete));
    ops
}

/// Every band-line class of every [`band_operators`] operator, both
/// sweeps, on inputs with zeros and magnitudes 1e-300…1e300.
fn assert_band_arm_on_operator_classes(
    label: &str,
    arm: impl Fn(&BandLines, &BandSweep, &mut [f64]),
) {
    let mut rng = SplitMix64::new(0x0BE7);
    for (name, op) in band_operators() {
        for transposed in [false, true] {
            let (x_len, y_len) = if transposed {
                (op.rows(), op.cols())
            } else {
                (op.cols(), op.rows())
            };
            let mut classes = 0;
            for lines in op.band_line_classes(transposed) {
                let input = SweepInput::new(&mut rng, x_len);
                let case = format!(
                    "{label}: {name}, transposed {transposed}, class ({}, {}) of {} lines",
                    lines.head,
                    lines.tail,
                    lines.out.len()
                );
                assert_band_lines_equal(&case, &arm, &lines, &input, y_len);
                classes += 1;
            }
            assert!(classes > 0, "{name}: no band-line classes");
        }
    }
}

#[test]
fn band_lines_dispatch_equals_scalar_on_every_class_shape() {
    assert_band_arm_on_synthetic_classes(kernels::widest_arm(), kernels::band_lines);
}

#[test]
fn band_lines_dispatch_equals_scalar_on_operator_classes() {
    assert_band_arm_on_operator_classes(kernels::widest_arm(), kernels::band_lines);
}

/// The AVX-512 entry point as an arm, or `None` (after saying so) when the
/// host lacks AVX-512F.
fn band_avx512_arm() -> Option<impl Fn(&BandLines, &BandSweep, &mut [f64])> {
    let empty = BandLines {
        head: 0,
        tail: 0,
        out: &[],
        start: &[],
        run: &[],
        edges: &[],
    };
    let sweep = BandSweep {
        x: &[],
        prefix: &[0.0],
        plateau: 0.0,
        base: 0.0,
    };
    if !kernels::band_lines_avx512(&empty, &sweep, &mut []) {
        eprintln!("skipped: no avx512f on this host");
        return None;
    }
    Some(|lines: &BandLines, sweep: &BandSweep, y: &mut [f64]| {
        assert!(kernels::band_lines_avx512(lines, sweep, y));
    })
}

#[test]
fn band_lines_avx512_arm_equals_scalar_on_every_class_shape() {
    if let Some(arm) = band_avx512_arm() {
        assert_band_arm_on_synthetic_classes("avx512", arm);
    }
}

#[test]
fn band_lines_avx512_arm_equals_scalar_on_operator_classes() {
    if let Some(arm) = band_avx512_arm() {
        assert_band_arm_on_operator_classes("avx512", arm);
    }
}

#[test]
fn band_lines_reject_lines_past_their_inputs() {
    let input = SweepInput::new(&mut SplitMix64::new(3), 8);
    let edges = vec![1.0; BandLines::edge_len(1, 2)];
    // One line of head 1, run 6, tail 1 from index 1 reaches x[8].
    let lines = BandLines {
        head: 1,
        tail: 1,
        out: &[0],
        start: &[1],
        run: &[6],
        edges: &edges,
    };
    let mut y = [0.0; 4];
    let past_x =
        std::panic::catch_unwind(|| kernels::band_lines(&lines, &input.sweep(), &mut y.clone()));
    assert!(past_x.is_err(), "a line past x must panic");
    let lines = BandLines {
        start: &[0],
        out: &[4],
        ..lines
    };
    let past_y =
        std::panic::catch_unwind(|| kernels::band_lines(&lines, &input.sweep(), &mut y.clone()));
    assert!(past_y.is_err(), "a line past y must panic");
    let lines = BandLines { out: &[3], ..lines };
    kernels::band_lines(&lines, &input.sweep(), &mut y);
    let short = BandLines {
        edges: &edges[..8],
        ..lines
    };
    let bad_edges =
        std::panic::catch_unwind(|| kernels::band_lines(&short, &input.sweep(), &mut y.clone()));
    assert!(bad_edges.is_err(), "an unpadded edge block must panic");
    // A head so long that 8 lines of it overflow `usize`: the edge count
    // must not wrap into a match with an empty edge array.
    let huge = BandLines {
        head: 1 << (usize::BITS - 3),
        tail: 0,
        edges: &[],
        ..lines
    };
    let wrapped =
        std::panic::catch_unwind(|| kernels::band_lines(&huge, &input.sweep(), &mut y.clone()));
    assert!(wrapped.is_err(), "an edge count that wraps must panic");
}

// ---------------------------------------------------------------------------
// OLH support walk: multiply-only residue test over cached value mixes
// ---------------------------------------------------------------------------

/// Numerators at the edges of the residue test: zero, either side of `g`,
/// and the top of the u64 range.
fn remainder_edges(g: u64) -> [u64; 5] {
    [0, g - 1, g, u64::MAX - 1, u64::MAX]
}

/// Residues to probe under modulus `g`: every one for `g ≤ 64`, else both
/// ends and the middle.
fn probe_residues(g: u64) -> Vec<u64> {
    if g <= 64 {
        (0..g).collect()
    } else {
        vec![0, 1, g / 2, g - 2, g - 1]
    }
}

#[test]
fn residue_test_equals_modulo_at_the_edges() {
    let near_u32_max = (u64::from(u32::MAX) - 8)..=u64::from(u32::MAX);
    let wide = [1 << 32, 1 << 63, (1 << 63) + 1, u64::MAX];
    for g in (2..=64).chain(near_u32_max).chain(wide) {
        let test = ResidueTest::new(g);
        for y in probe_residues(g) {
            // x ∈ {y − 1, y, g + y} straddles the x ≥ y guard and the
            // first wrap of the residue.
            let near = [y.checked_sub(1), Some(y), g.checked_add(y)];
            for x in remainder_edges(g)
                .into_iter()
                .chain(near.into_iter().flatten())
            {
                assert_eq!(test.hit(x, y), x % g == y, "x = {x}, y = {y}, g = {g}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "residue test modulo 1")]
fn residue_test_rejects_a_modulus_below_two() {
    let _ = ResidueTest::new(1);
}

/// Support counts by the definition over values `0..len`: `support[v]`
/// counts `olh_hash(seed, v, g) == y`.
fn hash_support(len: usize, g: u64, seed: u64, y: u64) -> Vec<u64> {
    (0..len)
        .map(|v| u64::from(u64::from(olh_hash(seed, v, g as usize)) == y))
        .collect()
}

#[test]
fn olh_support_equals_scalar_at_every_lane_remainder() {
    let mut rng = SplitMix64::new(0x01E);
    for g in [2, 3, 4, 5, 8, 12, 13, 1 << 31, u64::from(u32::MAX)] {
        let residue = ResidueTest::new(g);
        // 0..=33 lands every 4- and 8-lane remainder, several times over.
        for len in 0..=33usize {
            let mixes: Vec<u64> = (0..len as u64).map(sw_ldp::numeric::rng::mix64).collect();
            for _ in 0..6 {
                let (seed, y) = (rng.gen::<u64>(), rng.gen_range(0..g));
                let mut fast = vec![0u64; len];
                let mut scalar = vec![0u64; len];
                kernels::olh_support(&mut fast, &mixes, seed, y, residue);
                kernels::olh_support_scalar(&mut scalar, &mixes, seed, y, residue);
                assert_eq!(fast, scalar, "len = {len}, g = {g}, seed = {seed}, y = {y}");
                assert_eq!(
                    scalar,
                    hash_support(len, g, seed, y),
                    "len = {len}, g = {g}"
                );
            }
        }
    }
}

/// Per-value support counts by the definition: report `(seed, y)` supports
/// `v` iff `olh_hash(seed, v, g) == y`.
fn reference_support(d: usize, g: usize, reports: &[OlhReport]) -> Vec<u64> {
    let mut support = vec![0u64; d];
    for r in reports {
        for (v, s) in support.iter_mut().enumerate() {
            if olh_hash(r.seed, v, g) == r.y {
                *s += 1;
            }
        }
    }
    support
}

#[test]
fn olh_support_walk_equals_the_hash_reference() {
    // d = 1 is not a valid domain; 2..=17 lands every 4- and 8-lane
    // remainder.
    assert!(Olh::with_hash_range(1, 1.0, 2).is_err());
    let mut rng = SplitMix64::new(0x01F);
    for d in (2..=17).chain([256]) {
        for g in 2..=13 {
            let olh = Olh::with_hash_range(d, 1.0, g).unwrap();
            let reports: Vec<_> = (0..64)
                .map(|i| Mechanism::randomize(&olh, &(i % d), &mut rng).unwrap())
                .collect();
            let mut state = olh.empty_state();
            for r in &reports {
                olh.absorb(&mut state, r).unwrap();
            }
            assert_eq!(
                state.support(),
                reference_support(d, g, &reports),
                "d = {d}, g = {g}"
            );
        }
    }
}

/// Pushes `inputs` through `mech` report by report and as one slice, and
/// returns both final states.
fn push_vs_push_slice<M>(mech: &M, inputs: &[M::Input]) -> (M::State, M::State)
where
    M: Mechanism,
    M::Input: Sized,
{
    let client = Client::new(mech);
    let mut rng = SplitMix64::new(0xA11);
    let reports: Vec<M::Report> = inputs
        .iter()
        .map(|x| client.randomize(x, &mut rng).unwrap())
        .collect();
    let mut one = Aggregator::new(mech);
    for r in &reports {
        one.push(r).unwrap();
    }
    let mut bulk = Aggregator::new(mech);
    bulk.push_slice(&reports).unwrap();
    (one.into_parts().1, bulk.into_parts().1)
}

#[test]
fn olh_consumers_push_equals_push_slice() {
    let values: Vec<usize> = (0..1_500).map(|i| (i * 37) % 256).collect();

    let adaptive = AdaptiveOracle::new(256, 1.5).unwrap();
    assert_eq!(adaptive.kind(), OracleKind::Olh);
    let (one, bulk) = push_vs_push_slice(&adaptive, &values);
    assert_eq!(one, bulk, "adaptive");

    let binning = BinningEstimator::new(64, 256, 1.5).unwrap();
    assert_eq!(binning.oracle_kind(), OracleKind::Olh);
    let points: Vec<f64> = values.iter().map(|&v| v as f64 / 256.0).collect();
    let (one, bulk) = push_vs_push_slice(&binning, &points);
    assert_eq!(one, bulk, "cfo-binning");

    let hh = HierarchicalHistogram::new(4, 256, 2.5).unwrap();
    let (one, bulk) = push_vs_push_slice(&hh, &values);
    assert_eq!(one, bulk, "hh");
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

#[test]
fn no_simd_env_forces_the_scalar_path() {
    // The flag is process-wide and cached; under LDP_NO_SIMD=1 the CI
    // lane asserts the dispatch actually turned off.
    let forced_off = std::env::var(kernels::NO_SIMD_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced_off {
        assert!(!kernels::simd_enabled(), "LDP_NO_SIMD=1 must disable SIMD");
    }
    assert_eq!(kernels::simd_enabled(), kernels::simd_enabled());
}

// ---------------------------------------------------------------------------
// Property tests: ≥ 20 randomized cases per kernel
// ---------------------------------------------------------------------------

/// Mixed hostile/ordinary f64 payload derived from a proptest-drawn seed:
/// mostly ordinary magnitudes, with signed zeros, subnormals, and large
/// cancellation-prone values sprinkled in.
fn hostile_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 8.0,
            3 => -f64::MIN_POSITIVE / 8.0,
            4 | 5 => (rng.gen::<f64>() - 0.5) * 2e16,
            _ => rng.gen::<f64>() * 2.0 - 1.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_residue_test_equals_modulo(
        x in 0u64..=u64::MAX,
        y in 0u64..=u64::MAX,
        g_hash in 2u64..=u64::from(u32::MAX),
        g_small in 2u64..=64,
        g_any in 2u64..=u64::MAX,
    ) {
        for g in [g_hash, g_small, g_any] {
            let test = ResidueTest::new(g);
            for y in [y, y % g, x % g] {
                prop_assert_eq!(test.hit(x, y), x % g == y);
            }
        }
    }

    #[test]
    fn prop_dot4_bit_identical(seed in 0u64..u64::MAX, n in 0usize..80) {
        let a = hostile_vec(seed, n);
        let b = hostile_vec(seed ^ 0x5555_5555, n);
        prop_assert_eq!(
            kernels::dot4(&a, &b).to_bits(),
            kernels::dot4_scalar(&a, &b).to_bits()
        );
    }

    #[test]
    fn prop_range_check_bit_identical(seed in 0u64..u64::MAX, n in 0usize..64) {
        let mut rng = SplitMix64::new(seed);
        let values: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..9u32) {
                0 => f64::NAN,
                1 => -0.5,
                2 => 1.5,
                _ => rng.gen::<f64>(),
            })
            .collect();
        prop_assert_eq!(
            kernels::first_out_of_range(&values, 0.0, 1.0),
            kernels::first_out_of_range_scalar(&values, 0.0, 1.0)
        );
    }

    #[test]
    fn prop_bucket_histogram_bit_identical(
        seed in 0u64..u64::MAX,
        n in 0usize..96,
        d in 1usize..300,
    ) {
        let mut rng = SplitMix64::new(seed);
        let values: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mut simd = vec![0u64; d];
        let mut scalar = vec![0u64; d];
        kernels::bucket_histogram(&mut simd, &values, 0.0, 1.0);
        kernels::bucket_histogram_scalar(&mut scalar, &values, 0.0, 1.0);
        prop_assert_eq!(simd, scalar);
    }

    #[test]
    fn prop_bitcount_bit_identical(
        seed in 0u64..u64::MAX,
        d in 1usize..300,
        n_rows in 0usize..23,
    ) {
        let words = d.div_ceil(64);
        let mut rng = SplitMix64::new(seed);
        let rows: Vec<Vec<u64>> = (0..n_rows)
            .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
            .collect();
        let mut blocked = vec![0u64; d];
        let mut reference = vec![0u64; d];
        kernels::bitcount_rows(&mut blocked, rows.iter().map(Vec::as_slice));
        kernels::bitcount_rows_scalar(&mut reference, rows.iter().map(Vec::as_slice));
        prop_assert_eq!(blocked, reference);
    }

    #[test]
    fn prop_exact_sum_add_slice_bit_identical(seed in 0u64..u64::MAX, n in 0usize..200) {
        let values = hostile_vec(seed, n);
        let mut serial = ExactSum::new();
        let mut bulk = ExactSum::new();
        for &x in &values {
            serial.add(x);
        }
        bulk.add_slice(&values);
        prop_assert_eq!(serial.parts(), bulk.parts());
    }

    #[test]
    fn prop_batched_rng_matches_serial_stream(seed in 0u64..u64::MAX, n in 0usize..130) {
        let mut serial = SplitMix64::new(seed);
        let mut batched = serial.clone();
        let want: Vec<u64> = (0..n).map(|_| serial.next()).collect();
        let mut got = vec![0u64; n];
        batched.fill_u64(&mut got);
        prop_assert_eq!(want, got);
        prop_assert_eq!(serial.next(), batched.next());
    }
}
