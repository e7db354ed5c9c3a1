//! Deterministic, splittable random number generation.
//!
//! Experiments in this workspace must be exactly reproducible from a single
//! seed even when trials run on different threads. [`SplitMix64`] is a tiny,
//! statistically solid generator (Steele, Lea & Flood, OOPSLA 2014) whose
//! state is a single `u64`, which makes deriving independent per-trial
//! streams trivial via [`SplitMix64::split`].

use rand::{Error, RngCore, SeedableRng};

/// Draws per window of [`SplitMix64::walk_reports`]: the window's draws
/// and step table (about 18 KiB) stay in L1.
const WALK_WINDOW: usize = 2048;

/// `2⁵³`: `gen::<f64>()` is the top 53 bits of a raw draw times `2⁻⁵³`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of the coin `rng.gen::<f64>() < p`: for a raw draw
/// `u`, `gen::<f64>()` returns `k·2⁻⁵³` with `k = u >> 11`, exactly, so
/// the coin is `k < p·2⁵³`, which for an integer `k` is
/// `k < unit_threshold(p) = ⌈p·2⁵³⌉` (clamped to `[0, 2⁵³]`; a NaN `p`
/// never lands, as the float compare never does). Scaling by `2⁵³` is
/// exact, so the two compares agree on every draw.
#[must_use]
pub fn unit_threshold(p: f64) -> u64 {
    let scaled = p * UNIT_SCALE;
    if !(scaled > 0.0) {
        0
    } else if scaled >= UNIT_SCALE {
        1 << 53
    } else {
        scaled.ceil() as u64
    }
}

/// `gen::<f64>()` of one raw draw: its top 53 bits times `2⁻⁵³`.
#[inline]
#[must_use]
pub fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / UNIT_SCALE)
}

/// The SplitMix64 state increment (Weyl constant).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The finalizer's xor-shift amounts, in order. Shared with the vector
/// lanes of [`crate::kernels::olh_support`], which replay [`mix64`].
pub(crate) const FINALIZE_SHIFTS: [u32; 3] = [30, 27, 31];

/// The finalizer's two multipliers, in order.
pub(crate) const FINALIZE_MULS: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// The 64-bit finalizer alone (no Weyl increment): the output function
/// applied to each advanced state.
#[inline]
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> FINALIZE_SHIFTS[0])).wrapping_mul(FINALIZE_MULS[0]);
    z = (z ^ (z >> FINALIZE_SHIFTS[1])).wrapping_mul(FINALIZE_MULS[1]);
    z ^ (z >> FINALIZE_SHIFTS[2])
}

/// The 64-bit finalizer from SplitMix64 / MurmurHash3.
///
/// Also used across the workspace as a cheap integer mixer (e.g. the OLH
/// hash family seeds).
#[inline]
pub fn mix64(z: u64) -> u64 {
    finalize(z.wrapping_add(GAMMA))
}

/// A SplitMix64 pseudo-random generator.
///
/// Not cryptographically secure — the workspace uses it for *simulation* of
/// LDP randomizers, where speed and reproducibility matter. A production
/// client deployment would swap in a CSPRNG via the `rand::Rng` bounds used
/// throughout the public APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent generator for a labelled substream.
    ///
    /// `split(a) != split(b)` streams are statistically independent for
    /// `a != b`; used to give each (trial, method) pair its own stream.
    #[must_use]
    pub fn split(&self, stream: u64) -> Self {
        SplitMix64 {
            state: mix64(self.state ^ mix64(stream)),
        }
    }

    /// Returns the next raw 64-bit output.
    // The name mirrors the canonical SplitMix64 reference implementation;
    // this type is not an Iterator.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Fills `out` with raw 64-bit outputs, **draw-order-compatible** with
    /// the serial path: `out[i]` equals the `i`-th sequential
    /// [`SplitMix64::next`] call, and the generator is left in the state
    /// those calls would leave it in. SplitMix64 is counter-based — output
    /// `i` is `finalize(state + (i + 1)·GAMMA)` — so the batch fill runs a
    /// 4-lane independent unroll with no serial dependency between lanes.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let base = self.state;
        let mut blocks = out.chunks_exact_mut(4);
        let mut i: u64 = 0;
        for b in &mut blocks {
            b[0] = finalize(base.wrapping_add((i + 1).wrapping_mul(GAMMA)));
            b[1] = finalize(base.wrapping_add((i + 2).wrapping_mul(GAMMA)));
            b[2] = finalize(base.wrapping_add((i + 3).wrapping_mul(GAMMA)));
            b[3] = finalize(base.wrapping_add((i + 4).wrapping_mul(GAMMA)));
            i += 4;
        }
        for o in blocks.into_remainder() {
            i += 1;
            *o = finalize(base.wrapping_add(i.wrapping_mul(GAMMA)));
        }
        self.state = base.wrapping_add((out.len() as u64).wrapping_mul(GAMMA));
    }
}

/// Block randomization over the counter-based stream.
impl SplitMix64 {
    /// `rng` as a `SplitMix64` the block randomizers may walk: `Some` when
    /// `rng` is one (seen through [`RngCore::as_any_mut`]) and the draw
    /// window has a vector arm ([`crate::kernels::simd_enabled`]). Under
    /// `LDP_NO_SIMD=1`, without AVX2, or on any other generator the
    /// callers keep the serial per-report loop, so the forced-scalar
    /// configuration runs the reference semantics.
    pub fn block_stream<R: RngCore + ?Sized>(rng: &mut R) -> Option<&mut SplitMix64> {
        if !crate::kernels::simd_enabled() {
            return None;
        }
        rng.as_any_mut()?.downcast_mut()
    }

    /// Draws `reports` reports' randomness in windows, bit-identically to
    /// randomizing them one by one on this generator, and leaves the
    /// generator where that serial loop would.
    ///
    /// Each report consumes between one and `max_draws` draws, and how
    /// many is a function of the draws themselves. Per window:
    ///
    /// 1. [`crate::kernels::draw_window`] fills the next draws ahead of
    ///    the cursor (the window plus `max_draws` of look-ahead), without
    ///    advancing the generator;
    /// 2. `fill_steps(draws, steps)` writes, for every position `j` of the
    ///    window, the draws a report starting at `j` consumes (in
    ///    `1..=max_draws`), with no data-dependent branch;
    /// 3. the walk visits each report's first draw: `emit(draws, steps,
    ///    index)` turns report `index` of the block into its output from
    ///    `draws` (its own draws first; it reads only `draws[..max_draws]`)
    ///    and returns the draws the report consumed, so the walk costs one
    ///    add per report. A table walk returns its `steps` entry. A
    ///    randomizer whose step count costs as much as the report itself
    ///    (HH, whose level draw picks the oracle) leaves `fill_steps`
    ///    empty and returns the count it computes.
    ///
    /// The walk is a chain of dependent loads, and the emits hang off it
    /// independently, so the two overlap. The generator then advances by
    /// exactly the draws consumed.
    ///
    /// # Panics
    /// Panics if `max_draws` is 0 or above 255.
    pub fn walk_reports<S, E>(
        &mut self,
        reports: usize,
        max_draws: usize,
        mut fill_steps: S,
        mut emit: E,
    ) where
        S: FnMut(&[u64], &mut [u8]),
        E: FnMut(&[u64], u8, usize) -> usize,
    {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&max_draws),
            "walk_reports: {max_draws} draws per report"
        );
        let window = WALK_WINDOW.min(reports.saturating_mul(max_draws));
        let mut draws = vec![0u64; window + max_draws];
        let mut steps = vec![0u8; window];
        let mut done = 0;
        while done < reports {
            let span = window.min((reports - done).saturating_mul(max_draws));
            let draws = &mut draws[..span + max_draws];
            crate::kernels::draw_window(self.state, draws);
            let steps = &mut steps[..span];
            fill_steps(draws, steps);
            let mut pos = 0;
            while pos < span && done < reports {
                let step = emit(&draws[pos..], steps[pos], done);
                // A count outside the report's draw budget would shift
                // every later report onto the wrong draws.
                assert!((1..=max_draws).contains(&step), "{step} draws");
                pos += step;
                done += 1;
            }
            self.state = self.state.wrapping_add((pos as u64).wrapping_mul(GAMMA));
        }
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }

    fn fill_u64_stream(&mut self, dest: &mut [u64]) {
        // The counter-based batch fill replays the serial draw order
        // exactly, so generic `Rng` bulk paths get the unrolled kernel.
        self.fill_u64(dest);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SplitMix64::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        SplitMix64::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn known_answer_vector() {
        // Reference values from the canonical SplitMix64 implementation
        // seeded with 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next(), 6457827717110365317);
        assert_eq!(rng.next(), 3203168211198807973);
        assert_eq!(rng.next(), 9817491932198370423);
    }

    #[test]
    fn deterministic_from_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn split_streams_differ_from_parent_and_each_other() {
        let root = SplitMix64::new(7);
        let mut s1 = root.split(1);
        let mut s2 = root.split(2);
        let mut s1b = root.split(1);
        assert_ne!(s1.next(), s2.next());
        let mut s1c = root.split(1);
        assert_eq!(s1b.next(), s1c.next());
    }

    #[test]
    fn uniform_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Not all bytes should be zero with overwhelming probability.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn batched_fills_match_serial_draw_order() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 256] {
            let mut serial = SplitMix64::new(4242);
            let mut batched = SplitMix64::new(4242);
            let expect: Vec<u64> = (0..n).map(|_| serial.next()).collect();
            let mut got = vec![0u64; n];
            batched.fill_u64(&mut got);
            assert_eq!(got, expect, "n = {n}");
            assert_eq!(batched, serial, "state after fill, n = {n}");
        }
    }

    #[test]
    fn batched_fill_golden_vector() {
        // Pins the counter-based formulation against the canonical
        // sequential known-answer vector for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        let mut out = [0u64; 3];
        rng.fill_u64(&mut out);
        assert_eq!(
            out,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn bounded_fill_is_roughly_uniform_chi_square() {
        // Chi-square smoke test over 16 cells: with 64k draws the statistic
        // for a uniform source sits near its 15 degrees of freedom; 60 is
        // far beyond any plausible p-value for a healthy generator.
        const CELLS: u64 = 16;
        const N: usize = 1 << 16;
        let mut rng = SplitMix64::new(20_260_808);
        let mut counts = [0u64; CELLS as usize];
        for _ in 0..N {
            counts[rng.gen_range(0..CELLS) as usize] += 1;
        }
        let expected = N as f64 / CELLS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 60.0, "chi-square statistic {chi2} too large");
    }

    #[test]
    fn unit_threshold_agrees_with_the_float_coin() {
        let mut rng = SplitMix64::new(31);
        let mut ps = vec![
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        ps.extend((0..50).map(|_| rng.gen::<f64>()));
        for p in ps {
            let threshold = unit_threshold(p);
            let mut draws: Vec<u64> = (0..200).map(|_| rng.next()).collect();
            // Draws whose top 53 bits sit at the threshold and either side.
            for k in [threshold.saturating_sub(1), threshold, threshold + 1] {
                let k = k.min((1 << 53) - 1);
                draws.extend([k << 11, (k << 11) | 0x7FF]);
            }
            for u in draws {
                assert_eq!(
                    (u >> 11) < threshold,
                    unit_f64(u) < p,
                    "p = {p:e}, u = {u:#x}"
                );
            }
        }
        // unit_f64 is gen::<f64>() of the same draw.
        let mut serial = SplitMix64::new(32);
        let mut raw = SplitMix64::new(32);
        for _ in 0..100 {
            assert_eq!(
                unit_f64(raw.next()).to_bits(),
                serial.gen::<f64>().to_bits()
            );
        }
    }

    /// A toy randomizer for the walk: a report draws a coin `u₀`, consumes
    /// `1 + u₀ % 3` draws and reports the sum of the ones it consumed.
    fn toy_serial(rng: &mut SplitMix64) -> u64 {
        let coin = rng.next();
        (1..=coin % 3).fold(coin, |acc, _| acc.wrapping_add(rng.next()))
    }

    fn toy_sum(draws: &[u64], steps: usize) -> u64 {
        draws[..steps].iter().fold(0, |acc, &u| acc.wrapping_add(u))
    }

    #[test]
    fn walk_reports_replays_the_serial_loop() {
        for seed in [0, 9, u64::MAX - 1, u64::MAX] {
            for n in [0usize, 1, 2, 3, 682, 683, 684, 2048, 5000] {
                let mut serial = SplitMix64::new(seed);
                let expect: Vec<u64> = (0..n).map(|_| toy_serial(&mut serial)).collect();
                // The table walk: every position's step count up front.
                let mut walked = SplitMix64::new(seed);
                let mut got = Vec::new();
                walked.walk_reports(
                    n,
                    3,
                    |draws, steps| {
                        for (s, &u) in steps.iter_mut().zip(draws) {
                            *s = 1 + (u % 3) as u8;
                        }
                    },
                    |draws, steps, i| {
                        assert_eq!(i, got.len());
                        got.push(toy_sum(draws, usize::from(steps)));
                        usize::from(steps)
                    },
                );
                assert_eq!(got, expect, "table walk, seed {seed}, n = {n}");
                assert_eq!(walked, serial, "table walk state, seed {seed}, n = {n}");
                // The counting walk: no table, the step count from emit.
                let mut walked = SplitMix64::new(seed);
                let mut got = Vec::new();
                walked.walk_reports(
                    n,
                    3,
                    |_, _| {},
                    |draws, _, _| {
                        let steps = 1 + (draws[0] % 3) as usize;
                        got.push(toy_sum(draws, steps));
                        steps
                    },
                );
                assert_eq!(got, expect, "counting walk, seed {seed}, n = {n}");
                assert_eq!(walked, serial, "counting walk state, seed {seed}, n = {n}");
            }
        }
    }

    #[test]
    fn block_stream_sees_splitmix64_only_with_simd_live() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            SplitMix64::block_stream(&mut rng).is_some(),
            crate::kernels::simd_enabled()
        );
        // Through a `&mut` forwarding layer too.
        let mut by_ref = &mut rng;
        assert_eq!(
            SplitMix64::block_stream(&mut by_ref).is_some(),
            crate::kernels::simd_enabled()
        );
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Spot check: distinct inputs give distinct outputs.
        let outs: Vec<u64> = (0u64..1000).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len());
    }
}
