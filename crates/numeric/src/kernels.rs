//! Vectorized absorb/aggregate kernels with runtime dispatch.
//!
//! Every hot absorption loop in the workspace funnels through this module:
//! the SW report-bucketing pass ([`first_out_of_range`] +
//! [`bucket_histogram`]), the OUE bit-count accumulation
//! ([`bitcount_rows`]) and the OLH support walk ([`olh_support`]) that
//! OLH, CFO-binning and every HH level absorb through. So do the two
//! applications of every SW EM/EMS iteration: the band lines of the banded
//! transition operator ([`band_lines`], one `(head, tail)` class at a time,
//! and [`dot4`] for long edge runs). So does the client side's block
//! randomization: the [`draw_window`] of `SplitMix64` draws ahead of the
//! cursor that
//! [`SplitMix64::walk_reports`](crate::rng::SplitMix64::walk_reports)
//! walks, with [`Divisor`] for its exact remainders. Each kernel has
//!
//! - a **scalar reference** implementation — the semantics, always compiled,
//!   always available;
//! - an optional 4–8-lane unrolled / `core::arch` AVX2 variant selected at
//!   runtime behind [`simd_enabled`]; [`olh_support`] and [`draw_window`]
//!   also have an 8-lane AVX-512 variant, and [`band_lines`] has only an
//!   AVX-512 variant (8 lines per step: gathers, contiguous loads from its
//!   lane-interleaved edge layout, a scatter).
//!
//! The contract, pinned by the workspace `kernel_equivalence` differential
//! suite, is that every variant is **bit-identical** to its scalar
//! reference: integer kernels because `u64`/`i64` addition is exact and
//! commutative, float kernels because the vector lanes replay the exact
//! operation sequence of the blocked scalar loop (IEEE-754 `add`/`mul`/
//! `div` are exactly specified, and Rust performs no float contraction).
//!
//! # Dispatch rules
//!
//! [`simd_enabled`] is computed once per process: it requires `x86_64`,
//! a runtime `is_x86_feature_detected!("avx2")` hit, and the `LDP_NO_SIMD`
//! environment variable to be unset (or `0`/empty). [`olh_support`],
//! [`draw_window`] and [`band_lines`] take their AVX-512 arm when
//! [`simd_enabled`] holds and `avx512f` and `avx512dq` are detected (also
//! checked once and cached); otherwise [`olh_support`] and
//! [`draw_window`] take their AVX2 arm when [`simd_enabled`] holds, and
//! every kernel falls back to its scalar reference. The block randomizers run only when [`simd_enabled`] holds,
//! so under `LDP_NO_SIMD=1` they are the serial per-report loop, their
//! reference semantics.
//! `LDP_NO_SIMD=1` is the only switch: it forces every kernel, both
//! AVX-512 and AVX2 arms included, onto its scalar reference — CI runs the
//! whole test suite in both configurations. Non-x86 targets always take
//! the scalar path; there is no compile-time feature gate to misconfigure.
//!
//! This module is one of the workspace's three places that use `unsafe`
//! (listed under "Unsafe code" in `docs/ARCHITECTURE.md`); every `unsafe`
//! block is a `#[target_feature]` intrinsic routine (`avx2`, or
//! `avx512f,avx512dq`) reached strictly behind the runtime detection
//! check.

use std::sync::OnceLock;

/// Environment variable that forces every kernel onto its scalar
/// reference path when set to anything but `0` or the empty string.
pub const NO_SIMD_ENV: &str = "LDP_NO_SIMD";

/// Whether the SIMD kernel variants are active in this process: `x86_64`
/// with AVX2 detected at runtime and [`NO_SIMD_ENV`] not set. Computed
/// once and cached; the per-call cost is one atomic load.
#[must_use]
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        let forced_off = std::env::var(NO_SIMD_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced_off {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether [`olh_support`], [`draw_window`] and [`band_lines`] take their
/// AVX-512 arms: [`simd_enabled`] and both `avx512f` and `avx512dq`
/// detected at runtime. Computed once and cached.
#[cfg(target_arch = "x86_64")]
fn avx512_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        simd_enabled()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    })
}

/// The widest kernel arm this process dispatches to: `"avx512"` when
/// [`olh_support`] takes its AVX-512 arm, `"avx2"` when [`simd_enabled`]
/// holds, else `"scalar"`. Bench records carry it, so a timing names the
/// code that produced it.
#[must_use]
pub fn widest_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512_enabled() {
        return "avx512";
    }
    if simd_enabled() {
        "avx2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Blocked dot product (SW band edges)
// ---------------------------------------------------------------------------

/// The scalar reference for [`dot4`]: four independent accumulators over
/// 4-element blocks, reduced as `(a0 + a1) + (a2 + a3) + rest`. Public so
/// the differential suite can pin the SIMD variant against it.
#[must_use]
pub fn dot4_scalar(entries: &[f64], window: &[f64]) -> f64 {
    debug_assert_eq!(entries.len(), window.len());
    let mut acc = [0.0f64; 4];
    let mut entry_blocks = entries.chunks_exact(4);
    let mut window_blocks = window.chunks_exact(4);
    for (e, w) in (&mut entry_blocks).zip(&mut window_blocks) {
        acc[0] += e[0] * w[0];
        acc[1] += e[1] * w[1];
        acc[2] += e[2] * w[2];
        acc[3] += e[3] * w[3];
    }
    let mut rest = 0.0;
    for (e, w) in entry_blocks
        .remainder()
        .iter()
        .zip(window_blocks.remainder())
    {
        rest += e * w;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// Dot product of two equal-length slices through four independent
/// accumulators — the kernel behind the SW banded operator's explicit
/// band edges. The AVX2 variant keeps one accumulator per vector lane and
/// reduces in the same order as [`dot4_scalar`], so the two are
/// bit-identical on every input.
#[must_use]
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn dot4(entries: &[f64], window: &[f64]) -> f64 {
    debug_assert_eq!(entries.len(), window.len());
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && entries.len() >= 8 {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        return unsafe { avx2::dot4_avx2(entries, window) };
    }
    dot4_scalar(entries, window)
}

// ---------------------------------------------------------------------------
// Range validation + bucket histogram (SW report absorption)
// ---------------------------------------------------------------------------

/// The scalar reference for [`first_out_of_range`].
#[must_use]
pub fn first_out_of_range_scalar(values: &[f64], lo: f64, hi: f64) -> Option<usize> {
    values.iter().position(|&v| !(v >= lo && v <= hi))
}

/// Index of the first value outside `[lo, hi]`, where NaN (which fails
/// every ordered comparison) and infinities count as outside for finite
/// bounds — exactly the SW aggregator's domain check. The AVX2 variant
/// tests four lanes per step with ordered-quiet compares and rescans the
/// offending block serially, so the reported index matches the scalar
/// reference exactly.
#[must_use]
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn first_out_of_range(values: &[f64], lo: f64, hi: f64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        return unsafe { avx2::first_out_of_range_avx2(values, lo, hi) };
    }
    first_out_of_range_scalar(values, lo, hi)
}

/// The scalar reference for [`bucket_histogram`].
pub fn bucket_histogram_scalar(counts: &mut [u64], values: &[f64], lo: f64, hi: f64) {
    let d = counts.len();
    for &v in values {
        let pos = ((v - lo) / (hi - lo) * d as f64) as isize;
        let idx = pos.clamp(0, d as isize - 1) as usize;
        counts[idx] += 1;
    }
}

/// Buckets each value into `counts` via
/// `clamp(trunc((v - lo) / (hi - lo) * d), 0, d - 1)` — the SW report
/// histogram pass. Callers must validate the slice with
/// [`first_out_of_range`] first (the SW aggregator does); values must be
/// finite. The AVX2 variant performs the identical `sub`/`div`/`mul`
/// sequence per lane and truncates with `cvttpd` (round-toward-zero, the
/// same rounding as `as isize` for in-range values), so the two paths are
/// bit-identical on validated input.
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn bucket_histogram(counts: &mut [u64], values: &[f64], lo: f64, hi: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && !counts.is_empty() && counts.len() <= i32::MAX as usize {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        unsafe { avx2::bucket_histogram_avx2(counts, values, lo, hi) };
        return;
    }
    bucket_histogram_scalar(counts, values, lo, hi);
}

// ---------------------------------------------------------------------------
// Bit-count accumulation (OUE absorption)
// ---------------------------------------------------------------------------

/// The scalar reference for [`bitcount_rows`]: one row at a time, a
/// `trailing_zeros` sparse walk over each word, ignoring stray bits at
/// index ≥ `counts.len()` (the legacy OUE `add_counts` semantics).
pub fn bitcount_rows_scalar<'a, I>(counts: &mut [u64], rows: I)
where
    I: IntoIterator<Item = &'a [u64]>,
{
    for row in rows {
        bitcount_row(counts, row);
    }
}

/// One sparse row accumulation — shared tail path of [`bitcount_rows`].
fn bitcount_row(counts: &mut [u64], row: &[u64]) {
    let d = counts.len();
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let idx = w * 64 + bits.trailing_zeros() as usize;
            if idx < d {
                counts[idx] += 1;
            }
            bits &= bits - 1;
        }
    }
}

/// Carry-save full adder over three bit rows: returns `(sum, carry)` with
/// `a + b + c = sum + 2·carry` per bit position.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Accumulates many packed bit rows into per-position counts — the OUE
/// absorption kernel. Rows are processed in blocks of 7 through a
/// carry-save adder tree (7 rows fit a 3-bit per-position counter), so
/// each word of a full block costs ~20 bitwise ops plus one extraction
/// sweep instead of 7 sparse walks; leftover rows take the sparse
/// reference path. Every row must span `counts.len().div_ceil(64)` words;
/// bits at positions ≥ `counts.len()` in the final word are ignored,
/// matching the scalar reference. Counts are exact `u64` additions, so
/// the blocked order is bit-identical to row-at-a-time accumulation.
pub fn bitcount_rows<'a, I>(counts: &mut [u64], rows: I)
where
    I: IntoIterator<Item = &'a [u64]>,
{
    let mut block: [&[u64]; 7] = [&[]; 7];
    let mut fill = 0;
    for row in rows {
        debug_assert_eq!(row.len(), counts.len().div_ceil(64));
        block[fill] = row;
        fill += 1;
        if fill == block.len() {
            bitcount_block7(counts, &block);
            fill = 0;
        }
    }
    for row in &block[..fill] {
        bitcount_row(counts, row);
    }
}

/// One full 7-row carry-save block of [`bitcount_rows`].
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
fn bitcount_block7(counts: &mut [u64], rows: &[&[u64]; 7]) {
    let d = counts.len();
    let words = d.div_ceil(64);
    #[cfg(target_arch = "x86_64")]
    let simd = simd_enabled();
    // Seven parallel rows indexed in lockstep; a 7-way zip would obscure
    // the carry-save structure.
    #[allow(clippy::needless_range_loop)]
    for w in 0..words {
        let (s1, c1) = csa(rows[0][w], rows[1][w], rows[2][w]);
        let (s2, c2) = csa(rows[3][w], rows[4][w], rows[5][w]);
        let (ones, c3) = csa(s1, s2, rows[6][w]);
        let (twos, fours) = csa(c1, c2, c3);
        let base = w * 64;
        let top = 64.min(d - base);
        // Mask stray bits beyond the domain in the final word so hostile
        // payloads count exactly like the scalar reference's idx guard.
        let keep = if top == 64 { !0u64 } else { (1u64 << top) - 1 };
        let (ones, twos, fours) = (ones & keep, twos & keep, fours & keep);
        if ones | twos | fours == 0 {
            continue;
        }
        let dst = &mut counts[base..base + top];
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: simd_enabled() verified AVX2 support at runtime.
            unsafe { avx2::extract_counter_bits_avx2(dst, ones, twos, fours) };
            continue;
        }
        extract_counter_bits(dst, ones, twos, fours);
    }
}

/// Unpacks a 3-bit-per-position carry-save counter into `u64` counts —
/// the extraction sweep of [`bitcount_block7`] (scalar variant).
fn extract_counter_bits(dst: &mut [u64], ones: u64, twos: u64, fours: u64) {
    for (i, c) in dst.iter_mut().enumerate() {
        *c += ((ones >> i) & 1) + (((twos >> i) & 1) << 1) + (((fours >> i) & 1) << 2);
    }
}

// ---------------------------------------------------------------------------
// OLH support walk (OLH, CFO-binning and HH absorption)
// ---------------------------------------------------------------------------

/// An exact test for `x % g == y` under a fixed modulus `g ≥ 2` that uses
/// only a multiply, a rotate and two compares (Hacker's Delight §10-17;
/// Granlund and Montgomery, PLDI 1994, §9).
///
/// Write `g = 2ᵏ·o` with `o` odd. Multiplying by `o⁻¹ mod 2⁶⁴` is a
/// bijection on `u64` that maps the multiples `q·o` of `o` onto
/// `q ≤ ⌊(2⁶⁴−1)/o⌋`, and `2ᵏ | q·o` iff `q`'s low `k` bits are zero, which
/// a right rotation by `k` moves to the top. So `g | n` iff
/// `rotr(n·o⁻¹, k) ≤ ⌊(2⁶⁴−1)/g⌋`, for every `n: u64`. For `y < g`,
/// `x % g == y` iff `x ≥ y` and `g | x − y`; for `y ≥ g` it never holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidueTest {
    g: u64,
    /// `o⁻¹ mod 2⁶⁴` for the odd part `o` of `g`.
    inverse: u64,
    /// `k`, the power of two in `g`.
    shift: u32,
    /// `⌊(2⁶⁴−1)/g⌋`.
    limit: u64,
}

impl ResidueTest {
    /// Precomputes the test for modulus `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g < 2`.
    #[must_use]
    pub fn new(g: u64) -> Self {
        assert!(g >= 2, "residue test modulo {g}");
        let shift = g.trailing_zeros();
        let odd = g >> shift;
        // `odd·odd ≡ 1 (mod 8)`, and each Newton step doubles the number
        // of correct low bits: 3 → 6 → 12 → 24 → 48 → 96 ≥ 64.
        let mut inverse = odd;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        debug_assert_eq!(odd.wrapping_mul(inverse), 1);
        ResidueTest {
            g,
            inverse,
            shift,
            limit: u64::MAX / g,
        }
    }

    /// `x % g == y`.
    #[inline]
    #[must_use]
    pub fn hit(self, x: u64, y: u64) -> bool {
        y < self.g
            && x >= y
            && (x - y).wrapping_mul(self.inverse).rotate_right(self.shift) <= self.limit
    }
}

/// Exact `n / d` and `n % d` for a fixed divisor `d ≥ 1` from one high
/// multiply and one branch-free correction, where a hardware divide costs
/// tens of cycles (Granlund and Montgomery, PLDI 1994); a power of two is
/// a shift and a mask.
///
/// With `m = ⌊2⁶⁴/d⌋` (`2⁶⁴ − 1` for `d = 1`), `q̂ = ⌊n·m/2⁶⁴⌋` satisfies
/// `q − 1 ≤ q̂ ≤ q` for `q = ⌊n/d⌋`: `m ≤ 2⁶⁴/d` bounds it above, and
/// `m > 2⁶⁴/d − 1` gives `n·m/2⁶⁴ > n/d − 1`. So `r̂ = n − q̂·d` lies in
/// `[0, 2d)` (and never exceeds `n`), and one conditional subtract yields
/// the exact remainder, for every `n: u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `⌊2⁶⁴/d⌋`, or `2⁶⁴ − 1` for `d = 1`.
    m: u64,
    /// `log₂ d` when `d` is a power of two. The tree spans of a
    /// power-of-two branching and OLH's `g` at ε = 1 and 2 are; there the
    /// shortcut takes the multiply off a report's dependency chain.
    shift: Option<u32>,
}

impl Divisor {
    /// Precomputes division by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is 0.
    #[must_use]
    pub fn new(d: u64) -> Self {
        assert!(d >= 1, "division by zero");
        let m = if d == 1 {
            u64::MAX
        } else {
            ((1u128 << 64) / u128::from(d)) as u64
        };
        let shift = d.is_power_of_two().then(|| d.trailing_zeros());
        Divisor { d, m, shift }
    }

    /// `(n / d, n % d)`.
    #[inline]
    #[must_use]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        if let Some(k) = self.shift {
            return (n >> k, n & (self.d - 1));
        }
        let q = ((u128::from(n) * u128::from(self.m)) >> 64) as u64;
        let r = n - q * self.d;
        let over = r >= self.d;
        (
            q + u64::from(over),
            std::hint::select_unpredictable(over, r.wrapping_sub(self.d), r),
        )
    }
}

/// `n / d` through [`Divisor::div_rem`].
impl std::ops::Div<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn div(self, d: Divisor) -> u64 {
        d.div_rem(self).0
    }
}

/// `n % d` through [`Divisor::div_rem`].
impl std::ops::Rem<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, d: Divisor) -> u64 {
        d.div_rem(self).1
    }
}

/// The scalar reference for [`olh_support`]: one [`mix64`] and one
/// [`ResidueTest::hit`] per value.
///
/// [`mix64`]: crate::rng::mix64
pub fn olh_support_scalar(
    support: &mut [u64],
    value_mix: &[u64],
    seed: u64,
    y: u64,
    residue: ResidueTest,
) {
    debug_assert_eq!(support.len(), value_mix.len());
    for (s, &m) in support.iter_mut().zip(value_mix) {
        *s += u64::from(residue.hit(crate::rng::mix64(seed ^ m), y));
    }
}

/// Adds one OLH report's support pattern to per-value counts: `support[v]`
/// gains 1 iff `mix64(seed ^ value_mix[v]) % g == y`, where `value_mix[v]`
/// is the cached inner hash `mix64(v)` and `g` is `residue`'s modulus —
/// the O(d) walk behind every OLH, CFO-binning and HH level absorb.
///
/// The AVX-512 arm runs 8 lanes (`vpmullq` multiplies, `vprorq` rotate,
/// unsigned mask compares and a masked add, the tail under a load mask);
/// the AVX2 arm runs 4 lanes, each 64-bit multiply built from three
/// `vpmuludq`. Both replay [`mix64`] and [`ResidueTest::hit`] exactly and
/// the counts are exact `u64` additions, so every arm equals
/// [`olh_support_scalar`] on every input.
///
/// [`mix64`]: crate::rng::mix64
#[allow(unsafe_code)] // runtime-dispatched AVX-512/AVX2 call sites
pub fn olh_support(
    support: &mut [u64],
    value_mix: &[u64],
    seed: u64,
    y: u64,
    residue: ResidueTest,
) {
    debug_assert_eq!(support.len(), value_mix.len());
    if y >= residue.g {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx512_enabled() {
        // SAFETY: avx512_enabled() verified AVX-512F and AVX-512DQ
        // support at runtime; y < g was checked above.
        unsafe { avx512::olh_support_avx512(support, value_mix, seed, y, residue) };
        return;
    } else if simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 support at runtime; y < g
        // was checked above.
        unsafe { avx2::olh_support_avx2(support, value_mix, seed, y, residue) };
        return;
    }
    olh_support_scalar(support, value_mix, seed, y, residue);
}

// ---------------------------------------------------------------------------
// SplitMix64 draw window (block randomization)
// ---------------------------------------------------------------------------

/// The scalar reference for [`draw_window`]: `out[i]` is the `i`-th raw
/// output a [`SplitMix64`] in state `state` would return, computed
/// without advancing anything.
///
/// [`SplitMix64`]: crate::rng::SplitMix64
pub fn draw_window_scalar(state: u64, out: &mut [u64]) {
    for (i, o) in (1u64..).zip(out.iter_mut()) {
        *o = crate::rng::finalize(state.wrapping_add(i.wrapping_mul(crate::rng::GAMMA)));
    }
}

/// Fills `out` with the next `out.len()` raw outputs of a [`SplitMix64`]
/// in state `state`: `out[i] = finalize(state + (i + 1)·γ)`, with every
/// add and multiply wrapping. The generator is counter-based, so a window
/// of draws ahead of the cursor is one independent finalizer per lane —
/// the first pass of the block randomizers
/// ([`SplitMix64::walk_reports`]).
///
/// The AVX-512 arm runs 8 lanes (`vpmullq`, the tail under a store mask);
/// the AVX2 arm runs 4 lanes, each 64-bit multiply built from three
/// `vpmuludq`. Lane counters step by `8γ` or `4γ` with wrapping adds,
/// which is the same residue mod 2⁶⁴ as `(i + 1)·γ`, so every arm equals
/// [`draw_window_scalar`] on every state, the wrap of the counter past
/// `u64::MAX` included.
///
/// [`SplitMix64`]: crate::rng::SplitMix64
/// [`SplitMix64::walk_reports`]: crate::rng::SplitMix64::walk_reports
#[allow(unsafe_code)] // runtime-dispatched AVX-512/AVX2 call sites
pub fn draw_window(state: u64, out: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if avx512_enabled() {
        // SAFETY: avx512_enabled() verified AVX-512F and AVX-512DQ
        // support at runtime.
        unsafe { avx512::draw_window_avx512(state, out) };
        return;
    } else if simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        unsafe { avx2::draw_window_avx2(state, out) };
        return;
    }
    draw_window_scalar(state, out);
}

/// Runs the AVX2 arm of [`draw_window`], or returns `false` without
/// touching `out` when this host lacks AVX2. For the differential suite,
/// which pins each arm on its own whatever the dispatch picks.
#[must_use]
#[allow(unsafe_code)] // runtime-detected AVX2 call site
pub fn draw_window_avx2(state: u64, out: &mut [u64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 detected just above.
        unsafe { avx2::draw_window_avx2(state, out) };
        return true;
    }
    let _ = (state, out);
    false
}

/// Runs the AVX-512 arm of [`draw_window`], or returns `false` without
/// touching `out` when this host lacks AVX-512F or AVX-512DQ. For the
/// differential suite, like [`draw_window_avx2`].
#[must_use]
#[allow(unsafe_code)] // runtime-detected AVX-512 call site
pub fn draw_window_avx512(state: u64, out: &mut [u64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: AVX-512F and AVX-512DQ detected just above.
        unsafe { avx512::draw_window_avx512(state, out) };
        return true;
    }
    let _ = (state, out);
    false
}

// ---------------------------------------------------------------------------
// Band lines (SW transition operator)
// ---------------------------------------------------------------------------

/// Lines per block of the lane-interleaved edge layout [`BandLines::edges`]
/// is stored in: one AVX-512 vector of `f64`.
pub const BAND_LANES: usize = 8;

/// Longest edge run (on either side of the plateau) whose [`BandLines`]
/// class runs code monomorphized on its length.
pub const BAND_FIXED_EDGE_LEN: usize = 3;

/// One `(head, tail)` class of band lines of a banded operator sweep
/// (`ldp_sw`'s `BandedBaselineOperator`). Line `k` covers band indices
/// `[start[k], start[k] + head + run[k] + tail)`: `head` explicit entries,
/// a plateau run of `run[k]` entries, then `tail` explicit entries, and
/// writes output `out[k]`.
#[derive(Debug, Clone, Copy)]
pub struct BandLines<'a> {
    /// Explicit entries before each line's plateau run.
    pub head: usize,
    /// Explicit entries after each line's plateau run.
    pub tail: usize,
    /// Output index of each line.
    pub out: &'a [u32],
    /// First band index of each line.
    pub start: &'a [u32],
    /// Plateau run length of each line.
    pub run: &'a [u32],
    /// The lines' `head + tail` explicit entries, head first, in the
    /// lane-interleaved layout: blocks of [`BAND_LANES`] lines, entry-major
    /// within a block, the last block padded to a whole block (entry `e`
    /// of line `k` at [`BandLines::edge_index`]). A vector arm loads one
    /// entry of 8 lines with one contiguous load.
    pub edges: &'a [f64],
}

impl BandLines<'_> {
    /// Length of [`BandLines::edges`] for `lines` lines of `width`
    /// explicit entries each: whole blocks of [`BAND_LANES`] lines.
    #[must_use]
    pub fn edge_len(lines: usize, width: usize) -> usize {
        lines.div_ceil(BAND_LANES) * BAND_LANES * width
    }

    /// Position in [`BandLines::edges`] of entry `e` of line `k`, for
    /// lines of `width` explicit entries.
    #[must_use]
    pub fn edge_index(k: usize, e: usize, width: usize) -> usize {
        (k / BAND_LANES) * BAND_LANES * width + e * BAND_LANES + k % BAND_LANES
    }
}

/// What every line of one band sweep reads besides its own entries.
#[derive(Debug, Clone, Copy)]
pub struct BandSweep<'a> {
    /// The vector the sweep applies to.
    pub x: &'a [f64],
    /// `x`'s running sums, `x.len() + 1` entries: `prefix[0] = 0` and
    /// `prefix[k + 1] = prefix[k] + x[k]`.
    pub prefix: &'a [f64],
    /// The band's plateau value.
    pub plateau: f64,
    /// Added to every line's sum (the baseline's share, `baseline · Σx`).
    pub base: f64,
}

/// Panics unless the arrays of `lines` and `sweep` have the lengths the
/// band-line routines index by; each line's own indices are checked as it
/// runs.
fn check_band(lines: &BandLines, sweep: &BandSweep) {
    let n = lines.out.len();
    assert!(
        lines.start.len() == n && lines.run.len() == n,
        "band lines: {n} outputs, {} starts, {} runs",
        lines.start.len(),
        lines.run.len()
    );
    // Checked, so that no length a caller passes wraps into a match.
    let edges = lines
        .head
        .checked_add(lines.tail)
        .and_then(|width| width.checked_mul(BAND_LANES))
        .and_then(|block| n.div_ceil(BAND_LANES).checked_mul(block));
    assert!(
        edges == Some(lines.edges.len()),
        "band lines: {} edge entries for {n} lines of {} + {}",
        lines.edges.len(),
        lines.head,
        lines.tail
    );
    assert!(
        sweep.prefix.len() == sweep.x.len() + 1,
        "band sweep: {} running sums for {} entries",
        sweep.prefix.len(),
        sweep.x.len()
    );
}

/// The scalar reference for [`band_lines`]: each line, in order, computes
///
/// ```text
/// acc = 0
/// acc += e[h] · x[start + h]                for h in 0..head
/// acc += plateau · (prefix[run_end] − prefix[head_end])
/// acc += e[head + t] · x[run_end + t]       for t in 0..tail
/// y[out] = base + acc
/// ```
///
/// with `head_end = start + head` and `run_end = head_end + run`. Classes
/// with `head, tail ≤ 3` run code monomorphized on both lengths, so the
/// edge loops have fixed trip counts.
///
/// # Panics
///
/// Panics if the arrays' lengths disagree (see [`BandLines`] and
/// [`BandSweep`]) or a line reaches past `x` or `y`.
pub fn band_lines_scalar(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
    check_band(lines, sweep);
    match lines.head {
        0 => band_lines_head::<0>(lines, sweep, y),
        1 => band_lines_head::<1>(lines, sweep, y),
        2 => band_lines_head::<2>(lines, sweep, y),
        3 => band_lines_head::<3>(lines, sweep, y),
        head => band_lines_with(head, lines.tail, lines, sweep, y),
    }
}

/// [`band_lines_scalar`] for head length `H`, with each tail length up to
/// [`BAND_FIXED_EDGE_LEN`] a compile-time constant too.
fn band_lines_head<const H: usize>(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
    match lines.tail {
        0 => band_lines_with(H, 0, lines, sweep, y),
        1 => band_lines_with(H, 1, lines, sweep, y),
        2 => band_lines_with(H, 2, lines, sweep, y),
        3 => band_lines_with(H, 3, lines, sweep, y),
        tail => band_lines_with(H, tail, lines, sweep, y),
    }
}

/// The line loop of [`band_lines_scalar`]; inlined into each call site so
/// a constant `head`/`tail` fixes the edge loops' trip counts.
#[inline(always)]
fn band_lines_with(head: usize, tail: usize, lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
    let block_len = BAND_LANES * (head + tail);
    let (x, prefix) = (sweep.x, sweep.prefix);
    let blocks = lines
        .out
        .chunks(BAND_LANES)
        .zip(lines.start.chunks(BAND_LANES))
        .zip(lines.run.chunks(BAND_LANES));
    for (b, ((outs, starts), runs)) in blocks.enumerate() {
        let block = &lines.edges[b * block_len..][..block_len];
        for (l, ((&out, &start), &run)) in outs.iter().zip(starts).zip(runs).enumerate() {
            let start = start as usize;
            let head_end = start + head;
            let run_end = head_end + run as usize;
            let (head_x, tail_x) = (&x[start..head_end], &x[run_end..run_end + tail]);
            let mut acc = 0.0;
            for (h, &v) in head_x.iter().enumerate() {
                acc += block[BAND_LANES * h + l] * v;
            }
            acc += sweep.plateau * (prefix[run_end] - prefix[head_end]);
            for (t, &v) in tail_x.iter().enumerate() {
                acc += block[BAND_LANES * (head + t) + l] * v;
            }
            y[out as usize] = sweep.base + acc;
        }
    }
}

/// Writes `y[out[k]]` for every line `k` of one band-line class: the
/// per-line kernel of the SW banded transition operator, whose every
/// `M·x` and `Mᵀ·x` in EM/EMS runs through it class by class.
///
/// The AVX-512 arm runs 8 lines per step: their `x` and running-sum
/// entries are gathered (`vgatherqpd`), each edge entry of the 8 lines is
/// one contiguous load from the lane-interleaved layout, and the results
/// are scattered to `y` (`vscatterqpd`), the last block under a lane
/// mask. Each lane replays [`band_lines_scalar`]'s operation sequence for
/// its line, so the two are bit-identical on every input; a store to an
/// output shared by two lines keeps the later line's value in both. There
/// is no AVX2 arm: AVX2 hosts run the scalar reference.
///
/// # Panics
///
/// As [`band_lines_scalar`].
#[allow(unsafe_code)] // runtime-dispatched AVX-512 call site
pub fn band_lines(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if avx512_enabled() {
        check_band(lines, sweep);
        // SAFETY: avx512_enabled() verified AVX-512F support at runtime;
        // check_band verified the array lengths the arm relies on.
        unsafe { avx512::band_lines_avx512(lines, sweep, y) };
        return;
    }
    band_lines_scalar(lines, sweep, y);
}

/// Runs the AVX-512 arm of [`band_lines`], or returns `false` without
/// touching `y` when this host lacks AVX-512F. For the differential
/// suite, like [`draw_window_avx512`].
///
/// # Panics
///
/// As [`band_lines_scalar`].
#[must_use]
#[allow(unsafe_code)] // runtime-detected AVX-512 call site
pub fn band_lines_avx512(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        check_band(lines, sweep);
        // SAFETY: AVX-512F detected just above; check_band verified the
        // array lengths the arm relies on.
        unsafe { avx512::band_lines_avx512(lines, sweep, y) };
        return true;
    }
    let _ = (lines, sweep, y);
    false
}

// ---------------------------------------------------------------------------
// AVX2 variants (runtime-dispatched; with the AVX-512 variant below, the
// module's only unsafe code)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::ResidueTest;
    use crate::rng::{FINALIZE_MULS, FINALIZE_SHIFTS, GAMMA};
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 support (via `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4_avx2(entries: &[f64], window: &[f64]) -> f64 {
        let n = entries.len();
        let blocks = n / 4;
        let e = entries.as_ptr();
        let w = window.as_ptr();
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            // SAFETY: 4*i + 3 < n by the blocks bound; loads are unaligned.
            let ev = unsafe { _mm256_loadu_pd(e.add(4 * i)) };
            let wv = unsafe { _mm256_loadu_pd(w.add(4 * i)) };
            // Lane j replays exactly the scalar acc[j] += e*w sequence.
            acc = _mm256_add_pd(acc, _mm256_mul_pd(ev, wv));
        }
        let mut lanes = [0.0f64; 4];
        // SAFETY: lanes is 4 f64s; storeu has no alignment requirement.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        let mut rest = 0.0;
        for i in blocks * 4..n {
            rest += entries[i] * window[i];
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + rest
    }

    /// # Safety
    /// Caller must have verified AVX2 support (via `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn first_out_of_range_avx2(
        values: &[f64],
        lo: f64,
        hi: f64,
    ) -> Option<usize> {
        let n = values.len();
        let blocks = n / 4;
        let p = values.as_ptr();
        let lo_v = _mm256_set1_pd(lo);
        let hi_v = _mm256_set1_pd(hi);
        for b in 0..blocks {
            // SAFETY: 4*b + 3 < n by the blocks bound.
            let v = unsafe { _mm256_loadu_pd(p.add(4 * b)) };
            // Ordered-quiet compares: NaN lanes fail both, like `!(v >= lo)`.
            let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, lo_v);
            let le = _mm256_cmp_pd::<_CMP_LE_OQ>(v, hi_v);
            let ok = _mm256_movemask_pd(_mm256_and_pd(ge, le));
            if ok != 0xF {
                // Serial rescan of the block for the exact first index.
                for (i, &x) in values[4 * b..4 * b + 4].iter().enumerate() {
                    if !(x >= lo && x <= hi) {
                        return Some(4 * b + i);
                    }
                }
            }
        }
        for (i, &x) in values[blocks * 4..].iter().enumerate() {
            if !(x >= lo && x <= hi) {
                return Some(blocks * 4 + i);
            }
        }
        None
    }

    /// # Safety
    /// Caller must have verified AVX2 support; `counts` must be non-empty
    /// with `counts.len() <= i32::MAX`, and `values` pre-validated to lie
    /// in the (tolerated) `[lo, hi]` domain so every scaled position fits
    /// the `i32` truncation.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bucket_histogram_avx2(
        counts: &mut [u64],
        values: &[f64],
        lo: f64,
        hi: f64,
    ) {
        let d = counts.len();
        let n = values.len();
        let blocks = n / 4;
        let p = values.as_ptr();
        let lo_v = _mm256_set1_pd(lo);
        let span_v = _mm256_set1_pd(hi - lo);
        let d_v = _mm256_set1_pd(d as f64);
        let zero = _mm_setzero_si128();
        let max_v = _mm_set1_epi32(d as i32 - 1);
        for b in 0..blocks {
            // SAFETY: 4*b + 3 < n by the blocks bound.
            let v = unsafe { _mm256_loadu_pd(p.add(4 * b)) };
            // Identical op sequence to the scalar reference: sub, div, mul
            // (all IEEE-exact), then round-toward-zero truncation.
            let pos = _mm256_mul_pd(_mm256_div_pd(_mm256_sub_pd(v, lo_v), span_v), d_v);
            let idx = _mm256_cvttpd_epi32(pos);
            let idx = _mm_min_epi32(_mm_max_epi32(idx, zero), max_v);
            let mut out = [0i32; 4];
            // SAFETY: out is 16 bytes; storeu has no alignment requirement.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), idx) };
            counts[out[0] as usize] += 1;
            counts[out[1] as usize] += 1;
            counts[out[2] as usize] += 1;
            counts[out[3] as usize] += 1;
        }
        super::bucket_histogram_scalar(counts, &values[blocks * 4..], lo, hi);
    }

    /// # Safety
    /// Caller must have verified AVX2 support; `dst.len() <= 64`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn extract_counter_bits_avx2(
        dst: &mut [u64],
        ones: u64,
        twos: u64,
        fours: u64,
    ) {
        let top = dst.len();
        let lane_offsets = _mm256_set_epi64x(3, 2, 1, 0);
        let one = _mm256_set1_epi64x(1);
        let ones_v = _mm256_set1_epi64x(ones as i64);
        let twos_v = _mm256_set1_epi64x(twos as i64);
        let fours_v = _mm256_set1_epi64x(fours as i64);
        let mut i = 0;
        while i + 4 <= top {
            let sh = _mm256_add_epi64(lane_offsets, _mm256_set1_epi64x(i as i64));
            let o = _mm256_and_si256(_mm256_srlv_epi64(ones_v, sh), one);
            let t = _mm256_and_si256(_mm256_srlv_epi64(twos_v, sh), one);
            let f = _mm256_and_si256(_mm256_srlv_epi64(fours_v, sh), one);
            let add = _mm256_add_epi64(
                o,
                _mm256_add_epi64(_mm256_slli_epi64(t, 1), _mm256_slli_epi64(f, 2)),
            );
            let ptr = dst.as_mut_ptr().wrapping_add(i).cast::<__m256i>();
            // SAFETY: i + 3 < top, so the 4-lane load/store stays in dst.
            let cur = unsafe { _mm256_loadu_si256(ptr) };
            unsafe { _mm256_storeu_si256(ptr, _mm256_add_epi64(cur, add)) };
            i += 4;
        }
        for (j, c) in dst.iter_mut().enumerate().skip(i) {
            *c += ((ones >> j) & 1) + (((twos >> j) & 1) << 1) + (((fours >> j) & 1) << 2);
        }
    }

    /// `a·b mod 2⁶⁴` per lane from three 32×32→64 multiplies
    /// (`vpmuludq`): `lo(a)·lo(b) + ((hi(a)·lo(b) + lo(a)·hi(b)) << 32)`;
    /// the dropped `hi(a)·hi(b)` term is a multiple of 2⁶⁴. `b_hi` is `b`'s
    /// high halves, precomputed for the constant operand.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mullo_epi64(a: __m256i, b: __m256i, b_hi: __m256i) -> __m256i {
        let lo_lo = _mm256_mul_epu32(a, b);
        let hi_lo = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
        let lo_hi = _mm256_mul_epu32(a, b_hi);
        _mm256_add_epi64(
            lo_lo,
            _mm256_slli_epi64::<32>(_mm256_add_epi64(hi_lo, lo_hi)),
        )
    }

    /// # Safety
    /// Caller must have verified AVX2 support; `y < residue.g`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn olh_support_avx2(
        support: &mut [u64],
        value_mix: &[u64],
        seed: u64,
        y: u64,
        residue: ResidueTest,
    ) {
        let n = support.len().min(value_mix.len());
        let blocks = n / 4;
        let splat = |v: u64| _mm256_set1_epi64x(v as i64);
        let (mul0, mul1) = (splat(FINALIZE_MULS[0]), splat(FINALIZE_MULS[1]));
        let (mul0_hi, mul1_hi) = (splat(FINALIZE_MULS[0] >> 32), splat(FINALIZE_MULS[1] >> 32));
        let inverse = splat(residue.inverse);
        let inverse_hi = splat(residue.inverse >> 32);
        let seed_v = splat(seed);
        let gamma = splat(GAMMA);
        // AVX2 compares 64-bit lanes only as signed: flipping the sign bit
        // of both sides turns the unsigned order into the signed one.
        let sign = splat(1 << 63);
        let y_v = splat(y);
        let y_signed = splat(y ^ (1 << 63));
        let limit_signed = splat(residue.limit ^ (1 << 63));
        let rotr = _mm_cvtsi64_si128(i64::from(residue.shift));
        // A left shift by 64 (k = 0) yields zero, so rotr(v, 0) = v.
        let rotl = _mm_cvtsi64_si128(64 - i64::from(residue.shift));
        let one = splat(1);
        let s = support.as_mut_ptr();
        let m = value_mix.as_ptr();
        for b in 0..blocks {
            // SAFETY: 4*b + 3 < n by the blocks bound; loads are unaligned.
            let mix = unsafe { _mm256_loadu_si256(m.add(4 * b).cast()) };
            // mix64(seed ^ mix), lane by lane.
            let z = _mm256_add_epi64(_mm256_xor_si256(seed_v, mix), gamma);
            let z = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[0] as i32 }>(z));
            let z = mullo_epi64(z, mul0, mul0_hi);
            let z = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[1] as i32 }>(z));
            let z = mullo_epi64(z, mul1, mul1_hi);
            let x = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[2] as i32 }>(z));
            // ResidueTest::hit: x ≥ y and rotr((x − y)·o⁻¹, k) ≤ limit.
            let q = mullo_epi64(_mm256_sub_epi64(x, y_v), inverse, inverse_hi);
            let q = _mm256_or_si256(_mm256_srl_epi64(q, rotr), _mm256_sll_epi64(q, rotl));
            let below = _mm256_cmpgt_epi64(y_signed, _mm256_xor_si256(x, sign));
            let over = _mm256_cmpgt_epi64(_mm256_xor_si256(q, sign), limit_signed);
            let add = _mm256_andnot_si256(_mm256_or_si256(below, over), one);
            let ptr = s.wrapping_add(4 * b).cast::<__m256i>();
            // SAFETY: 4*b + 3 < n, so the 4-lane load/store stays in support.
            let cur = unsafe { _mm256_loadu_si256(ptr) };
            unsafe { _mm256_storeu_si256(ptr, _mm256_add_epi64(cur, add)) };
        }
        super::olh_support_scalar(
            &mut support[blocks * 4..n],
            &value_mix[blocks * 4..n],
            seed,
            y,
            residue,
        );
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn draw_window_avx2(state: u64, out: &mut [u64]) {
        let n = out.len();
        let blocks = n / 4;
        let splat = |v: u64| _mm256_set1_epi64x(v as i64);
        let (mul0, mul1) = (splat(FINALIZE_MULS[0]), splat(FINALIZE_MULS[1]));
        let (mul0_hi, mul1_hi) = (splat(FINALIZE_MULS[0] >> 32), splat(FINALIZE_MULS[1] >> 32));
        let lane = |i: u64| state.wrapping_add(i.wrapping_mul(GAMMA)) as i64;
        // Lane j of block b holds the counter state + (4b + j + 1)·γ.
        let mut counter = _mm256_set_epi64x(lane(4), lane(3), lane(2), lane(1));
        let stride = splat(GAMMA.wrapping_mul(4));
        let o = out.as_mut_ptr();
        for b in 0..blocks {
            let z = counter;
            let z = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[0] as i32 }>(z));
            let z = mullo_epi64(z, mul0, mul0_hi);
            let z = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[1] as i32 }>(z));
            let z = mullo_epi64(z, mul1, mul1_hi);
            let z = _mm256_xor_si256(z, _mm256_srli_epi64::<{ FINALIZE_SHIFTS[2] as i32 }>(z));
            // SAFETY: 4*b + 3 < n by the blocks bound; the store is unaligned.
            unsafe { _mm256_storeu_si256(o.add(4 * b).cast(), z) };
            counter = _mm256_add_epi64(counter, stride);
        }
        let done = 4 * blocks as u64;
        super::draw_window_scalar(
            state.wrapping_add(done.wrapping_mul(GAMMA)),
            &mut out[4 * blocks..],
        );
    }
}

// ---------------------------------------------------------------------------
// AVX-512 variant (runtime-dispatched)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{BandLines, BandSweep, ResidueTest, BAND_LANES};
    use crate::rng::{FINALIZE_MULS, FINALIZE_SHIFTS, GAMMA};
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX-512F and AVX-512DQ support;
    /// `y < residue.g`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn olh_support_avx512(
        support: &mut [u64],
        value_mix: &[u64],
        seed: u64,
        y: u64,
        residue: ResidueTest,
    ) {
        let n = support.len().min(value_mix.len());
        let splat = |v: u64| _mm512_set1_epi64(v as i64);
        let (mul0, mul1) = (splat(FINALIZE_MULS[0]), splat(FINALIZE_MULS[1]));
        let inverse = splat(residue.inverse);
        let seed_v = splat(seed);
        let gamma = splat(GAMMA);
        let y_v = splat(y);
        let limit = splat(residue.limit);
        let shift = splat(u64::from(residue.shift));
        let one = splat(1);
        let s = support.as_mut_ptr();
        let m = value_mix.as_ptr();
        let mut i = 0;
        while i < n {
            // A full block, or the tail under a lane mask: masked-off lanes
            // are neither read nor written.
            let lanes: __mmask8 = if n - i >= 8 {
                0xFF
            } else {
                (1u8 << (n - i)) - 1
            };
            // SAFETY: lanes selects only indices i..min(i + 8, n), which are
            // in bounds of both slices; masked-off lanes do not fault.
            let mix = unsafe { _mm512_maskz_loadu_epi64(lanes, m.add(i).cast()) };
            // mix64(seed ^ mix), lane by lane.
            let z = _mm512_add_epi64(_mm512_xor_si512(seed_v, mix), gamma);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[0] }>(z));
            let z = _mm512_mullo_epi64(z, mul0);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[1] }>(z));
            let z = _mm512_mullo_epi64(z, mul1);
            let x = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[2] }>(z));
            // ResidueTest::hit: x ≥ y and rotr((x − y)·o⁻¹, k) ≤ limit.
            let q = _mm512_mullo_epi64(_mm512_sub_epi64(x, y_v), inverse);
            let q = _mm512_rorv_epi64(q, shift);
            let hit = _mm512_mask_cmple_epu64_mask(_mm512_cmpge_epu64_mask(x, y_v), q, limit);
            // SAFETY: as for the load above.
            let cur = unsafe { _mm512_maskz_loadu_epi64(lanes, s.add(i).cast()) };
            let sum = _mm512_mask_add_epi64(cur, hit, cur, one);
            unsafe { _mm512_mask_storeu_epi64(s.add(i).cast(), lanes, sum) };
            i += 8;
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F and AVX-512DQ support.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn draw_window_avx512(state: u64, out: &mut [u64]) {
        let n = out.len();
        let splat = |v: u64| _mm512_set1_epi64(v as i64);
        let (mul0, mul1) = (splat(FINALIZE_MULS[0]), splat(FINALIZE_MULS[1]));
        // Lane j of the block at i holds the counter state + (i + j + 1)·γ.
        let ones_to_eight = _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1);
        let mut counter = _mm512_add_epi64(
            splat(state),
            _mm512_mullo_epi64(ones_to_eight, splat(GAMMA)),
        );
        let stride = splat(GAMMA.wrapping_mul(8));
        let o = out.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let lanes: __mmask8 = if n - i >= 8 {
                0xFF
            } else {
                (1u8 << (n - i)) - 1
            };
            let z = counter;
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[0] }>(z));
            let z = _mm512_mullo_epi64(z, mul0);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[1] }>(z));
            let z = _mm512_mullo_epi64(z, mul1);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<{ FINALIZE_SHIFTS[2] }>(z));
            // SAFETY: lanes selects only indices i..min(i + 8, n), which are
            // in bounds of out; masked-off lanes are not written.
            unsafe { _mm512_mask_storeu_epi64(o.add(i).cast(), lanes, z) };
            counter = _mm512_add_epi64(counter, stride);
            i += 8;
        }
    }

    /// The AVX-512 arm of [`super::band_lines`]: 8 lines per step, lane
    /// `j` replaying [`super::band_lines_scalar`] for line `i + j`. Gathers
    /// dominate its cost, so unlike the scalar reference it reads the edge
    /// lengths at run time: code monomorphized on them measured no faster.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support and passed `lines` and
    /// `sweep` through `check_band`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn band_lines_avx512(lines: &BandLines, sweep: &BandSweep, y: &mut [f64]) {
        let (head, tail) = (lines.head, lines.tail);
        let width = head + tail;
        let n = lines.out.len();
        // check_band bounds `width` by the edge array's length, so no lane
        // sum below wraps or turns negative as a gather offset.
        let splat = |v: usize| _mm512_set1_epi64(v as i64);
        let (x_len, y_len) = (splat(sweep.x.len()), splat(y.len()));
        let (head_v, tail_v) = (splat(head), splat(tail));
        let plateau = _mm512_set1_pd(sweep.plateau);
        let base = _mm512_set1_pd(sweep.base);
        let zero = _mm512_setzero_pd();
        let (x, prefix) = (sweep.x.as_ptr(), sweep.prefix.as_ptr());
        let y_ptr = y.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let lanes: __mmask8 = if n - i >= BAND_LANES {
                0xFF
            } else {
                (1u8 << (n - i)) - 1
            };
            // SAFETY: lanes selects only lines i..min(i + 8, n), in bounds
            // of the three index arrays (check_band: equal lengths n).
            let load = |a: &[u32]| unsafe {
                let v = _mm512_maskz_loadu_epi32(__mmask16::from(lanes), a.as_ptr().add(i).cast());
                _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v))
            };
            let (out, start, run) = (load(lines.out), load(lines.start), load(lines.run));
            let head_end = _mm512_add_epi64(start, head_v);
            let run_end = _mm512_add_epi64(head_end, run);
            // Every index a lane reads or writes lies below these bounds:
            // x below run_end + tail, prefix at most run_end ≤ x.len()
            // (prefix has x.len() + 1 entries), y at out.
            let past_x =
                _mm512_mask_cmpgt_epu64_mask(lanes, _mm512_add_epi64(run_end, tail_v), x_len);
            let past_y = _mm512_mask_cmpge_epu64_mask(lanes, out, y_len);
            assert!(past_x | past_y == 0, "band line out of bounds");
            // SAFETY (gathers and scatter below): the lanes are in bounds
            // by the check above; masked-off lanes are not accessed.
            let gather = |src: *const f64, at: __m512i| unsafe {
                _mm512_mask_i64gather_pd::<8>(zero, lanes, at, src)
            };
            // The block's entry e of its 8 lines sits at e·8 (i is a
            // multiple of 8, so the block starts at i·width). The padded
            // last block makes every such load in bounds.
            let edges = lines.edges[i * width..][..BAND_LANES * width].as_ptr();
            // SAFETY: e < width, so the 8 entries lie in the block slice.
            let edge = |e: usize| unsafe { _mm512_loadu_pd(edges.add(BAND_LANES * e)) };
            let mut acc = _mm512_setzero_pd();
            for h in 0..head {
                let v = gather(x, _mm512_add_epi64(start, splat(h)));
                acc = _mm512_add_pd(acc, _mm512_mul_pd(edge(h), v));
            }
            let window = _mm512_sub_pd(gather(prefix, run_end), gather(prefix, head_end));
            acc = _mm512_add_pd(acc, _mm512_mul_pd(plateau, window));
            for t in 0..tail {
                let v = gather(x, _mm512_add_epi64(run_end, splat(t)));
                acc = _mm512_add_pd(acc, _mm512_mul_pd(edge(head + t), v));
            }
            // SAFETY: as for the gathers; lanes scatter in lane order, so
            // a repeated output keeps the later line's value.
            unsafe { _mm512_mask_i64scatter_pd::<8>(y_ptr, lanes, out, _mm512_add_pd(base, acc)) };
            i += BAND_LANES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use rand::Rng;

    #[test]
    fn dot4_matches_scalar_reference() {
        let mut rng = SplitMix64::new(71);
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 64, 257] {
            let a: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 3.0).collect();
            assert_eq!(
                dot4(&a, &b).to_bits(),
                dot4_scalar(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn range_check_matches_scalar_reference_and_rejects_nan() {
        let vals = [0.1, 0.5, f64::NAN, 0.7];
        assert_eq!(first_out_of_range(&vals, 0.0, 1.0), Some(2));
        assert_eq!(first_out_of_range_scalar(&vals, 0.0, 1.0), Some(2));
        let vals = [0.1, -0.5];
        assert_eq!(first_out_of_range(&vals, 0.0, 1.0), Some(1));
        assert_eq!(first_out_of_range(&[0.0, 1.0], 0.0, 1.0), None);
        assert_eq!(first_out_of_range(&[], 0.0, 1.0), None);
    }

    #[test]
    fn bucket_histogram_matches_scalar_reference() {
        let mut rng = SplitMix64::new(72);
        for d in [1usize, 2, 7, 64, 257] {
            let vals: Vec<f64> = (0..501).map(|_| rng.gen::<f64>() * 1.5 - 0.25).collect();
            let mut a = vec![0u64; d];
            let mut b = vec![0u64; d];
            bucket_histogram(&mut a, &vals, -0.25, 1.25);
            bucket_histogram_scalar(&mut b, &vals, -0.25, 1.25);
            assert_eq!(a, b, "d = {d}");
        }
    }

    #[test]
    fn bitcount_matches_scalar_reference_with_stray_tail_bits() {
        let mut rng = SplitMix64::new(73);
        for d in [1usize, 2, 7, 64, 65, 257] {
            let words = d.div_ceil(64);
            for n_rows in [0usize, 1, 6, 7, 8, 20] {
                let rows: Vec<Vec<u64>> = (0..n_rows)
                    .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
                    .collect();
                let mut a = vec![0u64; d];
                let mut b = vec![0u64; d];
                bitcount_rows(&mut a, rows.iter().map(Vec::as_slice));
                bitcount_rows_scalar(&mut b, rows.iter().map(Vec::as_slice));
                assert_eq!(a, b, "d = {d}, rows = {n_rows}");
            }
        }
    }

    /// The inverse of [`crate::rng::mix64`]: undoes each xor-shift and
    /// multiplies by each multiplier's inverse mod 2⁶⁴, so a test can pick
    /// the hash `x` a lane sees.
    fn unmix64(mut z: u64) -> u64 {
        use crate::rng::{FINALIZE_MULS, FINALIZE_SHIFTS, GAMMA};
        let unshift = |z: u64, s: u32| (0..64).step_by(s as usize).fold(0, |acc, k| acc ^ (z >> k));
        // Both multipliers are odd, so `ResidueTest` holds their inverses.
        let inverse = |a: u64| ResidueTest::new(a).inverse;
        z = unshift(z, FINALIZE_SHIFTS[2]).wrapping_mul(inverse(FINALIZE_MULS[1]));
        z = unshift(z, FINALIZE_SHIFTS[1]).wrapping_mul(inverse(FINALIZE_MULS[0]));
        unshift(z, FINALIZE_SHIFTS[0]).wrapping_sub(GAMMA)
    }

    /// Value mixes that make lane `i` hash to `targets[i % targets.len()]`
    /// under `seed`, over 33 lanes, so each target lands in several 4- and
    /// 8-lane positions.
    fn mixes_hashing_to(targets: &[u64], seed: u64) -> Vec<u64> {
        (0..33)
            .map(|i| unmix64(targets[i % targets.len()]) ^ seed)
            .collect()
    }

    /// Runs `arm` and the scalar reference over every length 0..=33 (each
    /// 4- and 8-lane remainder) and a spread of moduli, seeds and residues
    /// `y < g`, asserting equal counts. Besides the hashes of `0..len`, each
    /// case feeds hashes chosen at the residue test's edges: either side
    /// of `y` and of `g`, and the `x < y` whose wrapped `x − y` is a
    /// multiple of `g`, which only the `x ≥ y` guard rejects.
    fn assert_olh_arm_matches_scalar(arm: impl Fn(&mut [u64], &[u64], u64, u64, ResidueTest)) {
        let mut rng = SplitMix64::new(74);
        for g in [2, 3, 4, 5, 8, 12, 13, 1 << 31, u64::from(u32::MAX)] {
            let residue = ResidueTest::new(g);
            for seed in [0, u64::MAX, rng.gen(), rng.gen()] {
                for y in [0, 1, g / 2, g - 1, rng.gen_range(0..g)] {
                    let wrapped = (y + g - (u64::MAX % g + 1) % g) % g;
                    let targets = [
                        0,
                        y.saturating_sub(1),
                        y,
                        y + 1,
                        g - 1,
                        g,
                        g + y,
                        wrapped,
                        u64::MAX - 1,
                        u64::MAX,
                        rng.gen(),
                    ];
                    let edges = mixes_hashing_to(&targets, seed);
                    for len in 0..=33 {
                        let hashed: Vec<u64> = (0..len as u64).map(crate::rng::mix64).collect();
                        for mixes in [&hashed[..], &edges[..len]] {
                            let start: Vec<u64> = (0..len as u64).map(|i| i * 3).collect();
                            let mut a = start.clone();
                            let mut b = start;
                            arm(&mut a, mixes, seed, y, residue);
                            olh_support_scalar(&mut b, mixes, seed, y, residue);
                            assert_eq!(a, b, "len = {len}, g = {g}, seed = {seed}, y = {y}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unmix64_inverts_mix64() {
        let mut rng = SplitMix64::new(76);
        for x in [0, 1, u64::MAX, rng.gen(), rng.gen()] {
            assert_eq!(crate::rng::mix64(unmix64(x)), x);
        }
    }

    #[test]
    fn olh_support_dispatch_matches_scalar_reference() {
        assert_olh_arm_matches_scalar(olh_support);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn olh_support_avx2_arm_matches_scalar_reference() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: no avx2 on this host");
            return;
        }
        // SAFETY: AVX2 detected above; every case draws y < g.
        assert_olh_arm_matches_scalar(|s, m, seed, y, r| unsafe {
            avx2::olh_support_avx2(s, m, seed, y, r)
        });
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn olh_support_avx512_arm_matches_scalar_reference() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"))
        {
            eprintln!("skipped: no avx512f/avx512dq on this host");
            return;
        }
        // SAFETY: AVX-512F and AVX-512DQ detected above; every case draws
        // y < g.
        assert_olh_arm_matches_scalar(|s, m, seed, y, r| unsafe {
            avx512::olh_support_avx512(s, m, seed, y, r)
        });
    }

    #[test]
    fn residue_test_matches_modulo_and_rejects_out_of_range_residues() {
        let mut rng = SplitMix64::new(75);
        let moduli: [u64; 9] = [2, 3, 6, 7, 64, 96, u32::MAX as u64, 1 << 63, u64::MAX];
        for g in moduli {
            let residue = ResidueTest::new(g);
            for _ in 0..200 {
                let x: u64 = rng.gen();
                let y = x % g;
                assert!(residue.hit(x, y), "x = {x}, g = {g}");
                assert!(!residue.hit(x, y ^ 1), "x = {x}, g = {g}");
                if let Some(above) = y.checked_add(g) {
                    assert!(!residue.hit(x, above), "x = {x}, g = {g}");
                }
            }
        }
        // y ≥ g never matches, even where x − y is a multiple of g.
        let residue = ResidueTest::new(4);
        assert!(!residue.hit(8, 4));
        let mut support = [0u64; 9];
        olh_support(&mut support, &[0; 9], 1, 4, residue);
        assert_eq!(support, [0; 9]);
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let mut rng = SplitMix64::new(77);
        let mut divisors: Vec<u64> = (1..=300).collect();
        divisors.extend([
            1 << 31,
            u64::from(u32::MAX),
            1 << 62,
            (1 << 63) - 1,
            1 << 63,
        ]);
        divisors.extend([(1 << 63) + 1, u64::MAX - 1, u64::MAX]);
        divisors.extend(
            (0..20)
                .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32))
                .map(|d| d.max(1)),
        );
        for d in divisors {
            let div = Divisor::new(d);
            let mut ns = vec![0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            ns.extend((1..=4).map(|k| u64::MAX / d * d - k));
            ns.extend((0..200).map(|_| rng.gen::<u64>()));
            for n in ns {
                assert_eq!(div.div_rem(n), (n / d, n % d), "n = {n}, d = {d}");
                assert_eq!((n / div, n % div), (n / d, n % d), "n = {n}, d = {d}");
            }
        }
    }

    #[test]
    fn simd_flag_is_cached_and_consistent() {
        assert_eq!(simd_enabled(), simd_enabled());
    }
}
