//! Smoothing kernels for the EMS algorithm (paper §5.5).
//!
//! After each M-step, EMS averages every estimate with its neighbours using
//! binomial coefficients — the paper's S-step is the (1, 2, 1)/4 kernel:
//! `x̂ᵢ ← ½x̂ᵢ + ¼(x̂ᵢ₋₁ + x̂ᵢ₊₁)`. At the domain boundary the available
//! weights are renormalized. Wider binomial kernels are provided for the
//! smoothing-strength ablation.

use crate::error::SwError;
use std::ops::Range;

/// A symmetric, normalized smoothing kernel of odd width.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothingKernel {
    weights: Vec<f64>,
}

impl SmoothingKernel {
    /// The paper's kernel: binomial coefficients (1, 2, 1).
    #[must_use]
    pub fn binomial3() -> Self {
        SmoothingKernel {
            weights: vec![1.0, 2.0, 1.0],
        }
    }

    /// A wider binomial kernel (1, 4, 6, 4, 1) for the ablation benches.
    #[must_use]
    pub fn binomial5() -> Self {
        SmoothingKernel {
            weights: vec![1.0, 4.0, 6.0, 4.0, 1.0],
        }
    }

    /// A custom symmetric kernel. Must have odd length, positive entries.
    pub fn custom(weights: Vec<f64>) -> Result<Self, SwError> {
        if weights.is_empty() || weights.len().is_multiple_of(2) {
            return Err(SwError::InvalidParameter(format!(
                "kernel must have odd positive length, got {}",
                weights.len()
            )));
        }
        if weights.iter().any(|&w| !(w > 0.0) || !w.is_finite()) {
            return Err(SwError::InvalidParameter(
                "kernel weights must be positive and finite".into(),
            ));
        }
        let half = weights.len() / 2;
        for k in 0..half {
            if (weights[k] - weights[weights.len() - 1 - k]).abs() > 1e-12 {
                return Err(SwError::InvalidParameter("kernel must be symmetric".into()));
            }
        }
        Ok(SmoothingKernel { weights })
    }

    /// Half-width (number of neighbours on each side).
    #[must_use]
    pub fn radius(&self) -> usize {
        self.weights.len() / 2
    }

    /// The raw (unnormalized) kernel weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Applies the kernel, renormalizing truncated windows at the
    /// boundaries so mass is preserved per-entry before the EM
    /// renormalization.
    #[must_use]
    pub fn smooth(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.smooth_into(x, &mut out);
        out
    }

    /// In-place variant writing into `out` (must have the same length as
    /// `x`); avoids per-iteration allocation in the EMS loop.
    ///
    /// Interior entries, whose window lies wholly inside `x`, skip the
    /// per-tap bounds tests and scale by the full weight sum; only the
    /// `radius()` entries at each end take the renormalizing loop. Both
    /// paths add the taps left to right from `0.0` and the full sum is
    /// formed in the same order, so every entry is bit-identical to the
    /// renormalizing loop run everywhere.
    pub fn smooth_into(&self, x: &[f64], out: &mut [f64]) {
        self.smooth_range(x, out, 0..x.len());
    }

    /// [`Self::smooth_into`] for the entries `range` of `out` only. Entry
    /// `i` reads `x[i − radius..=i + radius]` (clipped to `x`), so the EMS
    /// loop can smooth a prefix of `x` as soon as its windows are final.
    pub(crate) fn smooth_range(&self, x: &[f64], out: &mut [f64], range: Range<usize>) {
        debug_assert_eq!(x.len(), out.len());
        let n = x.len();
        let r = self.radius();
        // `[lo, hi)` are the interior entries of `range`; empty when no
        // window of `range` lies wholly inside `x`.
        let lo = range.start.max(r).min(range.end);
        let hi = range.end.min(n.saturating_sub(r)).max(lo);
        if lo < hi {
            // Here `r ≤ lo` and `hi + r ≤ n`.
            let (x, out) = (&x[lo - r..hi + r], &mut out[lo..hi]);
            match self.weights.len() {
                // The paper's kernel: a fixed-width body the compiler
                // unrolls and vectorizes across entries.
                3 => smooth_interior(&self.weights[..3], x, out),
                _ => smooth_interior(&self.weights, x, out),
            }
        }
        for i in (range.start..lo).chain(hi..range.end) {
            out[i] = self.smooth_at(x, i);
        }
    }

    /// Entry `i` of the smoothed vector, with the weights of taps that fall
    /// outside `x` dropped from the normalization.
    fn smooth_at(&self, x: &[f64], i: usize) -> f64 {
        let r = self.radius() as isize;
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for (k, &w) in self.weights.iter().enumerate() {
            let idx = i as isize + k as isize - r;
            if idx >= 0 && (idx as usize) < x.len() {
                acc += w * x[idx as usize];
                wsum += w;
            }
        }
        acc / wsum
    }
}

/// Smooths every entry of `out` whose window of `weights.len()` taps lies
/// wholly inside `x` (`out[k]` is centred on `x[k + radius]`), dividing by
/// the full weight sum formed left to right. Inlined so a constant-length
/// `weights` fixes the tap loop's trip count.
///
/// When the full sum is a power of two (4 for `binomial3`, 16 for
/// `binomial5`) its reciprocal is exact, and `acc · (1/full)` and
/// `acc / full` are both the correctly rounded value of the same real
/// number, so the loop multiplies instead of dividing.
#[inline(always)]
fn smooth_interior(weights: &[f64], x: &[f64], out: &mut [f64]) {
    let full = weights.iter().fold(0.0, |sum, &w| sum + w);
    let taps = |window: &[f64]| {
        let mut acc = 0.0;
        for (&w, &v) in weights.iter().zip(window) {
            acc += w * v;
        }
        acc
    };
    let windows = out.iter_mut().zip(x.windows(weights.len()));
    match exact_reciprocal(full) {
        Some(scale) => windows.for_each(|(o, window)| *o = taps(window) * scale),
        None => windows.for_each(|(o, window)| *o = taps(window) / full),
    }
}

/// `1/v` when it is exact: `v` and `1/v` are normal powers of two.
fn exact_reciprocal(v: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let r = 1.0 / v;
    (v.is_normal() && r.is_normal() && v.to_bits() & MANTISSA == 0).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The renormalizing loop over every entry, as `smooth_into` ran
    /// before its interior fast path.
    fn reference_smooth(kernel: &SmoothingKernel, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let r = kernel.radius() as isize;
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                let mut wsum = 0.0;
                for (k, &w) in kernel.weights().iter().enumerate() {
                    let idx = i as isize + k as isize - r;
                    if idx >= 0 && (idx as usize) < n {
                        acc += w * x[idx as usize];
                        wsum += w;
                    }
                }
                acc / wsum
            })
            .collect()
    }

    #[test]
    fn fast_path_is_bit_identical_to_the_renormalizing_loop() {
        let kernels = [
            SmoothingKernel::binomial3(),
            SmoothingKernel::binomial5(),
            SmoothingKernel::custom(vec![0.3, 1.7, 2.9, 3.1, 2.9, 1.7, 0.3]).unwrap(),
            // A power-of-two sum (8) from weights that are not: the
            // multiply by the exact reciprocal.
            SmoothingKernel::custom(vec![0.75, 6.5, 0.75]).unwrap(),
            // A sum (3) whose reciprocal is inexact: the divide.
            SmoothingKernel::custom(vec![1.0, 1.0, 1.0]).unwrap(),
        ];
        // Magnitudes from subnormal to near overflow, where a rounding
        // difference between the multiply and the divide would show.
        let scales = [1.0, 1e-310, 3e-300, 1e300];
        for kernel in &kernels {
            for (n, scale) in (1..=16usize).flat_map(|n| scales.map(|s| (n, s))) {
                let x: Vec<f64> = (0..n)
                    .map(|i| (((i * 37 + 11) % 101) as f64 / 101.0 + 1e-3) * scale)
                    .collect();
                let want: Vec<u64> = reference_smooth(kernel, &x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u64> = kernel.smooth(&x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got,
                    want,
                    "weights {:?} n={n} scale {scale:e}",
                    kernel.weights()
                );
            }
        }
    }

    #[test]
    fn smoothing_a_range_matches_the_whole_vector() {
        let x: Vec<f64> = (0..23).map(|i| ((i * 29 + 5) % 31) as f64 + 0.5).collect();
        for kernel in [SmoothingKernel::binomial3(), SmoothingKernel::binomial5()] {
            let whole = kernel.smooth(&x);
            for cut in [0, 1, 2, 3, 11, 20, 21, 22, 23] {
                let mut out = vec![f64::NAN; x.len()];
                kernel.smooth_range(&x, &mut out, 0..cut);
                kernel.smooth_range(&x, &mut out, cut..x.len());
                assert_eq!(out, whole, "cut at {cut}");
            }
        }
    }

    #[test]
    fn reciprocal_is_taken_only_when_exact() {
        assert_eq!(exact_reciprocal(4.0), Some(0.25));
        assert_eq!(exact_reciprocal(16.0), Some(0.0625));
        assert_eq!(exact_reciprocal(0.5), Some(2.0));
        for v in [
            3.0,
            12.9,
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 4.0,
            2f64.powi(-1023),
        ] {
            assert_eq!(exact_reciprocal(v), None, "{v:e}");
        }
    }

    #[test]
    fn binomial3_matches_paper_formula_in_interior() {
        let k = SmoothingKernel::binomial3();
        let x = [0.1, 0.4, 0.2, 0.3];
        let y = k.smooth(&x);
        // Interior: ½xᵢ + ¼(xᵢ₋₁ + xᵢ₊₁).
        assert!((y[1] - (0.5 * 0.4 + 0.25 * (0.1 + 0.2))).abs() < 1e-12);
        assert!((y[2] - (0.5 * 0.2 + 0.25 * (0.4 + 0.3))).abs() < 1e-12);
        // Boundary: weights renormalize to (2, 1)/3.
        assert!((y[0] - (2.0 * 0.1 + 0.4) / 3.0).abs() < 1e-12);
        assert!((y[3] - (2.0 * 0.3 + 0.2) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_vectors_are_fixed_points() {
        for k in [SmoothingKernel::binomial3(), SmoothingKernel::binomial5()] {
            let x = vec![0.125; 8];
            let y = k.smooth(&x);
            for &v in &y {
                assert!((v - 0.125).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn smoothing_reduces_total_variation() {
        let k = SmoothingKernel::binomial3();
        let x = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let y = k.smooth(&x);
        let tv = |v: &[f64]| -> f64 { v.windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(tv(&y) < tv(&x));
    }

    #[test]
    fn wider_kernel_smooths_more() {
        let x: Vec<f64> = (0..16).map(|i| if i == 8 { 1.0 } else { 0.0 }).collect();
        let y3 = SmoothingKernel::binomial3().smooth(&x);
        let y5 = SmoothingKernel::binomial5().smooth(&x);
        assert!(y5[8] < y3[8], "peak should flatten more under binomial5");
    }

    #[test]
    fn custom_kernel_validation() {
        assert!(SmoothingKernel::custom(vec![]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0, 3.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, -2.0, 1.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0, 1.0]).is_ok());
        assert_eq!(SmoothingKernel::custom(vec![1.0]).unwrap().radius(), 0);
    }

    #[test]
    fn single_bucket_vector_is_unchanged() {
        let k = SmoothingKernel::binomial3();
        assert_eq!(k.smooth(&[1.0]), vec![1.0]);
    }

    #[test]
    fn smoothing_preserves_nonnegativity() {
        let k = SmoothingKernel::binomial5();
        let x = [0.0, 0.9, 0.0, 0.0, 0.1, 0.0];
        assert!(k.smooth(&x).iter().all(|&v| v >= 0.0));
    }
}
