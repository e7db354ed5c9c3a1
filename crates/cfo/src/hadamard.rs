//! Hadamard Randomized Response (HRR) and the fast Walsh–Hadamard
//! transform.
//!
//! HRR is local hashing with `g = 2` where the hash family is the rows of a
//! Hadamard matrix: user `j` with value `x` picks a uniform row `r_j`,
//! computes the entry `φ[r_j, x] ∈ {-1, +1}`, flips it with probability
//! `1/(eᵉ+1)`, and reports `(r_j, bit)`. The aggregator recovers unbiased
//! estimates of the Walsh–Hadamard spectrum of the frequency vector and
//! inverts it with the O(D log D) fast transform. This is the frequency
//! oracle Kulkarni et al. (PVLDB '19) use inside HaarHRR; the paper calls it
//! "Hadamard random response" (§4.2).

use crate::error::CfoError;
use ldp_core::{Domain, Epsilon};

/// Entry `φ[r, c] ∈ {-1, +1}` of the (Sylvester) Hadamard matrix of any
/// power-of-two order: `(-1)^(popcount(r & c))`.
#[inline]
#[must_use]
pub fn hadamard_entry(r: usize, c: usize) -> f64 {
    if (r & c).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// In-place fast Walsh–Hadamard transform. `data.len()` must be a power of
/// two. Applying it twice multiplies by `data.len()`.
pub fn fwht(data: &mut [f64]) -> Result<(), CfoError> {
    let n = data.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(CfoError::InvalidParameter(format!(
            "FWHT length must be a power of two, got {n}"
        )));
    }
    let mut h = 1;
    while h < n {
        for chunk in data.chunks_mut(2 * h) {
            let (a, b) = chunk.split_at_mut(h);
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                let (u, v) = (*x, *y);
                *x = u + v;
                *y = u - v;
            }
        }
        h *= 2;
    }
    Ok(())
}

/// Next power of two at or above `d`.
#[must_use]
pub fn next_pow2(d: usize) -> usize {
    d.next_power_of_two()
}

/// One HRR report: the chosen Hadamard row and the perturbed ±1 entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HrrReport {
    /// Row index in the padded Hadamard matrix.
    pub row: u32,
    /// The perturbed matrix entry, `+1` or `-1`.
    pub bit: i8,
}

/// The HRR frequency oracle; its protocol is the
/// [`ldp_core::Mechanism`] impl in [`crate::mechanism`].
#[derive(Debug, Clone)]
pub struct Hrr {
    pub(crate) d: usize,
    /// Domain padded to a power of two.
    pub(crate) padded: usize,
    pub(crate) eps: Epsilon,
    /// Probability of keeping the true bit.
    pub(crate) p: f64,
}

impl Hrr {
    /// Creates an HRR oracle over domain size `d` (padded internally to the
    /// next power of two).
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Domain::new(d)?;
        let eps = Epsilon::new(eps)?;
        let e = eps.exp();
        Ok(Hrr {
            d,
            padded: next_pow2(d),
            eps,
            p: e / (e + 1.0),
        })
    }

    /// Size of the padded (power-of-two) report domain.
    #[must_use]
    pub fn padded_size(&self) -> usize {
        self.padded
    }

    /// Size `d` of the categorical input domain.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.d
    }

    /// Approximate variance of one frequency estimate from `n` reports.
    #[must_use]
    pub fn estimate_variance(&self, n: usize) -> f64 {
        Self::theoretical_variance(self.eps.get(), n.max(1))
    }

    /// Approximate per-estimate variance: HRR behaves like local hashing
    /// with g = 2, giving `(eᵉ+1)² / ((eᵉ-1)² n)`.
    #[must_use]
    pub fn theoretical_variance(eps: f64, n: usize) -> f64 {
        let e = eps.exp();
        (e + 1.0) * (e + 1.0) / ((e - 1.0) * (e - 1.0) * n as f64)
    }

    /// Inverts integer per-row bit sums into frequency estimates. Summing
    /// the ±1 bits in `i64` is exact, so shard merges are exact too.
    pub(crate) fn estimate_from_spectrum(&self, spectrum: &[i64], n: u64) -> Vec<f64> {
        if n == 0 {
            return vec![0.0; self.d];
        }
        let mut spec: Vec<f64> = spectrum.iter().map(|&c| c as f64).collect();
        let gamma = 2.0 * self.p - 1.0; // (e^eps - 1)/(e^eps + 1)
        let scale = self.padded as f64 / (n as f64 * gamma);
        for s in &mut spec {
            *s *= scale;
        }
        // Invert: f = (1/D) * H * spectrum.
        fwht(&mut spec).expect("padded size is a power of two");
        let inv_d = 1.0 / self.padded as f64;
        spec.truncate(self.d);
        for s in &mut spec {
            *s *= inv_d;
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs mirror the matrix
    fn hadamard_entries_match_small_matrix() {
        // Order-4 Sylvester matrix.
        let expected = [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ];
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(hadamard_entry(r, c), expected[r][c], "({r},{c})");
            }
        }
    }

    #[test]
    fn hadamard_rows_are_orthogonal() {
        let d = 16;
        for r1 in 0..d {
            for r2 in 0..d {
                let dot: f64 = (0..d)
                    .map(|c| hadamard_entry(r1, c) * hadamard_entry(r2, c))
                    .sum();
                let expected = if r1 == r2 { d as f64 } else { 0.0 };
                assert_eq!(dot, expected);
            }
        }
    }

    #[test]
    fn fwht_twice_is_scaling() {
        let mut data = vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.0, -1.0, 2.0];
        let original = data.clone();
        fwht(&mut data).unwrap();
        fwht(&mut data).unwrap();
        for (a, b) in data.iter().zip(&original) {
            assert!((a - b * 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fwht_matches_matrix_multiply() {
        let mut data = vec![0.3, 0.1, 0.4, 0.2];
        let original = data.clone();
        fwht(&mut data).unwrap();
        for (r, &got) in data.iter().enumerate() {
            let direct: f64 = original
                .iter()
                .enumerate()
                .map(|(c, &v)| hadamard_entry(r, c) * v)
                .sum();
            assert!((got - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn fwht_rejects_non_power_of_two() {
        assert!(fwht(&mut [1.0, 2.0, 3.0]).is_err());
        assert!(fwht(&mut []).is_err());
    }

    #[test]
    fn aggregate_is_unbiased_with_padding() {
        // Domain 12 pads to 16; estimates must still be unbiased.
        let d = 12;
        let h = Hrr::new(d, 2.0).unwrap();
        assert_eq!(h.padded_size(), 16);
        let mut rng = SplitMix64::new(21);
        let n = 150_000;
        let values: Vec<usize> = (0..n).map(|i| if i % 4 == 0 { 2 } else { 9 }).collect();
        let est = run(&h, &values, &mut rng);
        assert!((est[2] - 0.25).abs() < 0.03, "est[2]={}", est[2]);
        assert!((est[9] - 0.75).abs() < 0.03, "est[9]={}", est[9]);
        for (v, &e) in est.iter().enumerate() {
            if v != 2 && v != 9 {
                assert!(e.abs() < 0.03, "est[{v}]={e}");
            }
        }
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let d = 16;
        let eps = 1.0;
        let n = 2_000;
        let trials = 200;
        let h = Hrr::new(d, eps).unwrap();
        let values = vec![1usize; n];
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = SplitMix64::new(3000 + t as u64);
            let est = run(&h, &values, &mut rng);
            errs.push(est[0]);
        }
        let emp_var = ldp_numeric::stats::variance(&errs);
        let theory = Hrr::theoretical_variance(eps, n);
        let ratio = emp_var / theory;
        assert!(
            (0.6..1.4).contains(&ratio),
            "empirical {emp_var} vs theory {theory}"
        );
    }

    #[test]
    fn randomize_emits_valid_reports() {
        let h = Hrr::new(10, 1.0).unwrap();
        let mut rng = SplitMix64::new(5);
        for v in 0..10 {
            let r = Mechanism::randomize(&h, &v, &mut rng).unwrap();
            assert!(r.row < 16);
            assert!(r.bit == 1 || r.bit == -1);
        }
        assert!(Mechanism::randomize(&h, &10, &mut rng).is_err());
    }
}
