//! The discrete Haar transform and the HaarHRR estimator
//! (Kulkarni et al., PVLDB 2019; paper §4.2).
//!
//! A binary tree is built over the `d = 2^h` buckets. An inner node `a` at
//! height `m` represents the Haar coefficient
//! `c_a = (C_l − C_r) / 2^{m/2}` where `C_l`/`C_r` are the leaf sums of its
//! left/right subtrees. Under LDP, each user is assigned a uniform level and
//! privatizes its one-hot (coefficient index, sign) pair with Hadamard
//! Randomized Response; the aggregator forms unbiased coefficient estimates
//! and inverts the transform. The root total is public (1), which the
//! inverse transform uses directly.

use crate::error::HierarchyError;
use crate::tree::TreeShape;
use ldp_cfo::Hrr;

/// Haar coefficients of a length-`2^h` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct HaarCoefficients {
    /// Sum of all leaves.
    pub total: f64,
    /// `details[m-1][k]` is the coefficient of the height-`m` node `k`
    /// (so `details[m-1]` has `2^h / 2^m` entries).
    pub details: Vec<Vec<f64>>,
}

/// Forward discrete Haar transform. `leaves.len()` must be a power of two
/// of at least 2.
pub fn haar_forward(leaves: &[f64]) -> Result<HaarCoefficients, HierarchyError> {
    let d = leaves.len();
    if d < 2 || !d.is_power_of_two() {
        return Err(HierarchyError::InvalidParameter(format!(
            "Haar transform needs a power-of-two length >= 2, got {d}"
        )));
    }
    let h = d.trailing_zeros() as usize;
    let mut sums = leaves.to_vec();
    let mut details = Vec::with_capacity(h);
    for m in 1..=h {
        let scale = 2f64.powf(m as f64 / 2.0);
        let mut next = Vec::with_capacity(sums.len() / 2);
        let mut det = Vec::with_capacity(sums.len() / 2);
        for pair in sums.chunks_exact(2) {
            next.push(pair[0] + pair[1]);
            det.push((pair[0] - pair[1]) / scale);
        }
        details.push(det);
        sums = next;
    }
    Ok(HaarCoefficients {
        total: sums[0],
        details,
    })
}

/// Inverse discrete Haar transform.
pub fn haar_inverse(coeffs: &HaarCoefficients) -> Result<Vec<f64>, HierarchyError> {
    let h = coeffs.details.len();
    if h == 0 {
        return Err(HierarchyError::InvalidParameter(
            "need at least one detail level".into(),
        ));
    }
    for (i, level) in coeffs.details.iter().enumerate() {
        let expected = 1usize << (h - 1 - i);
        if level.len() != expected {
            return Err(HierarchyError::InvalidParameter(format!(
                "detail level {i} has {} coefficients, expected {expected}",
                level.len()
            )));
        }
    }
    let mut sums = vec![coeffs.total];
    for m in (1..=h).rev() {
        let scale = 2f64.powf(m as f64 / 2.0);
        let det = &coeffs.details[m - 1];
        let mut next = Vec::with_capacity(sums.len() * 2);
        for (s, c) in sums.iter().zip(det.iter()) {
            let diff = c * scale;
            next.push((s + diff) / 2.0);
            next.push((s - diff) / 2.0);
        }
        sums = next;
    }
    Ok(sums)
}

/// The HaarHRR distribution estimator.
#[derive(Debug, Clone)]
pub struct HaarHrr {
    shape: TreeShape,
    eps: f64,
    /// Per-height HRR oracles over the (coefficient, sign) item domains
    /// (index `m - 1` for heights 1..=h), built once at construction.
    oracles: Vec<Hrr>,
}

impl HaarHrr {
    /// Creates a HaarHRR estimator over `d` buckets (`d` must be a power of
    /// two) with budget `eps`.
    pub fn new(d: usize, eps: f64) -> Result<Self, HierarchyError> {
        let shape = TreeShape::new(2, d)?;
        ldp_core::Epsilon::new(eps)?;
        let leaves = shape.leaves();
        let oracles = (1..=shape.height())
            .map(|m| Hrr::new(2 * (leaves >> m), eps))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HaarHrr {
            shape,
            eps,
            oracles,
        })
    }

    /// The HRR oracle serving coefficient height `m` (1..=h).
    pub(crate) fn height_oracle(&self, m: usize) -> &Hrr {
        &self.oracles[m - 1]
    }

    /// The tree geometry.
    #[must_use]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{Client, CoreError, Mechanism};
    use ldp_numeric::SplitMix64;

    /// Randomizes every value through `est` on `rng` and aggregates the
    /// leaf estimates.
    fn stream_leaves(
        est: &HaarHrr,
        values: &[usize],
        rng: &mut SplitMix64,
    ) -> Result<Vec<f64>, CoreError> {
        let reports = Client::new(est).randomize_batch(values, rng)?;
        est.aggregate(&reports)
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let leaves = vec![0.1, 0.25, 0.05, 0.2, 0.15, 0.05, 0.1, 0.1];
        let c = haar_forward(&leaves).unwrap();
        let back = haar_inverse(&c).unwrap();
        for (a, b) in leaves.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_matches_definition_on_small_input() {
        // leaves [3, 1]: total 4, c = (3-1)/sqrt(2).
        let c = haar_forward(&[3.0, 1.0]).unwrap();
        assert!((c.total - 4.0).abs() < 1e-12);
        assert!((c.details[0][0] - 2.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn coefficient_levels_have_expected_sizes() {
        let c = haar_forward(&[0.0; 16]).unwrap();
        assert_eq!(c.details.len(), 4);
        assert_eq!(c.details[0].len(), 8); // height 1
        assert_eq!(c.details[3].len(), 1); // height 4 (root split)
    }

    #[test]
    fn transform_validates_lengths() {
        assert!(haar_forward(&[1.0]).is_err());
        assert!(haar_forward(&[1.0, 2.0, 3.0]).is_err());
        let mut c = haar_forward(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        c.details[0].pop();
        assert!(haar_inverse(&c).is_err());
        assert!(haar_inverse(&HaarCoefficients {
            total: 1.0,
            details: vec![]
        })
        .is_err());
    }

    #[test]
    fn transform_preserves_energy() {
        // The normalized Haar basis is orthonormal, so
        // ||x||² = total²/d + Σ c² · (per-level scaling).
        // Check the simpler Parseval surrogate: roundtrip stability on a
        // random-ish vector.
        let leaves: Vec<f64> = (0..32).map(|i| ((i * 37 + 11) % 17) as f64).collect();
        let back = haar_inverse(&haar_forward(&leaves).unwrap()).unwrap();
        for (a, b) in leaves.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn haarhrr_construction_validates() {
        assert!(HaarHrr::new(1024, 1.0).is_ok());
        assert!(HaarHrr::new(100, 1.0).is_err());
        assert!(HaarHrr::new(16, -1.0).is_err());
    }

    #[test]
    fn haarhrr_high_epsilon_recovers_distribution() {
        let est = HaarHrr::new(16, 8.0).unwrap();
        let mut rng = SplitMix64::new(81);
        let values: Vec<usize> = (0..80_000)
            .map(|i| if i % 4 == 0 { 3 } else { 12 })
            .collect();
        let leaves = stream_leaves(&est, &values, &mut rng).unwrap();
        assert!((leaves[3] - 0.25).abs() < 0.05, "leaf3={}", leaves[3]);
        assert!((leaves[12] - 0.75).abs() < 0.05, "leaf12={}", leaves[12]);
        let sum: f64 = leaves.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "leaves always sum to the public total"
        );
    }

    #[test]
    fn haarhrr_leaves_sum_to_one_even_when_noisy() {
        // The inverse transform pins the total to 1 regardless of noise.
        let est = HaarHrr::new(32, 0.5).unwrap();
        let mut rng = SplitMix64::new(82);
        let values: Vec<usize> = (0..5_000).map(|i| i % 32).collect();
        let leaves = stream_leaves(&est, &values, &mut rng).unwrap();
        let sum: f64 = leaves.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn haarhrr_rejects_bad_input() {
        let est = HaarHrr::new(16, 1.0).unwrap();
        let mut rng = SplitMix64::new(83);
        assert!(stream_leaves(&est, &[], &mut rng).is_err());
        assert!(stream_leaves(&est, &[16], &mut rng).is_err());
    }
}
