//! CFO with binning (paper §4.1): the baseline distribution estimator that
//! discretizes `[0, 1]` into `c` bins, runs the lower-variance CFO (GRR or
//! OLH) over the bins, repairs the estimate with Norm-Sub, and spreads each
//! bin's mass uniformly to reach the evaluation granularity `d`.
//!
//! The bin count trades noise against bias (§4.1 "Challenge of Choosing Bin
//! Size"): more bins mean more noise per bin, fewer bins mean more
//! within-bin bias. The paper reports c ∈ {16, 32, 64}.

use crate::error::CfoError;
use crate::select::AdaptiveOracle;

/// The "CFO with binning" distribution estimator: bin → randomize →
/// aggregate → Norm-Sub → uniform expansion, run through its
/// [`ldp_core::Mechanism`] impl in [`crate::mechanism`].
#[derive(Debug, Clone)]
pub struct BinningEstimator {
    bins: usize,
    target_d: usize,
    oracle: AdaptiveOracle,
}

impl BinningEstimator {
    /// Creates an estimator with `bins` CFO bins, reporting the final
    /// distribution at `target_d` buckets (`bins` must divide `target_d`).
    pub fn new(bins: usize, target_d: usize, eps: f64) -> Result<Self, CfoError> {
        ldp_core::Domain::new(bins)?;
        if target_d == 0 || !target_d.is_multiple_of(bins) {
            return Err(CfoError::InvalidParameter(format!(
                "bin count {bins} must divide the target granularity {target_d}"
            )));
        }
        Ok(BinningEstimator {
            bins,
            target_d,
            oracle: AdaptiveOracle::new(bins, eps)?,
        })
    }

    /// Number of CFO bins `c`.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Final histogram granularity `d`.
    #[must_use]
    pub fn target_d(&self) -> usize {
        self.target_d
    }

    /// Which base oracle was selected for the bin domain.
    #[must_use]
    pub fn oracle_kind(&self) -> crate::select::OracleKind {
        self.oracle.kind()
    }

    /// The adaptive oracle the `Mechanism` impl delegates to.
    pub(crate) fn oracle(&self) -> &AdaptiveOracle {
        &self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_validates() {
        assert!(BinningEstimator::new(1, 256, 1.0).is_err());
        assert!(BinningEstimator::new(16, 100, 1.0).is_err());
        assert!(BinningEstimator::new(16, 0, 1.0).is_err());
        assert!(BinningEstimator::new(16, 256, 1.0).is_ok());
    }

    #[test]
    fn estimate_returns_valid_distribution() {
        let est = BinningEstimator::new(16, 256, 1.0).unwrap();
        let mut rng = SplitMix64::new(61);
        let values: Vec<f64> = (0..20_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let h = run(&est, &values, &mut rng);
        assert_eq!(h.len(), 256);
        assert!(h.probs().iter().all(|&p| p >= 0.0));
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_recovers_concentrated_mass() {
        // All users in [0.5, 0.5625) = bin 8 of 16.
        let est = BinningEstimator::new(16, 256, 4.0).unwrap();
        let mut rng = SplitMix64::new(62);
        let values = vec![0.53; 50_000];
        let h = run(&est, &values, &mut rng);
        let mass_in_bin: f64 = h.range_mass(0.5, 0.5625);
        assert!(mass_in_bin > 0.9, "mass {mass_in_bin}");
    }

    #[test]
    fn estimate_rejects_empty_input() {
        let est = BinningEstimator::new(16, 256, 1.0).unwrap();
        assert!(Mechanism::aggregate(&est, &[]).is_err());
    }

    #[test]
    fn small_bin_count_uses_grr_large_uses_olh() {
        use crate::select::OracleKind;
        let small = BinningEstimator::new(8, 256, 1.0).unwrap();
        assert_eq!(small.oracle_kind(), OracleKind::Grr);
        let large = BinningEstimator::new(64, 256, 1.0).unwrap();
        assert_eq!(large.oracle_kind(), OracleKind::Olh);
    }

    #[test]
    fn coarser_bins_have_flat_within_bin_density() {
        let est = BinningEstimator::new(4, 16, 8.0).unwrap();
        let mut rng = SplitMix64::new(64);
        let values = vec![0.1; 20_000];
        let h = run(&est, &values, &mut rng);
        // Buckets 0..4 (the first bin) should carry equal mass.
        let p = h.probs();
        for i in 1..4 {
            assert!((p[i] - p[0]).abs() < 1e-12);
        }
    }
}
