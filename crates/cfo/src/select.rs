//! Variance-driven oracle selection (paper §4.1: "one chooses either OLH or
//! GRR, based on which one gives lower estimation variance").

use crate::error::CfoError;
use crate::grr::Grr;
use crate::olh::{Olh, OlhReport};

/// Which base oracle the selector picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Generalized Randomized Response.
    Grr,
    /// Optimized Local Hashing.
    Olh,
}

/// Picks GRR or OLH by comparing their closed-form variances:
/// GRR wins iff `d - 2 + eᵉ < 4eᵉ`, i.e. `d < 3eᵉ + 2`.
#[must_use]
pub fn choose_oracle(d: usize, eps: f64) -> OracleKind {
    let e = eps.exp();
    if (d as f64) < 3.0 * e + 2.0 {
        OracleKind::Grr
    } else {
        OracleKind::Olh
    }
}

/// A report from the adaptive oracle, tagged by the underlying protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveReport {
    /// A GRR report.
    Grr(usize),
    /// An OLH report.
    Olh(OlhReport),
}

/// A frequency oracle that delegates to GRR or OLH, whichever has lower
/// variance for the given `(d, ε)`.
#[derive(Debug, Clone)]
pub enum AdaptiveOracle {
    /// GRR was selected.
    Grr(Grr),
    /// OLH was selected.
    Olh(Olh),
}

impl AdaptiveOracle {
    /// Creates the lower-variance oracle for this `(d, ε)`.
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Ok(match choose_oracle(d, eps) {
            OracleKind::Grr => AdaptiveOracle::Grr(Grr::new(d, eps)?),
            OracleKind::Olh => AdaptiveOracle::Olh(Olh::new(d, eps)?),
        })
    }

    /// Which protocol is in use.
    #[must_use]
    pub fn kind(&self) -> OracleKind {
        match self {
            AdaptiveOracle::Grr(_) => OracleKind::Grr,
            AdaptiveOracle::Olh(_) => OracleKind::Olh,
        }
    }

    /// Size `d` of the categorical input domain.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        match self {
            AdaptiveOracle::Grr(o) => o.domain_size(),
            AdaptiveOracle::Olh(o) => o.domain_size(),
        }
    }

    /// Approximate variance of one frequency estimate from `n` reports, of
    /// whichever protocol was selected.
    #[must_use]
    pub fn estimate_variance(&self, n: usize) -> f64 {
        match self {
            AdaptiveOracle::Grr(o) => o.estimate_variance(n),
            AdaptiveOracle::Olh(o) => o.estimate_variance(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_numeric::SplitMix64;

    #[test]
    fn crossover_follows_variance_formulas() {
        // At eps=1: 3e + 2 ≈ 10.15, so d=8 -> GRR, d=16 -> OLH.
        assert_eq!(choose_oracle(8, 1.0), OracleKind::Grr);
        assert_eq!(choose_oracle(16, 1.0), OracleKind::Olh);
        // Large eps pushes the crossover right.
        assert_eq!(choose_oracle(64, 3.5), OracleKind::Grr);
        // Tiny eps: OLH as soon as d exceeds ~5.
        assert_eq!(choose_oracle(6, 0.1), OracleKind::Olh);
    }

    #[test]
    fn crossover_matches_explicit_variance_comparison() {
        for &d in &[4usize, 8, 16, 64, 256] {
            for &eps in &[0.5, 1.0, 2.0, 3.0] {
                let grr = Grr::theoretical_variance(d, eps, 1000);
                let olh = Olh::theoretical_variance(eps, 1000);
                let expected = if grr < olh {
                    OracleKind::Grr
                } else {
                    OracleKind::Olh
                };
                assert_eq!(choose_oracle(d, eps), expected, "d={d} eps={eps}");
            }
        }
    }

    #[test]
    fn adaptive_oracle_runs_end_to_end() {
        for &(d, eps) in &[(4usize, 1.0), (64usize, 1.0)] {
            let o = AdaptiveOracle::new(d, eps).unwrap();
            let mut rng = SplitMix64::new(51);
            let values: Vec<usize> = (0..50_000).map(|i| i % 2).collect();
            let est = run(&o, &values, &mut rng);
            assert!((est[0] - 0.5).abs() < 0.05, "d={d}: est[0]={}", est[0]);
            assert!((est[1] - 0.5).abs() < 0.05, "d={d}: est[1]={}", est[1]);
        }
    }

    #[test]
    fn adaptive_kind_is_consistent() {
        let o = AdaptiveOracle::new(4, 1.0).unwrap();
        assert_eq!(o.kind(), OracleKind::Grr);
        let o = AdaptiveOracle::new(1024, 1.0).unwrap();
        assert_eq!(o.kind(), OracleKind::Olh);
    }
}
