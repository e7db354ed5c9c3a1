//! Optimized Unary Encoding (OUE, Wang et al., USENIX Security 2017).
//!
//! Included as an extension beyond the paper's direct comparisons: OUE
//! matches OLH's variance `4eᵉ/((eᵉ-1)²n)` while avoiding the O(n·d)
//! aggregation cost, at the price of d bits of communication per user. The
//! report is a bit vector where the true position keeps its 1 with
//! probability ½ and every other position flips on with probability
//! `1/(eᵉ+1)`.

use crate::error::CfoError;
use ldp_core::{Domain, Epsilon};

/// One OUE report: a packed bit vector over the domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OueReport {
    pub(crate) bits: Vec<u64>,
    pub(crate) len: usize,
}

impl OueReport {
    /// Reassembles a report from its packed words (the wire format);
    /// rejects word counts that do not match `len` or stray bits beyond it.
    pub fn from_words(bits: Vec<u64>, len: usize) -> Result<Self, CfoError> {
        if bits.len() != len.div_ceil(64) {
            return Err(CfoError::InvalidParameter(format!(
                "OUE report needs {} words for {len} bits, got {}",
                len.div_ceil(64),
                bits.len()
            )));
        }
        if !len.is_multiple_of(64) {
            let last = bits[bits.len() - 1];
            if last >> (len % 64) != 0 {
                return Err(CfoError::InvalidParameter(
                    "OUE report has bits set beyond its length".into(),
                ));
            }
        }
        Ok(OueReport { bits, len })
    }

    /// Number of bits (the domain size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the report has zero bits (never true for a valid domain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed 64-bit words backing the report.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Whether bit `i` is set.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }
}

/// The OUE frequency oracle; its protocol is the
/// [`ldp_core::Mechanism`] impl in [`crate::mechanism`].
#[derive(Debug, Clone)]
pub struct Oue {
    pub(crate) d: usize,
    pub(crate) eps: Epsilon,
    /// P(report 1 | true position) = 1/2.
    pub(crate) p: f64,
    /// P(report 1 | other position) = 1/(e^eps + 1).
    pub(crate) q: f64,
}

impl Oue {
    /// Creates an OUE oracle over domain size `d`.
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Domain::new(d)?;
        let eps = Epsilon::new(eps)?;
        Ok(Oue {
            d,
            eps,
            p: 0.5,
            q: 1.0 / (eps.exp() + 1.0),
        })
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

    /// The closed-form per-estimate variance for `n` users.
    #[must_use]
    pub fn theoretical_variance(eps: f64, n: usize) -> f64 {
        let e = eps.exp();
        4.0 * e / ((e - 1.0) * (e - 1.0) * n as f64)
    }

    /// Adds one report's set bits to per-position counts.
    pub(crate) fn add_counts(&self, counts: &mut [u64], report: &OueReport) {
        for (w, &word) in report.bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                let idx = w * 64 + tz;
                if idx < self.d {
                    counts[idx] += 1;
                }
                bits &= bits - 1;
            }
        }
    }

    /// Debiases per-position counts into frequency estimates.
    pub(crate) fn estimate_from_counts(&self, counts: &[u64], n: u64) -> Vec<f64> {
        if n == 0 {
            return vec![0.0; self.d];
        }
        let nf = n as f64;
        counts
            .iter()
            .map(|&c| (c as f64 / nf - self.q) / (self.p - self.q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::run;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;
    use rand::Rng;

    #[test]
    fn construction_validates() {
        assert!(Oue::new(1, 1.0).is_err());
        assert!(Oue::new(4, f64::NAN).is_err());
        assert!(Oue::new(4, 1.0).is_ok());
    }

    #[test]
    fn report_bit_packing_roundtrips() {
        let o = Oue::new(130, 20.0).unwrap();
        let mut rng = SplitMix64::new(31);
        // At eps=20 q ~ 0, p = 1/2: only the true bit can realistically be
        // set across the word boundary at index 129.
        let mut saw_set = false;
        for _ in 0..64 {
            let r = Mechanism::randomize(&o, &129, &mut rng).unwrap();
            for i in 0..129 {
                assert!(!r.get(i), "spurious bit {i}");
            }
            saw_set |= r.get(129);
        }
        assert!(saw_set);
    }

    #[test]
    fn randomize_matches_the_scalar_draw_loop() {
        // The word-at-a-time batched randomizer must replay the scalar
        // per-position `gen::<f64>() < keep_prob` loop exactly: same bits,
        // same generator state afterwards.
        for d in [2usize, 7, 63, 64, 65, 130, 257] {
            let o = Oue::new(d, 1.0).unwrap();
            let value = d / 2;
            let mut rng = SplitMix64::new(9000 + d as u64);
            let r = Mechanism::randomize(&o, &value, &mut rng).unwrap();

            let mut reference = SplitMix64::new(9000 + d as u64);
            let q = 1.0 / (1.0f64.exp() + 1.0);
            for i in 0..d {
                let keep_prob = if i == value { 0.5 } else { q };
                let bit = reference.gen::<f64>() < keep_prob;
                assert_eq!(r.get(i), bit, "d = {d}, bit {i}");
            }
            assert_eq!(rng, reference, "generator state after randomize, d = {d}");
        }
    }

    #[test]
    fn aggregate_is_unbiased() {
        let d = 50;
        let o = Oue::new(d, 1.0).unwrap();
        let mut rng = SplitMix64::new(32);
        let n = 60_000;
        let values: Vec<usize> = (0..n).map(|i| if i % 10 < 7 { 5 } else { 20 }).collect();
        let est = run(&o, &values, &mut rng);
        assert!((est[5] - 0.7).abs() < 0.03, "est[5]={}", est[5]);
        assert!((est[20] - 0.3).abs() < 0.03, "est[20]={}", est[20]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let d = 16;
        let eps = 1.0;
        let n = 2_000;
        let trials = 200;
        let o = Oue::new(d, eps).unwrap();
        let values = vec![1usize; n];
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = SplitMix64::new(4000 + t as u64);
            let est = run(&o, &values, &mut rng);
            errs.push(est[0]);
        }
        let emp_var = ldp_numeric::stats::variance(&errs);
        let theory = Oue::theoretical_variance(eps, n);
        let ratio = emp_var / theory;
        assert!(
            (0.6..1.4).contains(&ratio),
            "empirical {emp_var} vs theory {theory}"
        );
    }

    #[test]
    fn out_of_domain_rejected_and_empty_aggregate() {
        let o = Oue::new(8, 1.0).unwrap();
        let mut rng = SplitMix64::new(3);
        assert!(Mechanism::randomize(&o, &8, &mut rng).is_err());
        assert_eq!(Mechanism::aggregate(&o, &[]).unwrap(), vec![0.0; 8]);
    }
}
