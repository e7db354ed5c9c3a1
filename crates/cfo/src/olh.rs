//! Optimized Local Hashing (OLH, Wang et al., USENIX Security 2017).
//!
//! Each user hashes its value into a small domain of size
//! `g = round(eᵉ) + 1` with a per-user random hash function, then applies
//! GRR over the hashed domain. The aggregator counts, for each domain value
//! `v`, how many reports *support* `v` (i.e. `H_j(v) = y_j`) and inverts:
//! `x̂_v = (C(v)/n - 1/g) / (p - 1/g)`. The resulting variance
//! `4eᵉ / ((eᵉ - 1)² n)` does not grow with the domain size, so OLH wins on
//! large domains (paper §2.1).
//!
//! The per-user hash family is seeded SplitMix64 finalizer mixing — pairwise
//! independence across users is what the estimator needs, and each user
//! drawing an independent 64-bit seed provides it.

use crate::error::CfoError;
use ldp_core::{Domain, Epsilon};
use ldp_numeric::kernels::{olh_support, ResidueTest};
use ldp_numeric::rng::mix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single OLH report: the user's hash seed and the GRR-perturbed hashed
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OlhReport {
    /// Seed identifying the user's hash function.
    pub seed: u64,
    /// The perturbed hash value in `{0, …, g-1}`.
    pub y: u32,
}

/// The OLH frequency oracle; its protocol is the
/// [`ldp_core::Mechanism`] impl in [`crate::mechanism`].
#[derive(Clone)]
pub struct Olh {
    pub(crate) d: usize,
    pub(crate) eps: Epsilon,
    pub(crate) g: usize,
    /// GRR keep-probability over the hashed domain.
    pub(crate) p: f64,
    /// `x % g == y` by multiplication, for the support walk.
    residue: ResidueTest,
    /// `value_mix[v] = mix64(v)`: the report-independent inner hash of
    /// every domain value, computed once at construction.
    value_mix: Box<[u64]>,
}

impl fmt::Debug for Olh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Olh")
            .field("d", &self.d)
            .field("eps", &self.eps)
            .field("g", &self.g)
            .field("p", &self.p)
            .finish_non_exhaustive()
    }
}

/// Evaluates the OLH hash family: maps `value` into `{0, …, g-1}` under
/// hash function `seed`.
#[inline]
#[must_use]
pub fn olh_hash(seed: u64, value: usize, g: usize) -> u32 {
    (mix64(seed ^ mix64(value as u64)) % g as u64) as u32
}

impl Olh {
    /// Creates an OLH oracle with the variance-optimal hash range
    /// `g = round(eᵉ) + 1`, clamped to `[2, u32::MAX]` so hashed values fit
    /// a report's `u32` (from ε ≈ 22.2 up). A smaller `g` keeps ε-LDP: the
    /// keep-probability still has odds exactly eᵉ against each other value.
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Domain::new(d)?;
        Epsilon::new(eps)?;
        let g = (eps.exp().round() + 1.0).clamp(2.0, f64::from(u32::MAX)) as usize;
        Self::with_hash_range(d, eps, g)
    }

    /// Creates an OLH oracle with an explicit hash range
    /// `2 <= g <= u32::MAX` (exposed for the ablation benches).
    pub fn with_hash_range(d: usize, eps: f64, g: usize) -> Result<Self, CfoError> {
        Domain::new(d)?;
        let eps = Epsilon::new(eps)?;
        if !(2..=u32::MAX as usize).contains(&g) {
            return Err(CfoError::InvalidParameter(format!(
                "hash range g must be in [2, {}], got {g}",
                u32::MAX
            )));
        }
        let e = eps.exp();
        let p = e / (e + g as f64 - 1.0);
        Ok(Olh {
            d,
            eps,
            g,
            p,
            residue: ResidueTest::new(g as u64),
            value_mix: (0..d as u64).map(mix64).collect(),
        })
    }

    /// The hash range g.
    #[must_use]
    pub fn hash_range(&self) -> usize {
        self.g
    }

    /// Size `d` of the categorical input domain.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.d
    }

    /// Approximate variance of one frequency estimate from `n` reports
    /// (used for oracle selection and constrained-inference weights).
    #[must_use]
    pub fn estimate_variance(&self, n: usize) -> f64 {
        Self::theoretical_variance(self.eps.get(), n.max(1))
    }

    /// The closed-form per-estimate variance for `n` users (paper §2.1).
    #[must_use]
    pub fn theoretical_variance(eps: f64, n: usize) -> f64 {
        let e = eps.exp();
        4.0 * e / ((e - 1.0) * (e - 1.0) * n as f64)
    }

    /// Adds one report's support pattern to per-value support counts — the
    /// O(d) inversion step of a single absorb, run by the vectorized
    /// [`olh_support`] kernel over the cached value mixes. Exact u64
    /// additions, so the counts equal a reference loop over [`olh_hash`].
    pub(crate) fn add_support(&self, support: &mut [u64], report: &OlhReport) {
        olh_support(
            support,
            &self.value_mix,
            report.seed,
            u64::from(report.y),
            self.residue,
        );
    }

    /// Debiases support counts into frequency estimates.
    pub(crate) fn estimate_from_support(&self, support: &[u64], n: u64) -> Vec<f64> {
        if n == 0 {
            return vec![0.0; self.d];
        }
        let nf = n as f64;
        let inv_g = 1.0 / self.g as f64;
        support
            .iter()
            .map(|&c| (c as f64 / nf - inv_g) / (self.p - inv_g))
            .collect()
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
        assert!(Olh::new(1, 1.0).is_err());
        assert!(Olh::new(16, -1.0).is_err());
        assert!(Olh::with_hash_range(16, 1.0, 1).is_err());
        let o = Olh::new(16, 1.0).unwrap();
        // g = round(e) + 1 = 4.
        assert_eq!(o.hash_range(), 4);
    }

    #[test]
    fn hash_range_saturates_at_u32_max_for_huge_epsilon() {
        // round(eᵉ) + 1 passes u32::MAX near ε = 22.2 and usize near
        // ε = 44.4; both clamp instead of truncating or wrapping.
        for eps in [22.2, 30.0, 43.7, 44.4, 50.0, 700.0, f64::MAX] {
            let o = Olh::new(8, eps).unwrap();
            assert_eq!(o.hash_range(), u32::MAX as usize, "eps = {eps}");
        }
        let below = Olh::new(8, 22.1).unwrap().hash_range();
        assert_eq!(below, 22.1f64.exp().round() as usize + 1);
        assert!(below < u32::MAX as usize);
    }

    #[test]
    fn point_mass_is_unbiased_at_epsilon_30() {
        let o = Olh::new(16, 30.0).unwrap();
        let mut rng = SplitMix64::new(30);
        let est = run(&o, &[5usize; 2_000], &mut rng);
        assert!((est[5] - 1.0).abs() < 0.005, "est[5] = {}", est[5]);
        for (v, e) in est.iter().enumerate().filter(|&(v, _)| v != 5) {
            assert!(e.abs() < 0.005, "est[{v}] = {e}");
        }
    }

    #[test]
    fn explicit_hash_range_past_u32_is_rejected() {
        assert!(Olh::with_hash_range(8, 1.0, 1 << 32).is_err());
        // The largest allowed range randomizes (no `g as u32 - 1` overflow)
        // and absorbs like the reference hash.
        let g = u32::MAX as usize;
        let o = Olh::with_hash_range(8, 1.0, g).unwrap();
        let mut rng = SplitMix64::new(3);
        let mut st = o.empty_state();
        let mut expected = [0u64; 8];
        for v in 0..200 {
            let r = Mechanism::randomize(&o, &(v % 8), &mut rng).unwrap();
            o.absorb(&mut st, &r).unwrap();
            for (u, e) in expected.iter_mut().enumerate() {
                *e += u64::from(olh_hash(r.seed, u, g) == r.y);
            }
        }
        assert_eq!(st.support(), expected);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for seed in 0..100u64 {
            for v in 0..50usize {
                let h = olh_hash(seed, v, 7);
                assert!(h < 7);
                assert_eq!(h, olh_hash(seed, v, 7));
            }
        }
    }

    #[test]
    fn hash_family_is_roughly_uniform() {
        let g = 4;
        let mut counts = vec![0u64; g];
        for seed in 0..40_000u64 {
            counts[olh_hash(seed, 13, g) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn aggregate_is_unbiased_on_large_domain() {
        let d = 64;
        let o = Olh::new(d, 1.0).unwrap();
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        // 50% value 3, 30% value 40, 20% value 63.
        let values: Vec<usize> = (0..n)
            .map(|i| match i % 10 {
                0..=4 => 3,
                5..=7 => 40,
                _ => 63,
            })
            .collect();
        let est = run(&o, &values, &mut rng);
        assert!((est[3] - 0.5).abs() < 0.03, "est[3]={}", est[3]);
        assert!((est[40] - 0.3).abs() < 0.03, "est[40]={}", est[40]);
        assert!((est[63] - 0.2).abs() < 0.03, "est[63]={}", est[63]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let d = 32;
        let eps = 1.0;
        let n = 2_000;
        let trials = 200;
        let o = Olh::new(d, eps).unwrap();
        let values = vec![1usize; n];
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = SplitMix64::new(2000 + t as u64);
            let est = run(&o, &values, &mut rng);
            errs.push(est[0]);
        }
        let emp_var = ldp_numeric::stats::variance(&errs);
        let theory = Olh::theoretical_variance(eps, n);
        let ratio = emp_var / theory;
        assert!(
            (0.6..1.4).contains(&ratio),
            "empirical {emp_var} vs theory {theory}"
        );
    }

    #[test]
    fn variance_beats_grr_on_large_domains() {
        let eps = 1.0;
        let n = 1000;
        let olh_var = Olh::theoretical_variance(eps, n);
        let grr_var = crate::grr::Grr::theoretical_variance(256, eps, n);
        assert!(olh_var < grr_var);
    }

    #[test]
    fn randomize_rejects_out_of_domain() {
        let o = Olh::new(8, 1.0).unwrap();
        let mut rng = SplitMix64::new(1);
        assert!(Mechanism::randomize(&o, &8, &mut rng).is_err());
    }

    #[test]
    fn aggregate_empty_reports_gives_zeros() {
        let o = Olh::new(8, 1.0).unwrap();
        assert_eq!(Mechanism::aggregate(&o, &[]).unwrap(), vec![0.0; 8]);
    }
}
