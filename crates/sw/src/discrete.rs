//! The discrete Square Wave mechanism ("bucketize before randomize",
//! paper §5.4).
//!
//! When the input domain is already discrete (or the client discretizes
//! before randomizing), SW operates on bucket indices: input `v ∈ {0,…,d-1}`
//! maps to output `ṽ ∈ {0,…,d+2b-1}` (output index `j` represents input
//! position `j - b`), reporting near outputs (`|v - (ṽ - b)| ≤ b`, i.e.
//! `ṽ ∈ [v, v+2b]`) with probability `p = eᵉ/((2b+1)eᵉ + d - 1)` and far
//! outputs with `q = 1/((2b+1)eᵉ + d - 1)`.
//!
//! [`DiscreteSw`] implements [`Mechanism`]: the streaming state is the
//! `d + 2b` output-bucket counts and `finalize` runs EMS through the
//! structured [`BandedBaselineOperator`].

use crate::bandwidth::optimal_b_discrete;
use crate::em::{reconstruct, EmConfig};
use crate::error::SwError;
use crate::operator::BandedBaselineOperator;
use ldp_core::params::fingerprint_fields;
use ldp_core::{CoreError, Epsilon, Mechanism};
use ldp_numeric::Histogram;
use rand::Rng;

const TAG_DISCRETE_SW: u64 = 0x23;

/// The discrete square wave randomizer.
#[derive(Debug, Clone)]
pub struct DiscreteSw {
    d: usize,
    b: usize,
    eps: f64,
    p: f64,
    q: f64,
}

impl DiscreteSw {
    /// Creates a discrete SW over `d` buckets with the paper's bandwidth
    /// `b = ⌊b*·d⌋`.
    pub fn new(d: usize, eps: f64) -> Result<Self, SwError> {
        let b = optimal_b_discrete(eps, d)?;
        Self::with_bandwidth(d, b, eps)
    }

    /// Creates a discrete SW with an explicit integer bandwidth.
    pub fn with_bandwidth(d: usize, b: usize, eps: f64) -> Result<Self, SwError> {
        Epsilon::new(eps)?;
        if d < 2 {
            return Err(SwError::InvalidParameter(format!(
                "discrete domain needs at least 2 buckets, got {d}"
            )));
        }
        let e = eps.exp();
        let width = (2 * b + 1) as f64;
        let p = e / (width * e + d as f64 - 1.0);
        let q = 1.0 / (width * e + d as f64 - 1.0);
        Ok(DiscreteSw { d, b, eps, p, q })
    }

    /// Input domain size `d`.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.d
    }

    /// Output domain size `d + 2b`.
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.d + 2 * self.b
    }

    /// The integer bandwidth.
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Near-report probability `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Far-report probability `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The privacy budget.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// The matching structured operator: the discrete band is a pure
    /// plateau (`p` near / `q` far), so both matvecs are strictly `O(d)`.
    pub fn banded_operator(&self) -> Result<BandedBaselineOperator, SwError> {
        BandedBaselineOperator::from_discrete(self.d, self.b, self.eps)
    }
}

impl Mechanism for DiscreteSw {
    type Input = usize;
    type Report = usize;
    /// Report counts per output bucket (`d + 2b` entries).
    type State = Vec<u64>;
    type Output = Histogram;

    fn epsilon(&self) -> Epsilon {
        Epsilon::new(self.eps).expect("validated at construction")
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_fields(
            TAG_DISCRETE_SW,
            &[self.d as u64, self.b as u64, self.eps.to_bits()],
        )
    }

    fn randomize<R: Rng + ?Sized>(&self, input: &usize, rng: &mut R) -> Result<usize, CoreError> {
        let v = *input;
        if v >= self.d {
            return Err(CoreError::InvalidInput(
                SwError::ValueOutOfDomain(v as f64).to_string(),
            ));
        }
        let near = 2 * self.b + 1;
        let near_mass = near as f64 * self.p;
        if rng.gen::<f64>() < near_mass {
            // Uniform over the near window [v, v + 2b].
            Ok(v + rng.gen_range(0..near))
        } else {
            // Uniform over the d - 1 far outputs: all outputs except the
            // near window.
            let far_total = self.output_size() - near;
            let mut idx = rng.gen_range(0..far_total);
            if idx >= v {
                idx += near; // skip the near window, which starts at v
            }
            Ok(idx)
        }
    }

    fn empty_state(&self) -> Vec<u64> {
        vec![0; self.output_size()]
    }

    fn absorb(&self, state: &mut Vec<u64>, report: &usize) -> Result<(), CoreError> {
        let r = *report;
        if r >= self.output_size() {
            return Err(CoreError::InvalidReport(format!(
                "report {r} outside output domain of size {}",
                self.output_size()
            )));
        }
        state[r] += 1;
        Ok(())
    }

    fn merge_state(&self, state: &mut Vec<u64>, other: &Vec<u64>) -> Result<(), CoreError> {
        if state.len() != other.len() {
            return Err(CoreError::ShardMismatch(format!(
                "discrete SW states over {} vs {} output buckets",
                state.len(),
                other.len()
            )));
        }
        for (a, b) in state.iter_mut().zip(other) {
            *a += b;
        }
        Ok(())
    }

    fn finalize(&self, state: &Vec<u64>) -> Result<Histogram, CoreError> {
        if state.iter().all(|&c| c == 0) {
            return Err(CoreError::Aggregation(
                "need at least one report to reconstruct a distribution".into(),
            ));
        }
        let counts: Vec<f64> = state.iter().map(|&c| c as f64).collect();
        self.banded_operator()
            .and_then(|op| reconstruct(&op, &counts, &EmConfig::ems()))
            .map(|r| r.histogram)
            .map_err(|e| CoreError::Aggregation(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::discrete_transition_matrix;
    use ldp_core::{Aggregator, Client};
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_and_probabilities() {
        let sw = DiscreteSw::with_bandwidth(8, 2, 1.0).unwrap();
        assert_eq!(sw.output_size(), 12);
        // Total probability: (2b+1)p + (d-1)q = 1.
        let total = 5.0 * sw.p() + 7.0 * sw.q();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((sw.p() / sw.q() - 1f64.exp()).abs() < 1e-12);
        assert!(DiscreteSw::with_bandwidth(1, 2, 1.0).is_err());
        assert!(DiscreteSw::with_bandwidth(8, 2, 0.0).is_err());
    }

    #[test]
    fn default_bandwidth_tracks_continuous_optimum() {
        let sw = DiscreteSw::new(1024, 1.0).unwrap();
        // b* ≈ 0.256 → ⌊262.x⌋.
        assert!(
            (250..=270).contains(&sw.bandwidth()),
            "b={}",
            sw.bandwidth()
        );
    }

    #[test]
    fn randomize_outputs_cover_expected_window() {
        let sw = DiscreteSw::with_bandwidth(8, 2, 1.0).unwrap();
        let mut rng = SplitMix64::new(121);
        let v = 3;
        let mut counts = vec![0u64; sw.output_size()];
        let n = 200_000;
        for _ in 0..n {
            counts[sw.randomize(&v, &mut rng).unwrap()] += 1;
        }
        for (j, &c) in counts.iter().enumerate() {
            let expect = if (v..=v + 4).contains(&j) {
                sw.p()
            } else {
                sw.q()
            };
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "j={j}: {got} vs {expect}");
        }
    }

    #[test]
    fn randomize_rejects_out_of_domain() {
        let sw = DiscreteSw::with_bandwidth(8, 2, 1.0).unwrap();
        let mut rng = SplitMix64::new(122);
        assert!(sw.randomize(&8, &mut rng).is_err());
    }

    #[test]
    fn boundary_values_have_full_near_window() {
        // v = 0 and v = d-1 still get 2b+1 near outputs thanks to the
        // enlarged output domain.
        let sw = DiscreteSw::with_bandwidth(8, 2, 4.0).unwrap();
        let mut rng = SplitMix64::new(123);
        for &v in &[0usize, 7] {
            let mut near = 0u64;
            let n = 50_000;
            for _ in 0..n {
                let r = sw.randomize(&v, &mut rng).unwrap();
                if (v..=v + 4).contains(&r) {
                    near += 1;
                }
            }
            let frac = near as f64 / n as f64;
            let expect = 5.0 * sw.p();
            assert!((frac - expect).abs() < 0.01, "v={v}: {frac} vs {expect}");
        }
    }

    #[test]
    fn end_to_end_reconstruction_with_ems() {
        let sw = DiscreteSw::new(32, 2.0).unwrap();
        let mut rng = SplitMix64::new(124);
        // Smooth unimodal truth.
        let values: Vec<usize> = (0..120_000)
            .map(|i| {
                let x = (i % 1000) as f64 / 1000.0;
                ((x * 0.5 + 0.25) * 32.0) as usize // uniform over buckets 8..24
            })
            .collect();
        let reports = Client::new(&sw).randomize_batch(&values, &mut rng).unwrap();
        let mut agg = Aggregator::new(&sw);
        agg.push_slice(&reports).unwrap();
        let counts: Vec<f64> = agg.state().iter().map(|&c| c as f64).collect();
        let m = discrete_transition_matrix(sw.domain_size(), sw.bandwidth(), sw.epsilon()).unwrap();
        let result = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        let probs = result.histogram.probs();
        let mass_in_range: f64 = probs[8..24].iter().sum();
        assert!(mass_in_range > 0.8, "mass {mass_in_range}");
        // Finalize reconstructs the same distribution through the
        // structured operator.
        let structured = agg.finalize().unwrap();
        for (a, b) in probs.iter().zip(structured.probs()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn aggregate_validates_reports() {
        let sw = DiscreteSw::with_bandwidth(8, 2, 1.0).unwrap();
        let mut state = sw.empty_state();
        assert!(sw.absorb(&mut state, &12).is_err());
        sw.absorb_slice(&mut state, &[0, 11]).unwrap();
        assert_eq!(state.len(), 12);
        assert_eq!((state[0], state[11]), (1, 1));
        assert!(matches!(
            Aggregator::new(&sw).finalize(),
            Err(CoreError::Aggregation(_))
        ));
    }
}
