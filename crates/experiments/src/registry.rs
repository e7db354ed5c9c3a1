//! Trait-object registry dispatch over the unified `ldp-core` API.
//!
//! Every estimation method in the evaluation is driven through the same
//! streaming loop: map each dataset value to the mechanism's input type,
//! perturb it on the client side ([`Mechanism::randomize_block`], block by
//! block), push the wire reports into an [`Aggregator`], and adapt the
//! finalized output into an [`Estimate`].
//! [`MethodRunner`] erases the mechanism's associated types so the grid
//! executor dispatches through one trait object; what used to be
//! per-mechanism randomize/aggregate match arms in `run_method` is now a
//! thin constructor table in [`crate::methods::Method::runner`].

use crate::error::ExperimentError;
use crate::methods::Estimate;
use ldp_core::{Aggregator, Mechanism};
use ldp_mean::MeanVariance;
use ldp_numeric::SplitMix64;

/// How many reports the streaming loop buffers before a bulk
/// `push_slice`: keeps per-report overhead off the hot path while holding
/// O(block) memory (the aggregator state itself is O(d̃)).
const INGEST_BLOCK: usize = 8 * 1024;

/// An erased, ready-to-run estimation method: one trial = one streaming
/// pass over the population.
pub trait MethodRunner: Send + Sync {
    /// Runs one trial over the users' private values in `[0, 1]`.
    fn run(&self, values: &[f64], rng: &mut SplitMix64) -> Result<Estimate, ExperimentError>;
}

/// The generic streaming runner: a mechanism plus input/output adapters.
///
/// `to_input` maps a dataset value in `[0, 1]` to the mechanism's input
/// domain (identity, bucketization, or the signed transform); `to_estimate`
/// adapts the mechanism output into the evaluation's [`Estimate`] currency
/// (possibly applying post-processing such as constrained inference or
/// ADMM, which the paper treats as server-side estimation choices).
pub(crate) struct Streaming<M, FIn, FOut> {
    pub(crate) mechanism: M,
    pub(crate) to_input: FIn,
    pub(crate) to_estimate: FOut,
}

/// Streams `values` through `mechanism` on `rng`, randomizing and
/// bulk-ingesting in fixed-size blocks, and finalizes the estimate. Each
/// block goes through [`Mechanism::randomize_block`], which equals one
/// `randomize` per input on the same stream.
pub(crate) fn stream<M>(
    mechanism: &M,
    mut inputs: impl Iterator<Item = M::Input>,
    rng: &mut SplitMix64,
) -> Result<M::Output, ExperimentError>
where
    M: Mechanism,
    M::Input: Sized,
{
    let mut agg = Aggregator::new(mechanism);
    let mut values = Vec::with_capacity(INGEST_BLOCK);
    let mut block = Vec::with_capacity(INGEST_BLOCK);
    loop {
        values.clear();
        values.extend(inputs.by_ref().take(INGEST_BLOCK));
        if values.is_empty() {
            break;
        }
        block.clear();
        mechanism.randomize_block(&values, rng, &mut block)?;
        agg.push_slice(&block)?;
    }
    Ok(agg.finalize()?)
}

impl<M, FIn, FOut> MethodRunner for Streaming<M, FIn, FOut>
where
    M: Mechanism + Send + Sync,
    M::Input: Sized,
    M::Report: Send,
    M::State: Send,
    FIn: Fn(f64) -> M::Input + Send + Sync,
    FOut: Fn(M::Output) -> Result<Estimate, ExperimentError> + Send + Sync,
{
    fn run(&self, values: &[f64], rng: &mut SplitMix64) -> Result<Estimate, ExperimentError> {
        let output = stream(
            &self.mechanism,
            values.iter().map(|&v| (self.to_input)(v)),
            rng,
        )?;
        (self.to_estimate)(output)
    }
}

/// Runner for the mean/variance methods (SR, PM): the mean estimate
/// streams through the unified mechanism API over the full population (the
/// paper's first-row setup), then the two-phase variance protocol re-runs
/// on a fresh stream — a genuinely two-round interaction the one-round
/// `Mechanism` contract cannot express.
pub(crate) struct MeanRunner<M> {
    pub(crate) mechanism: M,
    pub(crate) protocol: MeanVariance,
}

impl<M> MethodRunner for MeanRunner<M>
where
    M: Mechanism<Input = f64, Output = f64> + Send + Sync,
    M::Report: Send,
    M::State: Send,
{
    fn run(&self, values: &[f64], rng: &mut SplitMix64) -> Result<Estimate, ExperimentError> {
        // Phase "mean": every user reports its (signed) value.
        let signed = values
            .iter()
            .map(|&v| ldp_mean::to_signed(v.clamp(0.0, 1.0)));
        let mean_signed = stream(&self.mechanism, signed, rng)?;
        let mean = ldp_mean::from_signed(mean_signed.clamp(-1.0, 1.0));
        // Variance: the two-phase protocol on a fresh report stream.
        let mv = self.protocol.estimate(values, rng)?;
        Ok(Estimate::Scalar {
            mean,
            variance: mv.variance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::Method;

    #[test]
    fn runners_are_constructible_for_every_method() {
        for method in Method::moment_methods()
            .into_iter()
            .chain([Method::Hh, Method::HaarHrr])
        {
            assert!(method.runner(64, 1.0).is_ok(), "{}", method.name());
        }
    }

    #[test]
    fn runner_construction_rejects_invalid_parameters() {
        assert!(Method::SwEms.runner(64, 0.0).is_err());
        assert!(Method::SwEms.runner(1, 1.0).is_err());
        assert!(Method::HhAdmm.runner(100, 1.0).is_err(), "non-power domain");
        assert!(Method::CfoBinning { bins: 16 }.runner(100, 1.0).is_err());
    }

    #[test]
    fn streaming_runner_is_deterministic_per_seed() {
        let runner = Method::CfoBinning { bins: 16 }.runner(64, 1.0).unwrap();
        let values: Vec<f64> = (0..4_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let a = runner.run(&values, &mut SplitMix64::new(7)).unwrap();
        let b = runner.run(&values, &mut SplitMix64::new(7)).unwrap();
        match (a, b) {
            (Estimate::Distribution(x), Estimate::Distribution(y)) => {
                assert_eq!(x.probs(), y.probs());
            }
            _ => panic!("expected distributions"),
        }
    }
}
