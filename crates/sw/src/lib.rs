//! The Square Wave mechanism with EM/EMS reconstruction — the primary
//! contribution of *"Estimating Numerical Distributions under Local
//! Differential Privacy"* (Li et al., SIGMOD 2020).
//!
//! The crate is organized to mirror the paper:
//!
//! - [`wave`] — General Wave mechanisms (§5.1) and the Square Wave (§5.2):
//!   square, trapezoid and triangle shapes, each satisfying ε-LDP by
//!   construction, with exact per-interval output masses;
//! - [`bandwidth`] — the mutual-information bandwidth rule
//!   `b* = (εeᵉ − eᵉ + 1)/(2eᵉ(eᵉ − 1 − ε))` (§5.3);
//! - [`transition`] — exact `d̃ × d` transition matrices (§5.5);
//! - [`discrete`] — the bucketize-before-randomize variant (§5.4), a
//!   [`ldp_core::Mechanism`] with EMS reconstruction;
//! - [`em`] / [`smoothing`] — Expectation Maximization (Algorithm 1) and
//!   the binomial S-step that turns it into EMS;
//! - [`operator`] — the structured `baseline + band` form of the
//!   transition matrix, giving `O(d)` EM iterations;
//! - [`pipeline`] — [`SwPipeline`], the wave-plus-operator configuration
//!   (custom waves, `d̃ ≠ d`) and its reconstruction;
//! - [`aggregator`] — [`ShardAggregator`], the streaming, mergeable report
//!   histogram;
//! - [`mechanism`] — [`SwMechanism`], the one API through which SW
//!   randomizes, aggregates and estimates: the workspace-wide
//!   [`ldp_core::Mechanism`] trait with its streaming `Client`/`Aggregator`
//!   split and exact shard merges.
//!
//! # Quick example
//!
//! ```
//! use ldp_core::{Aggregator, Client};
//! use ldp_numeric::SplitMix64;
//! use ldp_sw::SwMechanism;
//!
//! // 10k users with private values in [0, 1].
//! let values: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! let mechanism = SwMechanism::ems(1.0, 64).expect("valid epsilon and granularity");
//! let mut rng = SplitMix64::new(7);
//! let reports = Client::new(&mechanism)
//!     .randomize_batch(&values, &mut rng)
//!     .expect("values lie in [0, 1]");
//! let mut aggregator = Aggregator::new(&mechanism);
//! aggregator.push_slice(&reports).expect("reports are well formed");
//! let estimate = aggregator.finalize().expect("reconstruction succeeds");
//! assert_eq!(estimate.len(), 64);
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod bandwidth;
pub mod bootstrap;
pub mod discrete;
pub mod em;
pub mod error;
pub mod inversion;
pub mod mechanism;
pub mod operator;
pub mod pipeline;
pub mod smoothing;
pub mod transition;
pub mod wave;

pub use aggregator::ShardAggregator;
pub use bandwidth::{mi_upper_bound, optimal_b, optimal_b_discrete};
pub use bootstrap::{bootstrap, BootstrapConfig, BootstrapResult};
pub use discrete::DiscreteSw;
pub use em::{reconstruct, EmConfig, EmResult};
pub use error::SwError;
pub use inversion::{invert_signed, reconstruct_inversion};
pub use mechanism::SwMechanism;
pub use operator::BandedBaselineOperator;
pub use pipeline::{pipeline_with_shape, Reconstruction, SwPipeline};
pub use smoothing::SmoothingKernel;
pub use transition::{discrete_transition_matrix, transition_matrix};
pub use wave::{Wave, WaveShape};
