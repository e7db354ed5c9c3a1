//! Categorical frequency oracles (CFOs) under ε-local differential privacy.
//!
//! A frequency oracle lets an untrusted aggregator estimate, for every value
//! `v` of a categorical domain `{0, …, d-1}`, the fraction of users holding
//! `v` — from randomized reports only (paper §2.1). This crate implements
//! the oracles the paper builds on:
//!
//! - [`grr::Grr`] — Generalized Randomized Response, best for small domains;
//! - [`olh::Olh`] — Optimized Local Hashing (Wang et al., USENIX Sec '17),
//!   whose variance is independent of the domain size;
//! - [`hadamard::Hrr`] — Hadamard Randomized Response, the g=2 hashing
//!   oracle used by the HaarHRR baseline (Kulkarni et al., PVLDB '19);
//! - [`oue::Oue`] — Optimized Unary Encoding, included as an extension;
//!
//! plus [`select`] (the variance-driven GRR/OLH choice the paper applies),
//! [`postprocess`] (Norm-Sub and friends, §4.1), and [`binning`] (the
//! complete "CFO with binning" distribution estimator of §4.1).
//!
//! Every oracle and the binning estimator is driven through one API, the
//! workspace-wide [`ldp_core::Mechanism`] trait (see [`mechanism`]):
//! client randomization, streaming O(d) aggregation state, exact shard
//! merges, and wire-format reports through the `Client`/`Aggregator`
//! split.

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod binning;
pub mod error;
pub mod grr;
pub mod hadamard;
pub mod mechanism;
pub mod olh;
mod oracle;
pub mod oue;
pub mod postprocess;
pub mod select;

pub use binning::BinningEstimator;
pub use error::CfoError;
pub use grr::Grr;
pub use hadamard::Hrr;
pub use mechanism::{AdaptiveState, CountState, SpectrumState, SupportState};
pub use olh::Olh;
pub use oue::Oue;
pub use select::{choose_oracle, AdaptiveOracle, OracleKind};
