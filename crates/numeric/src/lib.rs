//! Numerical substrate for the `sw-ldp` workspace.
//!
//! The reference implementation of the paper leaned on NumPy; this crate
//! provides the pieces of that toolkit the rest of the workspace needs,
//! implemented from scratch on top of `rand`:
//!
//! - [`rng`]: a deterministic, splittable [`rng::SplitMix64`] generator so
//!   every experiment trial is reproducible from a seed.
//! - [`dist`]: samplers for the statistical distributions used by the
//!   evaluation datasets (normal, gamma, beta, lognormal, exponential,
//!   mixtures).
//! - [`matrix`]: a dense row-major [`matrix::Matrix`] with the handful of
//!   BLAS-1/2 kernels the EM/EMS and ADMM solvers need.
//! - [`operator`]: the [`operator::LinearOperator`] abstraction the solvers
//!   apply matrices through, so structured (banded) transition operators
//!   can replace the dense matvec.
//! - [`histogram`]: [`histogram::Histogram`], the common currency of the
//!   workspace — a normalized distribution over `d` equal-width buckets of
//!   `[0, 1]` with CDF, moment, quantile and range-mass queries.
//! - [`quad`]: exact integration of the piecewise-linear/quadratic overlap
//!   functions that arise when building Square Wave transition matrices.
//! - [`stats`]: streaming and batch summary statistics.
//! - [`exact`]: [`exact::ExactSum`], exact order-independent float
//!   accumulation so sharded aggregation merges bit-identically.
//! - [`kernels`]: runtime-dispatched SIMD/unrolled absorb kernels, among
//!   them the OLH support walk, the band lines of the SW banded transition
//!   operator, and the draw window behind the block randomizers'
//!   [`rng::SplitMix64::walk_reports`] (bit-identical to their scalar
//!   references; `LDP_NO_SIMD=1` forces the scalar path).

// The only unsafe code in this crate is the runtime-dispatched AVX2 and
// AVX-512 intrinsic routines in `kernels` (the absorb kernels, the OLH
// support walk, the band-line gathers and scatters and the block
// randomizers' draw window), which carry their own item-level allowances;
// everything else stays denied. Their callers — the block randomizers
// (SW, CFO, HH) and the SW operator and EM loop — stay
// `forbid(unsafe_code)`.
#![deny(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod exact;
pub mod histogram;
pub mod kernels;
pub mod matrix;
pub mod operator;
pub mod quad;
pub mod rng;
pub mod stats;

pub use error::NumericError;
pub use exact::ExactSum;
pub use histogram::Histogram;
pub use matrix::Matrix;
pub use operator::LinearOperator;
pub use rng::SplitMix64;
