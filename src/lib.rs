//! `sw-ldp` — estimating numerical distributions under local differential
//! privacy.
//!
//! A from-scratch Rust reproduction of *Li, Wang, Lopuhaä-Zwakenberg,
//! Škorić, Li: "Estimating Numerical Distributions under Local Differential
//! Privacy" (SIGMOD 2020)*: the Square Wave mechanism with EM/EMS
//! reconstruction, the HH-ADMM hierarchical estimator, every baseline the
//! paper compares against, and a harness regenerating every table and
//! figure of its evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names. Start with [`prelude`] and the `examples/` directory.
//!
//! ```
//! use sw_ldp::prelude::*;
//!
//! // 10k users each hold a private value in [0, 1].
//! let values: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
//!
//! // ε = 1, reconstruct a 64-bucket histogram with the paper's defaults
//! // (square wave, MI-optimal bandwidth, EMS).
//! let mechanism = SwMechanism::ems(1.0, 64).unwrap();
//! let mut rng = SplitMix64::new(42);
//! let reports = Client::new(&mechanism).randomize_batch(&values, &mut rng).unwrap();
//! let mut aggregator = Aggregator::new(&mechanism);
//! aggregator.push_slice(&reports).unwrap();
//! let estimate = aggregator.finalize().unwrap();
//! assert!((estimate.mean() - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ldp_cfo as cfo;
pub use ldp_collector as collector;
pub use ldp_core as core_api;
pub use ldp_datasets as datasets;
pub use ldp_experiments as experiments;
pub use ldp_hierarchy as hierarchy;
pub use ldp_mean as mean;
pub use ldp_metrics as metrics;
pub use ldp_numeric as numeric;
pub use ldp_pool as pool;
pub use ldp_sw as sw;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use ldp_cfo::{BinningEstimator, Grr, Hrr, Olh, Oue};
    pub use ldp_core::{Aggregator, Client, CoreError, Domain, Epsilon, Mechanism, WireReport};
    pub use ldp_datasets::{Dataset, DatasetKind, DatasetSpec};
    pub use ldp_experiments::{ExperimentConfig, Method, MethodRunner};
    pub use ldp_hierarchy::{
        hh_admm_histogram, AdmmConfig, HaarHrr, HierarchicalHistogram, TreeShape,
    };
    pub use ldp_mean::{Hybrid, MeanMechanism, MeanVariance, Pm, Sr};
    pub use ldp_metrics::{ks_distance, quantile_mae, range_query_mae, wasserstein};
    pub use ldp_numeric::{ExactSum, Histogram, LinearOperator, SplitMix64};
    pub use ldp_sw::{
        optimal_b, BandedBaselineOperator, DiscreteSw, EmConfig, Reconstruction, SmoothingKernel,
        SwMechanism, SwPipeline, Wave, WaveShape,
    };
}
