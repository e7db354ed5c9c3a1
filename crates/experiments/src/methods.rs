//! A uniform adapter over every estimation method the paper evaluates
//! (Table 2).
//!
//! [`Method`] is a thin constructor table: [`Method::runner`] builds the
//! mechanism behind each name and wraps it in the registry's generic
//! streaming runner (see [`crate::registry`]). All client-side
//! randomization and server-side aggregation flows through the unified
//! `ldp-core` `Client`/`Aggregator` split — there are no per-mechanism
//! randomize/aggregate paths here.

use crate::error::ExperimentError;
use crate::registry::{MeanRunner, MethodRunner, Streaming};
use ldp_cfo::BinningEstimator;
use ldp_hierarchy::{
    constrained_inference, hh_admm_histogram, AdmmConfig, HaarHrr, HhRaw, HierarchicalHistogram,
    RootPolicy,
};
use ldp_mean::{MeanMechanism, MeanVariance, Pm, Sr};
use ldp_numeric::histogram::bucket_of;
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::SwMechanism;

/// The paper's branching factor for hierarchy methods (§6.1: "similar to
/// \[18\], we use a branching factor of 4").
pub const HIERARCHY_BRANCHING: usize = 4;

/// Every estimation method in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Square Wave reporting + EMS reconstruction (the paper's method).
    SwEms,
    /// Square Wave reporting + plain EM.
    SwEm,
    /// Hierarchical histogram + ADMM post-processing (the paper's second
    /// contribution).
    HhAdmm,
    /// CFO with binning into `bins` chunks + Norm-Sub.
    CfoBinning {
        /// Number of bins (the paper uses 16, 32, 64).
        bins: usize,
    },
    /// Hierarchical histogram with constrained inference (range query
    /// only — estimates may be negative).
    Hh,
    /// Haar transform with Hadamard randomized response (range query only).
    HaarHrr,
    /// Stochastic rounding (mean/variance only).
    Sr,
    /// Piecewise mechanism (mean/variance only).
    Pm,
}

impl Method {
    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Method::SwEms => "SW-EMS".into(),
            Method::SwEm => "SW-EM".into(),
            Method::HhAdmm => "HH-ADMM".into(),
            Method::CfoBinning { bins } => format!("CFO-binning-{bins}"),
            Method::Hh => "HH".into(),
            Method::HaarHrr => "HaarHRR".into(),
            Method::Sr => "SR".into(),
            Method::Pm => "PM".into(),
        }
    }

    /// The inverse of [`Method::name`]: resolves a paper legend back to
    /// the method, case-insensitively (`"SW-EMS"`, `"sw-ems"`,
    /// `"CFO-binning-32"`, …). This is how external front ends — the
    /// `ldp-collector` binary's `--mechanism` aliases in particular —
    /// reuse the experiment registry's naming instead of growing a
    /// second name table.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Method> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "sw-ems" => Some(Method::SwEms),
            "sw-em" => Some(Method::SwEm),
            "hh-admm" => Some(Method::HhAdmm),
            "hh" => Some(Method::Hh),
            "haarhrr" | "haar-hrr" => Some(Method::HaarHrr),
            "sr" => Some(Method::Sr),
            "pm" => Some(Method::Pm),
            _ => lower
                .strip_prefix("cfo-binning-")
                .and_then(|b| b.parse().ok())
                .filter(|&bins| bins > 0)
                .map(|bins| Method::CfoBinning { bins }),
        }
    }

    /// Every legend [`Method::from_name`] resolves, in display form
    /// (`CFO-binning-<bins>` shown with the paper's bin counts). Front
    /// ends use this to suggest near-matches when a name doesn't resolve
    /// instead of maintaining a second name table.
    #[must_use]
    pub fn known_names() -> Vec<String> {
        Method::moment_methods()
            .into_iter()
            .chain([Method::Hh, Method::HaarHrr])
            .map(|m| m.name())
            .collect()
    }

    /// The methods evaluated on full-distribution metrics
    /// (Figure 2, Figure 4 rows 1–3 minus SR/PM).
    #[must_use]
    pub fn distribution_methods() -> Vec<Method> {
        vec![
            Method::SwEms,
            Method::SwEm,
            Method::HhAdmm,
            Method::CfoBinning { bins: 16 },
            Method::CfoBinning { bins: 32 },
            Method::CfoBinning { bins: 64 },
        ]
    }

    /// The methods evaluated on range queries (Figure 3).
    #[must_use]
    pub fn range_query_methods() -> Vec<Method> {
        let mut m = Self::distribution_methods();
        m.push(Method::Hh);
        m.push(Method::HaarHrr);
        m
    }

    /// The methods evaluated on mean/variance (Figure 4 rows 1–2).
    #[must_use]
    pub fn moment_methods() -> Vec<Method> {
        let mut m = Self::distribution_methods();
        m.push(Method::Sr);
        m.push(Method::Pm);
        m
    }

    /// Whether this method produces a full (valid) distribution.
    #[must_use]
    pub fn yields_distribution(&self) -> bool {
        matches!(
            self,
            Method::SwEms | Method::SwEm | Method::HhAdmm | Method::CfoBinning { .. }
        )
    }

    /// Builds the ready-to-run estimation method at granularity `d` and
    /// budget `eps`: the constructor table behind the trait-object
    /// registry. Each entry names the mechanism, how dataset values map to
    /// its input domain, and how its output maps to an [`Estimate`].
    pub fn runner(&self, d: usize, eps: f64) -> Result<Box<dyn MethodRunner>, ExperimentError> {
        Ok(match *self {
            Method::SwEms => Box::new(Streaming {
                mechanism: SwMechanism::ems(eps, d)?,
                to_input: |v: f64| v,
                to_estimate: |h: Histogram| Ok(Estimate::Distribution(h)),
            }),
            Method::SwEm => Box::new(Streaming {
                mechanism: SwMechanism::em(eps, d)?,
                to_input: |v: f64| v,
                to_estimate: |h: Histogram| Ok(Estimate::Distribution(h)),
            }),
            Method::HhAdmm => Box::new(Streaming {
                mechanism: HierarchicalHistogram::new(HIERARCHY_BRANCHING, d, eps)?,
                to_input: move |v: f64| bucket_of(v, d),
                to_estimate: |raw: HhRaw| {
                    let h = hh_admm_histogram(raw.shape(), &raw, AdmmConfig::default())?;
                    Ok(Estimate::Distribution(h))
                },
            }),
            Method::CfoBinning { bins } => Box::new(Streaming {
                mechanism: BinningEstimator::new(bins, d, eps)?,
                to_input: |v: f64| v,
                to_estimate: |h: Histogram| Ok(Estimate::Distribution(h)),
            }),
            Method::Hh => Box::new(Streaming {
                mechanism: HierarchicalHistogram::new(HIERARCHY_BRANCHING, d, eps)?,
                to_input: move |v: f64| bucket_of(v, d),
                to_estimate: |raw: HhRaw| {
                    let consistent = constrained_inference(
                        raw.shape(),
                        &raw.tree,
                        &raw.level_variances,
                        RootPolicy::Fixed(1.0),
                    )?;
                    Ok(Estimate::SignedLeaves(consistent.leaves().to_vec()))
                },
            }),
            Method::HaarHrr => Box::new(Streaming {
                mechanism: HaarHrr::new(d, eps)?,
                to_input: move |v: f64| bucket_of(v, d),
                to_estimate: |leaves: Vec<f64>| Ok(Estimate::SignedLeaves(leaves)),
            }),
            Method::Sr => Box::new(MeanRunner {
                mechanism: Sr::new(eps)?,
                protocol: MeanVariance::new(MeanMechanism::Sr, eps)?,
            }),
            Method::Pm => Box::new(MeanRunner {
                mechanism: Pm::new(eps)?,
                protocol: MeanVariance::new(MeanMechanism::Pm, eps)?,
            }),
        })
    }
}

/// What a method outputs for one trial.
#[derive(Debug, Clone)]
pub enum Estimate {
    /// A valid probability distribution at the evaluation granularity.
    Distribution(Histogram),
    /// Leaf-level frequency estimates that may contain negative values
    /// (HH, HaarHRR) — range queries only.
    SignedLeaves(Vec<f64>),
    /// Scalar mean and variance estimates (SR, PM).
    Scalar {
        /// Estimated mean in `[0, 1]`.
        mean: f64,
        /// Estimated variance.
        variance: f64,
    },
}

/// Runs one method on one dataset at granularity `d` and budget `eps`.
///
/// `values` are the users' private values in `[0, 1]`; `seed` makes the
/// trial reproducible. Dispatches through the trait-object registry: build
/// the runner once, then stream the whole population through the unified
/// `Client`/`Aggregator` API.
pub fn run_method(
    method: Method,
    values: &[f64],
    d: usize,
    eps: f64,
    seed: u64,
) -> Result<Estimate, ExperimentError> {
    let runner = method.runner(d, eps)?;
    runner.run(values, &mut SplitMix64::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<f64> {
        (0..6_000)
            .map(|i| ((i * 37) % 1000) as f64 / 1000.0)
            .collect()
    }

    #[test]
    fn method_lists_match_table_2() {
        assert_eq!(Method::distribution_methods().len(), 6);
        assert_eq!(Method::range_query_methods().len(), 8);
        assert_eq!(Method::moment_methods().len(), 8);
        assert!(Method::SwEms.yields_distribution());
        assert!(!Method::Hh.yields_distribution());
        assert_eq!(Method::CfoBinning { bins: 32 }.name(), "CFO-binning-32");
    }

    #[test]
    fn from_name_inverts_name_for_every_method() {
        for method in Method::moment_methods()
            .into_iter()
            .chain([Method::Hh, Method::HaarHrr])
        {
            assert_eq!(Method::from_name(&method.name()), Some(method));
            assert_eq!(
                Method::from_name(&method.name().to_lowercase()),
                Some(method)
            );
        }
        assert_eq!(Method::from_name("HH-ADMM"), Some(Method::HhAdmm));
        assert_eq!(
            Method::from_name("CFO-binning-32"),
            Some(Method::CfoBinning { bins: 32 })
        );
        assert_eq!(Method::from_name("CFO-binning-0"), None);
        assert_eq!(Method::from_name("CFO-binning-x"), None);
        assert_eq!(Method::from_name("nope"), None);
    }

    #[test]
    fn known_names_all_resolve_back() {
        let names = Method::known_names();
        assert!(names.len() >= 8);
        for name in names {
            assert!(Method::from_name(&name).is_some(), "{name}");
        }
    }

    #[test]
    fn every_distribution_method_returns_valid_histogram() {
        let vals = values();
        for method in Method::distribution_methods() {
            let est = run_method(method, &vals, 64, 1.0, 11).unwrap();
            match est {
                Estimate::Distribution(h) => {
                    assert_eq!(h.len(), 64, "{}", method.name());
                    assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
                }
                _ => panic!("{} should yield a distribution", method.name()),
            }
        }
    }

    #[test]
    fn signed_methods_return_leaves() {
        let vals = values();
        for method in [Method::Hh, Method::HaarHrr] {
            let est = run_method(method, &vals, 64, 1.0, 12).unwrap();
            match est {
                Estimate::SignedLeaves(l) => assert_eq!(l.len(), 64),
                _ => panic!("{} should yield signed leaves", method.name()),
            }
        }
    }

    #[test]
    fn scalar_methods_return_plausible_moments() {
        let vals = values();
        for method in [Method::Sr, Method::Pm] {
            let est = run_method(method, &vals, 64, 2.0, 13).unwrap();
            match est {
                Estimate::Scalar { mean, variance } => {
                    assert!((mean - 0.5).abs() < 0.15, "{}: mean {mean}", method.name());
                    assert!(variance >= 0.0);
                }
                _ => panic!("{} should yield scalars", method.name()),
            }
        }
    }

    #[test]
    fn trials_are_reproducible_by_seed() {
        let vals = values();
        let a = run_method(Method::SwEms, &vals, 32, 1.0, 99).unwrap();
        let b = run_method(Method::SwEms, &vals, 32, 1.0, 99).unwrap();
        match (a, b) {
            (Estimate::Distribution(x), Estimate::Distribution(y)) => {
                assert_eq!(x.probs(), y.probs());
            }
            _ => panic!("expected distributions"),
        }
    }

    /// The registry dispatch must preserve the pre-redesign estimates for
    /// the mechanisms whose RNG consumption order is unchanged: the SW
    /// paths randomize each value sequentially on the trial stream exactly
    /// as the old hand-written loop did.
    #[test]
    fn sw_dispatch_is_bit_identical_to_legacy_pipeline_path() {
        let vals = values();
        let eps = 1.0;
        let d = 32;
        for (method, reconstruction) in [
            (Method::SwEms, ldp_sw::Reconstruction::Ems),
            (Method::SwEm, ldp_sw::Reconstruction::Em),
        ] {
            let est = match run_method(method, &vals, d, eps, 1234).unwrap() {
                Estimate::Distribution(h) => h,
                _ => panic!("expected a distribution"),
            };
            // The legacy path: sequential randomization on the trial RNG,
            // ShardAggregator ingestion, EM/EMS reconstruction.
            let pipeline = ldp_sw::SwPipeline::new(eps, d).unwrap();
            let mut rng = SplitMix64::new(1234);
            let mut agg = ldp_sw::ShardAggregator::for_pipeline(&pipeline);
            for &v in &vals {
                agg.push(pipeline.wave().randomize(v, &mut rng).unwrap())
                    .unwrap();
            }
            let legacy = pipeline
                .reconstruct(&agg.to_counts(), &reconstruction)
                .unwrap()
                .histogram;
            assert_eq!(est.probs(), legacy.probs(), "{}", method.name());
        }
    }
}
