//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's printed figures but directly test its design
//! arguments:
//!
//! - [`ablation_em_threshold`] — §5.5's motivation for EMS: plain EM's
//!   accuracy is highly sensitive to the stopping threshold τ, while EMS is
//!   stable across several orders of magnitude.
//! - [`ablation_reconstruction`] — EMS vs EM vs the classical unbiased
//!   matrix-inversion estimator (+ Norm-Sub): what the MLE machinery buys.
//! - [`ablation_smoothing`] — S-step kernel width: none vs (1,2,1) vs
//!   (1,4,6,4,1).

use crate::config::ExperimentConfig;
use crate::error::ExperimentError;
use crate::report::{Chart, Figure, Series};
use crate::runner::parallel_jobs;
use ldp_core::Mechanism;
use ldp_datasets::{DatasetKind, DatasetSpec};
use ldp_metrics as metrics;
use ldp_numeric::rng::mix64;
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::{
    reconstruct, reconstruct_inversion, transition_matrix, EmConfig, SmoothingKernel, SwMechanism,
};

fn first_dataset(config: &ExperimentConfig) -> DatasetKind {
    config
        .datasets
        .first()
        .copied()
        .unwrap_or(DatasetKind::Beta)
}

/// Generates one set of perturbed counts for a (dataset, ε, trial seed):
/// every value randomized through `mech` on one `seed` stream and absorbed
/// into its report histogram.
fn perturbed_counts(
    mech: &SwMechanism,
    values: &[f64],
    seed: u64,
) -> Result<Vec<f64>, ExperimentError> {
    let mut rng = SplitMix64::new(seed);
    let mut state = mech.empty_state();
    for v in values {
        let report = mech.randomize(v, &mut rng)?;
        mech.absorb(&mut state, &report)?;
    }
    Ok(state.to_counts())
}

/// EM stopping-threshold sensitivity (the paper's §5.5 motivation for EMS).
///
/// Sweeps the log-likelihood threshold τ over several decades and reports
/// W1 for plain EM and for EMS at each value. The expected shape: EM has a
/// sweet spot and degrades on both sides (too early = underfit, too late =
/// fits the noise), while the EMS curve is flat.
pub fn ablation_em_threshold(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let eps = 1.0;
    let kind = first_dataset(config);
    let d = kind.paper_buckets();
    let spec = DatasetSpec::scaled(kind, config.scale, mix64(config.seed ^ 0xAB1));
    let ds = spec.generate();
    let truth = ds.histogram(d)?;
    let mech = SwMechanism::ems(eps, d)?;

    let thresholds: Vec<f64> = vec![1e-6, 1e-4, 1e-2, 1e0, 1e2];
    let variants: Vec<(&str, bool)> = vec![("EM", false), ("EMS", true)];

    let jobs = thresholds.len() * variants.len() * config.repeats;
    let flat = parallel_jobs(jobs, config.threads, |idx| {
        let trial = idx % config.repeats;
        let rest = idx / config.repeats;
        let ti = rest % thresholds.len();
        let vi = rest / thresholds.len();
        // Reuse the same reports across thresholds within a trial so the
        // comparison isolates the stopping rule.
        let counts = perturbed_counts(
            &mech,
            &ds.values,
            mix64(config.seed ^ mix64(trial as u64 + 0xE41)),
        )?;
        let em_config = EmConfig {
            ll_threshold: thresholds[ti],
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: if variants[vi].1 {
                Some(SmoothingKernel::binomial3())
            } else {
                None
            },
        };
        let est = reconstruct(mech.pipeline().operator(), &counts, &em_config)?;
        let w1 = metrics::wasserstein(&truth, &est.histogram)?;
        Ok((vi, ti, w1))
    })?;

    let mut per: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); thresholds.len()]; variants.len()];
    for (vi, ti, w1) in flat {
        per[vi][ti].push(w1);
    }
    let series = variants
        .iter()
        .enumerate()
        .map(|(vi, (name, _))| Series {
            label: (*name).into(),
            x: thresholds.clone(),
            y: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::mean(v))
                .collect(),
            std: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::std_dev(v))
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "ablation-em-threshold".into(),
        caption: "EM vs EMS sensitivity to the log-likelihood stopping threshold".into(),
        charts: vec![Chart {
            title: format!("{} (eps = {eps}, d = {d})", kind.name()),
            x_label: "threshold tau".into(),
            y_label: "W1".into(),
            series,
        }],
        notes: vec![format!(
            "dataset {}, scale {}, repeats {}",
            kind.name(),
            config.scale,
            config.repeats
        )],
    })
}

/// EMS vs EM vs ridge-inversion + Norm-Sub across ε.
pub fn ablation_reconstruction(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let kind = first_dataset(config);
    let d = kind.paper_buckets();
    let spec = DatasetSpec::scaled(kind, config.scale, mix64(config.seed ^ 0xAB2));
    let ds = spec.generate();
    let truth = ds.histogram(d)?;

    #[derive(Clone, Copy)]
    enum Rec {
        Ems,
        Em,
        Inversion,
    }
    let variants: Vec<(&str, Rec)> = vec![
        ("SW-EMS", Rec::Ems),
        ("SW-EM", Rec::Em),
        ("SW-inversion", Rec::Inversion),
    ];

    let jobs = config.epsilons.len() * variants.len() * config.repeats;
    let flat = parallel_jobs(jobs, config.threads, |idx| {
        let trial = idx % config.repeats;
        let rest = idx / config.repeats;
        let ei = rest % config.epsilons.len();
        let vi = rest / config.epsilons.len();
        let eps = config.epsilons[ei];
        let mech = SwMechanism::ems(eps, d)?;
        let counts = perturbed_counts(
            &mech,
            &ds.values,
            mix64(config.seed ^ mix64((trial as u64) << 8 ^ ei as u64 ^ 0xE42)),
        )?;
        let pipeline = mech.pipeline();
        let hist: Histogram = match variants[vi].1 {
            Rec::Ems => reconstruct(pipeline.operator(), &counts, &EmConfig::ems())?.histogram,
            Rec::Em => reconstruct(pipeline.operator(), &counts, &EmConfig::em(eps))?.histogram,
            Rec::Inversion => {
                reconstruct_inversion(&transition_matrix(pipeline.wave(), d, d)?, &counts)?
            }
        };
        let w1 = metrics::wasserstein(&truth, &hist)?;
        Ok((vi, ei, w1))
    })?;

    let mut per: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); config.epsilons.len()]; variants.len()];
    for (vi, ei, w1) in flat {
        per[vi][ei].push(w1);
    }
    let series = variants
        .iter()
        .enumerate()
        .map(|(vi, (name, _))| Series {
            label: (*name).into(),
            x: config.epsilons.clone(),
            y: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::mean(v))
                .collect(),
            std: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::std_dev(v))
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "ablation-reconstruction".into(),
        caption: "Reconstruction algorithm: EMS vs EM vs unbiased inversion + Norm-Sub".into(),
        charts: vec![Chart {
            title: format!("{} (d = {d})", kind.name()),
            x_label: "epsilon".into(),
            y_label: "W1".into(),
            series,
        }],
        notes: vec![format!(
            "scale {}, repeats {}",
            config.scale, config.repeats
        )],
    })
}

/// Smoothing-kernel width ablation: no S-step vs (1,2,1) vs (1,4,6,4,1).
pub fn ablation_smoothing(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let kind = first_dataset(config);
    let d = kind.paper_buckets();
    let spec = DatasetSpec::scaled(kind, config.scale, mix64(config.seed ^ 0xAB3));
    let ds = spec.generate();
    let truth = ds.histogram(d)?;

    let variants: Vec<(&str, Option<SmoothingKernel>)> = vec![
        ("none (EM)", None),
        ("binomial (1,2,1)", Some(SmoothingKernel::binomial3())),
        ("binomial (1,4,6,4,1)", Some(SmoothingKernel::binomial5())),
    ];

    let jobs = config.epsilons.len() * variants.len() * config.repeats;
    let flat = parallel_jobs(jobs, config.threads, |idx| {
        let trial = idx % config.repeats;
        let rest = idx / config.repeats;
        let ei = rest % config.epsilons.len();
        let vi = rest / config.epsilons.len();
        let eps = config.epsilons[ei];
        let mech = SwMechanism::ems(eps, d)?;
        let counts = perturbed_counts(
            &mech,
            &ds.values,
            mix64(config.seed ^ mix64((trial as u64) << 8 ^ ei as u64 ^ 0xE43)),
        )?;
        let em_config = EmConfig {
            ll_threshold: if variants[vi].1.is_none() {
                1e-3 * eps.exp()
            } else {
                1e-3
            },
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: variants[vi].1.clone(),
        };
        let est = reconstruct(mech.pipeline().operator(), &counts, &em_config)?;
        let w1 = metrics::wasserstein(&truth, &est.histogram)?;
        Ok((vi, ei, w1))
    })?;

    let mut per: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); config.epsilons.len()]; variants.len()];
    for (vi, ei, w1) in flat {
        per[vi][ei].push(w1);
    }
    let series = variants
        .iter()
        .enumerate()
        .map(|(vi, (name, _))| Series {
            label: (*name).into(),
            x: config.epsilons.clone(),
            y: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::mean(v))
                .collect(),
            std: per[vi]
                .iter()
                .map(|v| ldp_numeric::stats::std_dev(v))
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "ablation-smoothing".into(),
        caption: "S-step kernel width: none vs (1,2,1) vs (1,4,6,4,1)".into(),
        charts: vec![Chart {
            title: format!("{} (d = {d})", kind.name()),
            x_label: "epsilon".into(),
            y_label: "W1".into(),
            series,
        }],
        notes: vec![format!(
            "scale {}, repeats {}",
            config.scale, config.repeats
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn em_threshold_ablation_smoke() {
        let fig = ablation_em_threshold(&ExperimentConfig::smoke()).unwrap();
        assert_eq!(fig.charts[0].series.len(), 2);
        assert_eq!(fig.charts[0].series[0].x.len(), 5);
    }

    #[test]
    fn reconstruction_ablation_smoke() {
        let fig = ablation_reconstruction(&ExperimentConfig::smoke()).unwrap();
        let labels: Vec<&str> = fig.charts[0]
            .series
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels.contains(&"SW-inversion"));
    }

    #[test]
    fn smoothing_ablation_smoke() {
        let fig = ablation_smoothing(&ExperimentConfig::smoke()).unwrap();
        assert_eq!(fig.charts[0].series.len(), 3);
    }
}
