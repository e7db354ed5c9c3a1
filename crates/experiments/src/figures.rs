//! Regeneration of every table and figure in the paper's evaluation
//! (§6, Figures 1–7 and Table 2).
//!
//! Each `figN` function produces a [`Figure`] holding the same panels and
//! series the paper plots; the `repro` binary in `ldp-bench` renders them
//! as text and CSV. Absolute values depend on the configured population
//! scale — the *shape* claims (method ranking, crossovers) are what these
//! reproduce.

use crate::config::ExperimentConfig;
use crate::error::ExperimentError;
use crate::methods::Method;
use crate::registry::stream;
use crate::report::{Chart, Figure, Series};
use crate::runner::{parallel_jobs, run_grid, TrialMetrics};
use ldp_datasets::{Dataset, DatasetKind, DatasetSpec};
use ldp_metrics as metrics;
use ldp_numeric::rng::mix64;
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::{optimal_b, Reconstruction, SwMechanism, SwPipeline, Wave, WaveShape};

/// Materializes a dataset at the configured scale, together with its
/// ground-truth histogram at granularity `d`.
fn prepare(
    kind: DatasetKind,
    d: usize,
    config: &ExperimentConfig,
) -> Result<(Dataset, Histogram), ExperimentError> {
    let spec = DatasetSpec::scaled(
        kind,
        config.scale,
        mix64(config.seed ^ kind.paper_n() as u64),
    );
    let ds = spec.generate();
    let truth = ds.histogram(d)?;
    Ok((ds, truth))
}

fn scale_note(config: &ExperimentConfig) -> String {
    format!(
        "population scale = {} of paper n, repeats = {} (paper: 100), seed = {:#x}",
        config.scale, config.repeats, config.seed
    )
}

/// Figure 1: normalized frequencies of the evaluation datasets.
pub fn fig1(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let mut charts = Vec::new();
    for &kind in &config.datasets {
        let d = kind.paper_buckets();
        let (_, truth) = prepare(kind, d, config)?;
        charts.push(Chart {
            title: format!("Fig 1 — {}", kind.name()),
            x_label: "bucket".into(),
            y_label: "normalized frequency".into(),
            series: vec![Series {
                label: "frequency".into(),
                x: (0..d).map(|i| i as f64).collect(),
                y: truth.probs().to_vec(),
                std: vec![0.0; d],
            }],
        });
    }
    Ok(Figure {
        id: "fig1".into(),
        caption: "Normalized frequencies of datasets for experiments".into(),
        charts,
        notes: vec![scale_note(config)],
    })
}

/// A named metric extracted from [`TrialMetrics`] for one figure panel.
type MetricPanel = (&'static str, fn(&TrialMetrics) -> Option<f64>);

/// Shared driver for the ε-sweep figures (2, 3, 4): runs the grid once per
/// dataset and extracts the requested metric panels.
fn eps_sweep(
    config: &ExperimentConfig,
    methods: &[Method],
    panels: &[MetricPanel],
    fig_id: &str,
    caption: &str,
) -> Result<Figure, ExperimentError> {
    let mut charts = Vec::new();
    for &kind in &config.datasets {
        let d = kind.paper_buckets();
        let (ds, truth) = prepare(kind, d, config)?;
        let grid = run_grid(methods, &ds.values, &truth, d, config)?;
        for (metric_name, select) in panels {
            charts.push(Chart {
                title: format!("{fig_id} — {} — {metric_name}", kind.name()),
                x_label: "epsilon".into(),
                y_label: (*metric_name).into(),
                series: grid.series(select),
            });
        }
    }
    Ok(Figure {
        id: fig_id.into(),
        caption: caption.into(),
        charts,
        notes: vec![scale_note(config)],
    })
}

/// Figure 2: Wasserstein and KS distance vs ε for the distribution
/// methods.
pub fn fig2(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    eps_sweep(
        config,
        &Method::distribution_methods(),
        &[("W1", |m| m.w1), ("KS", |m| m.ks)],
        "fig2",
        "Distribution distances (Wasserstein, KS), varying epsilon",
    )
}

/// Figure 3: range-query MAE at α = 0.1 and α = 0.4, including HH and
/// HaarHRR.
pub fn fig3(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    eps_sweep(
        config,
        &Method::range_query_methods(),
        &[
            ("range query MAE (alpha=0.1)", |m| m.rq_01),
            ("range query MAE (alpha=0.4)", |m| m.rq_04),
        ],
        "fig3",
        "MAE of random range queries with alpha = 0.1 and 0.4",
    )
}

/// Figure 4: mean, variance and quantile MAE, including SR and PM for the
/// moment rows.
pub fn fig4(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    eps_sweep(
        config,
        &Method::moment_methods(),
        &[
            ("MAE (mean)", |m| m.mean_err),
            ("MAE (variance)", |m| m.var_err),
            ("MAE (quantile)", |m| m.quantile_err),
        ],
        "fig4",
        "MAE for estimating mean, variance, and quantiles",
    )
}

/// The default bandwidth grid for Figures 5 and 6 (the paper sweeps
/// 0.01–0.38).
#[must_use]
pub fn default_b_grid() -> Vec<f64> {
    vec![0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.38]
}

/// Runs the EMS pipeline with one explicit wave and returns the W1 error.
fn wave_trial(
    wave: Wave,
    values: &[f64],
    truth: &Histogram,
    d: usize,
    seed: u64,
) -> Result<f64, ExperimentError> {
    let mech = SwMechanism::with_pipeline(SwPipeline::with_wave(wave, d, d)?, Reconstruction::Ems);
    let est = stream(&mech, values.iter().copied(), &mut SplitMix64::new(seed))?;
    Ok(metrics::wasserstein(truth, &est)?)
}

/// Figure 5: comparison of wave shapes (square, trapezoids, triangle) in
/// terms of W1 vs bandwidth at ε = 1.
pub fn fig5(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let eps = 1.0;
    let shapes: Vec<(String, WaveShape)> = vec![
        ("SW".into(), WaveShape::Square),
        ("trapezoid-0.8".into(), WaveShape::Trapezoid { ratio: 0.8 }),
        ("trapezoid-0.6".into(), WaveShape::Trapezoid { ratio: 0.6 }),
        ("trapezoid-0.4".into(), WaveShape::Trapezoid { ratio: 0.4 }),
        ("trapezoid-0.2".into(), WaveShape::Trapezoid { ratio: 0.2 }),
        ("triangle".into(), WaveShape::Triangle),
    ];
    let grid = default_b_grid();
    let mut charts = Vec::new();
    for &kind in &config.datasets {
        let d = kind.paper_buckets();
        let (ds, truth) = prepare(kind, d, config)?;
        let jobs = shapes.len() * grid.len() * config.repeats;
        let flat = parallel_jobs(jobs, config.threads, |idx| {
            let trial = idx % config.repeats;
            let rest = idx / config.repeats;
            let bi = rest % grid.len();
            let si = rest / grid.len();
            let wave = Wave::new(shapes[si].1, grid[bi], eps)?;
            let seed = mix64(config.seed ^ mix64(idx as u64 + 0xF1605));
            wave_trial(wave, &ds.values, &truth, d, seed).map(|w1| (si, bi, trial, w1))
        })?;
        let mut per: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); grid.len()]; shapes.len()];
        for (si, bi, _t, w1) in flat {
            per[si][bi].push(w1);
        }
        let series = shapes
            .iter()
            .enumerate()
            .map(|(si, (label, _))| Series {
                label: label.clone(),
                x: grid.clone(),
                y: per[si]
                    .iter()
                    .map(|v| ldp_numeric::stats::mean(v))
                    .collect(),
                std: per[si]
                    .iter()
                    .map(|v| ldp_numeric::stats::std_dev(v))
                    .collect(),
            })
            .collect();
        charts.push(Chart {
            title: format!("fig5 — {} (eps = {eps})", kind.name()),
            x_label: "b".into(),
            y_label: "W1".into(),
            series,
        });
    }
    Ok(Figure {
        id: "fig5".into(),
        caption: "Comparison of different wave shapes in GW (ratios are trapezoid top/bottom)"
            .into(),
        charts,
        notes: vec![scale_note(config)],
    })
}

/// Figure 6: W1 of SW + EMS with varying b at fixed ε ∈ {1, 2, 3, 4}; the
/// closed-form `b_SW` is reported in the notes (the paper's dotted line).
pub fn fig6(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let eps_panels = [1.0, 2.0, 3.0, 4.0];
    let grid = default_b_grid();
    let kind = config
        .datasets
        .first()
        .copied()
        .unwrap_or(DatasetKind::Beta);
    let d = kind.paper_buckets();
    let (ds, truth) = prepare(kind, d, config)?;
    let mut charts = Vec::new();
    let mut notes = vec![scale_note(config), format!("dataset: {}", kind.name())];
    for &eps in &eps_panels {
        let jobs = grid.len() * config.repeats;
        let flat = parallel_jobs(jobs, config.threads, |idx| {
            let trial = idx % config.repeats;
            let bi = idx / config.repeats;
            let wave = Wave::square(grid[bi], eps)?;
            let seed = mix64(config.seed ^ mix64((idx as u64) << 8 | eps as u64));
            wave_trial(wave, &ds.values, &truth, d, seed).map(|w1| (bi, trial, w1))
        })?;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); grid.len()];
        for (bi, _t, w1) in flat {
            per[bi].push(w1);
        }
        let b_sw = optimal_b(eps)?;
        notes.push(format!("eps = {eps}: b_SW = {b_sw:.3}"));
        charts.push(Chart {
            title: format!("fig6 — eps = {eps}, b_SW = {b_sw:.3}"),
            x_label: "b".into(),
            y_label: "W1".into(),
            series: vec![Series {
                label: "SW-EMS".into(),
                x: grid.clone(),
                y: per.iter().map(|v| ldp_numeric::stats::mean(v)).collect(),
                std: per.iter().map(|v| ldp_numeric::stats::std_dev(v)).collect(),
            }],
        });
    }
    Ok(Figure {
        id: "fig6".into(),
        caption: "W1 of EMS with fixed eps and varying b; dotted b_SW in notes".into(),
        charts,
        notes,
    })
}

/// Figure 7: bucketization granularity (256/512/1024/2048) vs ε, W1 of
/// SW + EMS.
pub fn fig7(config: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    let granularities = [256usize, 512, 1024, 2048];
    let mut charts = Vec::new();
    for &kind in &config.datasets {
        let spec = DatasetSpec::scaled(
            kind,
            config.scale,
            mix64(config.seed ^ kind.paper_n() as u64),
        );
        let ds = spec.generate();
        let mut series = Vec::new();
        for &d in &granularities {
            let truth = ds.histogram(d)?;
            let jobs = config.epsilons.len() * config.repeats;
            let flat = parallel_jobs(jobs, config.threads, |idx| {
                let trial = idx % config.repeats;
                let ei = idx / config.repeats;
                let eps = config.epsilons[ei];
                let wave = Wave::square(optimal_b(eps)?, eps)?;
                let seed = mix64(config.seed ^ mix64((idx as u64) << 16 | d as u64));
                wave_trial(wave, &ds.values, &truth, d, seed).map(|w1| (ei, trial, w1))
            })?;
            let mut per: Vec<Vec<f64>> = vec![Vec::new(); config.epsilons.len()];
            for (ei, _t, w1) in flat {
                per[ei].push(w1);
            }
            series.push(Series {
                label: format!("{d} buckets"),
                x: config.epsilons.clone(),
                y: per.iter().map(|v| ldp_numeric::stats::mean(v)).collect(),
                std: per.iter().map(|v| ldp_numeric::stats::std_dev(v)).collect(),
            });
        }
        charts.push(Chart {
            title: format!("fig7 — {}", kind.name()),
            x_label: "epsilon".into(),
            y_label: "W1".into(),
            series,
        });
    }
    Ok(Figure {
        id: "fig7".into(),
        caption:
            "W1 between estimated and true distribution with different bucketization granularity"
                .into(),
        charts,
        notes: vec![scale_note(config)],
    })
}

/// Table 2: the method × metric capability matrix.
#[must_use]
pub fn table2() -> String {
    let rows = [
        ("SW with EMS/EM (this paper)", [true, true, true, true]),
        ("HH-ADMM (this paper)", [true, true, true, true]),
        ("CFO binning", [true, true, true, true]),
        ("HH and HaarHRR [18]", [false, true, false, false]),
        ("PM [30] and SR [9]", [false, false, true, false]),
    ];
    let headers = [
        "Wasserstein and KS distance",
        "Range Query",
        "Mean & Variance",
        "Quantile",
    ];
    let mut out = String::from("# Table 2 — Methods and evaluated metrics\n");
    out.push_str(&format!("{:<28}", "Method"));
    for h in headers {
        out.push_str(&format!(" | {h:^28}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(28 + headers.len() * 31));
    out.push('\n');
    for (name, flags) in rows {
        out.push_str(&format!("{name:<28}"));
        for f in flags {
            out.push_str(&format!(" | {:^28}", if f { "x" } else { "" }));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_capability_matrix() {
        let t = table2();
        assert!(t.contains("SW with EMS/EM"));
        assert!(t.contains("HaarHRR"));
        assert!(t.contains("Range Query"));
        // HH row has exactly one capability mark.
        let hh_row = t.lines().find(|l| l.contains("HaarHRR")).unwrap();
        assert_eq!(hh_row.matches('x').count(), 1);
    }

    #[test]
    fn fig1_produces_one_chart_per_dataset() {
        let config = ExperimentConfig::smoke();
        let fig = fig1(&config).unwrap();
        assert_eq!(fig.charts.len(), 1);
        let s = &fig.charts[0].series[0];
        assert_eq!(s.x.len(), 256);
        assert!((s.y.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_smoke_produces_all_series() {
        let fig = fig2(&ExperimentConfig::smoke()).unwrap();
        // One dataset × two metrics.
        assert_eq!(fig.charts.len(), 2);
        for chart in &fig.charts {
            assert_eq!(chart.series.len(), 6, "{}", chart.title);
        }
    }

    #[test]
    fn fig6_reports_bandwidth_notes() {
        let mut config = ExperimentConfig::smoke();
        config.repeats = 1;
        let fig = fig6(&config).unwrap();
        assert_eq!(fig.charts.len(), 4);
        assert!(fig.notes.iter().any(|n| n.contains("b_SW")));
    }
}
