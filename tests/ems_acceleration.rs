//! Accuracy evidence for the SQUAREM-accelerated EMS loop.
//!
//! `em::reconstruct` runs EMS in SQUAREM cycles; the paper's plain loop
//! ([`paper_loop`]) stays here as the baseline. Each cell runs both on
//! [`noisy_counts`] with a fixed seed, plus the EMS fixed point (the
//! reference cycles run with `τ = 0` for [`FIXED_POINT_EVALUATIONS`] map
//! evaluations, longer where that leaves a residual, certified by the
//! residual of the unfused map), and measures:
//!
//! 1. whether the accelerated estimate is no farther (W1) from the fixed
//!    point than the baseline's;
//! 2. the accelerated / baseline share of map evaluations;
//! 3. the accelerated / baseline ratio of W1 to the truth;
//! 4. at 10⁹ reports, whether the accelerated loop converged.
//!
//! The 15 fixed cells (seeds 100–104) must each meet criterion 1, a share
//! of at most [`MAX_EVALUATION_SHARE`], a ratio of at most
//! [`MAX_TRUTH_RATIO`], and criterion 4. The held-out survey
//! (`cargo test --release --test ems_acceleration -- --ignored`) runs
//! [`SURVEY_SEEDS`] more seeds per report total and bounds how often the
//! criteria miss; see [`held_out_survey_stays_within_its_bounds`].

mod common;

use common::{beta_truth, em_map, noisy_counts, paper_loop, squarem_loop};
use sw_ldp::metrics::wasserstein;
use sw_ldp::numeric::{Histogram, LinearOperator};
use sw_ldp::sw::{reconstruct, EmConfig, SmoothingKernel, SwMechanism};

/// The `(ε, d)` of every cell.
const SHAPES: [(f64, usize); 3] = [(0.5, 256), (1.0, 1024), (2.5, 256)];

/// Report totals per cell.
const REPORTS: [f64; 5] = [1e5, 1e6, 1e7, 1e8, 1e9];

/// Map evaluations of the fixed-point run; doubled while its residual
/// misses [`FIXED_POINT_RESIDUAL`], up to [`MAX_FIXED_POINT_EVALUATIONS`].
const FIXED_POINT_EVALUATIONS: usize = 24_000;

/// The longest fixed-point run.
const MAX_FIXED_POINT_EVALUATIONS: usize = 8 * FIXED_POINT_EVALUATIONS;

/// The fixed point's largest admitted residual `‖F(θ) − θ‖₁`.
const FIXED_POINT_RESIDUAL: f64 = 1e-10;

/// The bound on accelerated / baseline map evaluations.
const MAX_EVALUATION_SHARE: f64 = 1.0 / 3.0;

/// Criterion 3's bound on accelerated / baseline W1 to the truth.
const MAX_TRUTH_RATIO: f64 = 1.10;

/// Survey seeds per `(ε, d, N)`; the seed of replicate `s` of report
/// total `k` is `1000 + SURVEY_SEEDS·k + s`, disjoint from the fixed
/// cells' `100 + k`.
const SURVEY_SEEDS: u64 = 8;

/// The survey's bound on the share of cells that miss criterion 1.
const SURVEY_MAX_FARTHER: f64 = 0.01;

/// The survey's bound on the median evaluation share.
const SURVEY_MAX_MEDIAN_SHARE: f64 = 0.20;

/// The survey's bound on the share of cells above [`MAX_EVALUATION_SHARE`].
const SURVEY_MAX_SLOW: f64 = 0.05;

/// The EMS fixed point for `counts`, checked against the unfused map.
fn fixed_point<M: LinearOperator + ?Sized>(m: &M, counts: &[f64], label: &str) -> Histogram {
    let kernel = SmoothingKernel::binomial3();
    let mut evaluations = FIXED_POINT_EVALUATIONS;
    loop {
        let config = EmConfig {
            ll_threshold: 0.0,
            max_iterations: evaluations,
            min_iterations: evaluations,
            smoothing: Some(kernel.clone()),
        };
        let (fixed, _) = squarem_loop(m, counts, &config, &kernel);
        let theta = fixed.histogram.probs();
        let next = em_map(m, counts, Some(&kernel), theta);
        let residual: f64 = next.iter().zip(theta).map(|(a, b)| (a - b).abs()).sum();
        if residual <= FIXED_POINT_RESIDUAL {
            return fixed.histogram;
        }
        assert!(
            evaluations < MAX_FIXED_POINT_EVALUATIONS,
            "{label}: fixed point residual {residual:e} after {evaluations} evaluations"
        );
        evaluations *= 2;
    }
}

/// What one cell measured.
struct Cell {
    label: String,
    /// W1 to the fixed point: accelerated, paper loop.
    fixed: [f64; 2],
    /// W1 to the truth: accelerated, paper loop.
    truth: [f64; 2],
    /// Map evaluations: accelerated, paper loop.
    evaluations: [usize; 2],
    converged: bool,
}

impl Cell {
    fn farther(&self) -> bool {
        self.fixed[0] > self.fixed[1]
    }

    fn share(&self) -> f64 {
        self.evaluations[0] as f64 / self.evaluations[1] as f64
    }

    fn truth_ratio(&self) -> f64 {
        self.truth[0] / self.truth[1]
    }
}

/// Runs the cell `(eps, d, n)` on the counts of `seed`.
fn measure(eps: f64, d: usize, n: f64, seed: u64) -> Cell {
    let mech = SwMechanism::ems(eps, d).unwrap();
    let op = mech.pipeline().operator();
    let truth = Histogram::from_probs(beta_truth(d)).unwrap();
    let w1 = |a: &Histogram, b: &Histogram| wasserstein(a, b).unwrap();
    let label = format!("sw-ems eps={eps} d={d} n={n:e} seed={seed}");
    let counts = noisy_counts(op, n, seed);
    let (paper, _) = paper_loop(op, &counts, &EmConfig::ems());
    let fast = reconstruct(op, &counts, &EmConfig::ems()).unwrap();
    let fixed = fixed_point(op, &counts, &label);
    Cell {
        fixed: [w1(&fast.histogram, &fixed), w1(&paper.histogram, &fixed)],
        truth: [w1(&fast.histogram, &truth), w1(&paper.histogram, &truth)],
        evaluations: [fast.iterations, paper.iterations],
        converged: fast.converged,
        label,
    }
}

/// Every report total at `(eps, d)`, each cell held to every criterion.
fn check(eps: f64, d: usize) {
    for (k, n) in REPORTS.into_iter().enumerate() {
        let cell = measure(eps, d, n, 100 + k as u64);
        let label = &cell.label;
        assert!(
            !cell.farther(),
            "{label}: W1 to the fixed point {:e}, paper loop {:e}",
            cell.fixed[0],
            cell.fixed[1]
        );
        assert!(
            cell.share() <= MAX_EVALUATION_SHARE,
            "{label}: {} map evaluations, paper loop {} ({:.3})",
            cell.evaluations[0],
            cell.evaluations[1],
            cell.share()
        );
        assert!(
            cell.truth_ratio() <= MAX_TRUTH_RATIO,
            "{label}: W1 to truth {:e}, paper loop {:e}",
            cell.truth[0],
            cell.truth[1]
        );
        if n >= 1e9 {
            assert!(
                cell.converged,
                "{label}: no convergence in {} evaluations",
                cell.evaluations[0]
            );
        }
    }
}

#[test]
fn eps_half_d256_matches_the_paper_loop() {
    check(0.5, 256);
}

#[test]
fn eps_one_d1024_matches_the_paper_loop() {
    check(1.0, 1024);
}

#[test]
fn eps_2_5_d256_matches_the_paper_loop() {
    check(2.5, 256);
}

/// The held-out survey: [`SHAPES`] × [`REPORTS`] × [`SURVEY_SEEDS`] cells,
/// one thread per shape. It asserts that at most [`SURVEY_MAX_FARTHER`] of
/// the cells miss criterion 1, that every cell meets criterion 3, that the
/// median evaluation share is at most [`SURVEY_MAX_MEDIAN_SHARE`], and
/// that at most [`SURVEY_MAX_SLOW`] of the cells take more than
/// [`MAX_EVALUATION_SHARE`] of the paper loop's evaluations. It prints how
/// many cells meet criterion 1 within that share.
#[test]
#[ignore = "about a minute in release; run with --ignored"]
fn held_out_survey_stays_within_its_bounds() {
    let cells: Vec<Cell> = std::thread::scope(|scope| {
        let workers: Vec<_> = SHAPES
            .map(|(eps, d)| {
                scope.spawn(move || {
                    let mut cells = Vec::new();
                    for (k, n) in REPORTS.into_iter().enumerate() {
                        for s in 0..SURVEY_SEEDS {
                            let seed = 1000 + SURVEY_SEEDS * k as u64 + s;
                            cells.push(measure(eps, d, n, seed));
                        }
                    }
                    cells
                })
            })
            .into();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });

    let total = cells.len();
    let farther: Vec<&Cell> = cells.iter().filter(|c| c.farther()).collect();
    let slow: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.share() > MAX_EVALUATION_SHARE)
        .collect();
    let mut shares: Vec<f64> = cells.iter().map(Cell::share).collect();
    shares.sort_by(f64::total_cmp);
    let median = (shares[(total - 1) / 2] + shares[total / 2]) / 2.0;
    let both = cells
        .iter()
        .filter(|c| !c.farther() && c.share() <= MAX_EVALUATION_SHARE)
        .count();
    let unconverged = cells.iter().filter(|c| !c.converged).count();
    println!(
        "survey: {both}/{total} cells meet criterion 1 in at most 1/3 of the paper loop's \
         evaluations ({:.1}%; ROADMAP item 4 asks >= 355/360, {:.1}%)",
        100.0 * both as f64 / total as f64,
        100.0 * 355.0 / 360.0
    );
    println!(
        "survey: median share {median:.3}, max share {:.3}, {} farther, {} above 1/3, \
         {unconverged} unconverged",
        shares[total - 1],
        farther.len(),
        slow.len()
    );
    for c in farther.iter().chain(&slow) {
        println!(
            "  {}: W1 to fixed point {:e} vs {:e}, {} vs {} evaluations",
            c.label, c.fixed[0], c.fixed[1], c.evaluations[0], c.evaluations[1]
        );
    }

    for c in &cells {
        assert!(
            c.truth_ratio() <= MAX_TRUTH_RATIO,
            "{}: W1 to truth {:e}, paper loop {:e}",
            c.label,
            c.truth[0],
            c.truth[1]
        );
    }
    assert!(
        farther.len() as f64 <= SURVEY_MAX_FARTHER * total as f64,
        "{} of {total} cells stopped farther from the fixed point than the paper loop",
        farther.len()
    );
    assert!(
        median <= SURVEY_MAX_MEDIAN_SHARE,
        "median evaluation share {median:.3}"
    );
    assert!(
        slow.len() as f64 <= SURVEY_MAX_SLOW * total as f64,
        "{} of {total} cells took more than 1/3 of the paper loop's evaluations",
        slow.len()
    );
}
