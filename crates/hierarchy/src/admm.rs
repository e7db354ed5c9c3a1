//! HH-ADMM (paper §4.3, Algorithm 2 / Appendix B): post-processing of
//! hierarchical-histogram estimates by the Alternating Direction Method of
//! Multipliers.
//!
//! The optimization is
//!
//! ```text
//! minimize   ½ ‖x̂ − x̃‖₂²
//! subject to A·x̂ = 0   (parent = Σ children)
//!            x̂ ≥ 0     (non-negativity)
//!            x̂₀ = 1    (the total is public under LDP)
//! ```
//!
//! solved by splitting into three proxable pieces: a quadratic `y`-block, an
//! indicator of the consistency subspace (projection = Hay constrained
//! inference, [`crate::consistency::project_consistent`]) and an indicator
//! of the per-level simplex (projection = Norm-Sub,
//! [`ldp_cfo::postprocess::norm_sub`]). The L2 objective is deliberate: CFO
//! noise is approximately Gaussian, so least squares is the MLE (§4.3).

use crate::consistency::project_consistent;
use crate::error::HierarchyError;
use crate::hh::HhRaw;
use crate::tree::{TreeShape, TreeValues};
use ldp_cfo::postprocess::norm_sub;
use ldp_numeric::Histogram;

/// Configuration of the ADMM solver.
#[derive(Debug, Clone, Copy)]
pub struct AdmmConfig {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Stop when the L1 change of `x̂` between iterations falls below this.
    pub tolerance: f64,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            max_iterations: 300,
            tolerance: 1e-8,
        }
    }
}

/// Outcome of an ADMM run.
#[derive(Debug, Clone)]
pub struct AdmmResult {
    /// The post-processed tree (consistent, non-negative, levels sum to 1
    /// up to the solver tolerance).
    pub tree: TreeValues,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Final L1 change of the primal iterate.
    pub final_change: f64,
}

/// Projection onto `N+`: every level clamped to the probability simplex
/// (non-negative, summing to 1). Norm-Sub per level (Appendix B).
fn project_levels_simplex(v: &TreeValues) -> TreeValues {
    let levels = v.levels.iter().map(|level| norm_sub(level, 1.0)).collect();
    TreeValues { levels }
}

/// Runs HH-ADMM post-processing on raw hierarchical estimates.
pub fn hh_admm(
    shape: &TreeShape,
    raw: &HhRaw,
    config: AdmmConfig,
) -> Result<AdmmResult, HierarchyError> {
    if config.max_iterations == 0 {
        return Err(HierarchyError::InvalidParameter(
            "max_iterations must be positive".into(),
        ));
    }
    if !(config.tolerance >= 0.0) {
        return Err(HierarchyError::InvalidParameter(
            "tolerance must be non-negative".into(),
        ));
    }
    let x_tilde = raw.tree.flatten();
    let n = x_tilde.len();
    if n != shape.total_nodes() {
        return Err(HierarchyError::InvalidParameter(format!(
            "raw tree has {n} nodes, shape expects {}",
            shape.total_nodes()
        )));
    }

    let mut x_hat = x_tilde.clone();
    let mut y = vec![0.0; n];
    let mut mu = vec![0.0; n];
    let mut nu = vec![0.0; n];
    let mut eta = vec![0.0; n];

    let mut iterations = 0;
    let mut change = f64::INFINITY;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;

        // y-update: argmin ½‖y‖² + ρ/2 ‖x̂ − x̃ − y + μ‖², ρ = 1.
        for i in 0..n {
            y[i] = 0.5 * (x_hat[i] - x_tilde[i] + mu[i]);
        }

        // z-update: Euclidean projection of (x̂ + ν) onto {Ax = 0}.
        let zin: Vec<f64> = (0..n).map(|i| x_hat[i] + nu[i]).collect();
        let z_tree = project_consistent(shape, &TreeValues::unflatten(shape, &zin)?)?;
        let z = z_tree.flatten();

        // w-update: projection of (x̂ + η) onto per-level simplices.
        let win: Vec<f64> = (0..n).map(|i| x_hat[i] + eta[i]).collect();
        let w_tree = project_levels_simplex(&TreeValues::unflatten(shape, &win)?);
        let w = w_tree.flatten();

        // x̂-update: average of the three blocks' pullbacks.
        change = 0.0;
        for i in 0..n {
            let next = ((y[i] + x_tilde[i] - mu[i]) + (z[i] - nu[i]) + (w[i] - eta[i])) / 3.0;
            change += (next - x_hat[i]).abs();
            x_hat[i] = next;
        }

        // Dual updates.
        for i in 0..n {
            mu[i] += x_hat[i] - x_tilde[i] - y[i];
            nu[i] += x_hat[i] - z[i];
            eta[i] += x_hat[i] - w[i];
        }

        if change < config.tolerance {
            break;
        }
    }

    // Final polish: the iterate is feasible only in the limit, so project
    // once more onto each constraint in sequence (consistency, then the
    // leaf simplex via the caller).
    let tree = project_consistent(shape, &TreeValues::unflatten(shape, &x_hat)?)?;
    Ok(AdmmResult {
        tree,
        iterations,
        final_change: change,
    })
}

/// Convenience: runs HH-ADMM and returns the leaf distribution as a valid
/// [`Histogram`] (final Norm-Sub on the leaves guards against residual
/// infeasibility at finite iteration counts).
pub fn hh_admm_histogram(
    shape: &TreeShape,
    raw: &HhRaw,
    config: AdmmConfig,
) -> Result<Histogram, HierarchyError> {
    let result = hh_admm(shape, raw, config)?;
    let leaves = norm_sub(result.tree.leaves(), 1.0);
    Histogram::from_probs(leaves).map_err(|e| HierarchyError::InvalidParameter(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hh::HierarchicalHistogram;
    use ldp_core::{Client, Mechanism};
    use ldp_numeric::SplitMix64;

    /// Randomizes every value through `hh` on `rng` and aggregates.
    fn collect_raw(hh: &HierarchicalHistogram, values: &[usize], rng: &mut SplitMix64) -> HhRaw {
        let reports = Client::new(hh).randomize_batch(values, rng).unwrap();
        hh.aggregate(&reports).unwrap()
    }

    fn run_raw(eps: f64, seed: u64, d: usize) -> (HierarchicalHistogram, HhRaw) {
        let hh = HierarchicalHistogram::new(4, d, eps).unwrap();
        let mut rng = SplitMix64::new(seed);
        // Mass concentrated on the first quarter of the domain.
        let values: Vec<usize> = (0..40_000).map(|i| (i * 7) % (d / 4)).collect();
        let raw = collect_raw(&hh, &values, &mut rng);
        (hh, raw)
    }

    #[test]
    fn admm_output_satisfies_all_constraints() {
        let (hh, raw) = run_raw(1.0, 91, 64);
        let result = hh_admm(hh.shape(), &raw, AdmmConfig::default()).unwrap();
        // Consistent.
        assert!(result.tree.consistency_gap(hh.shape()) < 1e-6);
        // Leaves nearly a distribution (non-negativity is enforced in the
        // limit; after the finishing projection residual negativity is tiny).
        let leaves = result.tree.leaves();
        let min = leaves.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > -1e-3, "min leaf {min}");
        let sum: f64 = leaves.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
    }

    #[test]
    fn admm_histogram_is_valid_distribution() {
        let (hh, raw) = run_raw(0.5, 92, 64);
        let h = hh_admm_histogram(hh.shape(), &raw, AdmmConfig::default()).unwrap();
        assert_eq!(h.len(), 64);
        assert!(h.probs().iter().all(|&p| p >= 0.0));
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn admm_improves_over_raw_leaves() {
        // Compare L1 distance to the truth before/after post-processing.
        let d = 64;
        let hh = HierarchicalHistogram::new(4, d, 0.5).unwrap();
        let mut rng = SplitMix64::new(93);
        let values: Vec<usize> = (0..40_000).map(|i| (i * 13) % (d / 4)).collect();
        let mut truth = vec![0.0; d];
        for &v in &values {
            truth[v] += 1.0 / values.len() as f64;
        }
        let raw = collect_raw(&hh, &values, &mut rng);
        let raw_leaves = hh.make_consistent(&raw).unwrap().leaves().to_vec();
        let admm = hh_admm_histogram(hh.shape(), &raw, AdmmConfig::default()).unwrap();
        let err_raw: f64 = raw_leaves
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let err_admm: f64 = admm
            .probs()
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            err_admm < err_raw,
            "ADMM {err_admm} should beat raw {err_raw}"
        );
    }

    #[test]
    fn admm_converges_and_reports_iterations() {
        let (hh, raw) = run_raw(2.0, 94, 64);
        let result = hh_admm(
            hh.shape(),
            &raw,
            AdmmConfig {
                max_iterations: 500,
                tolerance: 1e-10,
            },
        )
        .unwrap();
        assert!(result.iterations >= 1);
        assert!(result.final_change.is_finite());
    }

    #[test]
    fn admm_validates_config() {
        let (hh, raw) = run_raw(1.0, 95, 16);
        assert!(hh_admm(
            hh.shape(),
            &raw,
            AdmmConfig {
                max_iterations: 0,
                tolerance: 1e-8
            }
        )
        .is_err());
        assert!(hh_admm(
            hh.shape(),
            &raw,
            AdmmConfig {
                max_iterations: 10,
                tolerance: f64::NAN
            }
        )
        .is_err());
    }

    #[test]
    fn noiseless_input_is_preserved() {
        // If the raw tree is already feasible, ADMM should essentially
        // return it.
        let shape = TreeShape::new(2, 4).unwrap();
        let leaves = [0.4, 0.1, 0.3, 0.2];
        let tree = TreeValues::from_leaves(&shape, &leaves);
        let raw = HhRaw::new(shape, tree, vec![1e-12, 1.0, 1.0]).unwrap();
        let result = hh_admm(&shape, &raw, AdmmConfig::default()).unwrap();
        for (a, b) in result.tree.leaves().iter().zip(leaves.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
