//! Constrained inference over tree estimates (Hay et al., PVLDB 2010),
//! generalized to per-level variances.
//!
//! Given independent noisy estimates of every tree node, the two-pass
//! algorithm computes the generalized-least-squares estimate satisfying the
//! hierarchical constraint "parent = Σ children":
//!
//! 1. **Bottom-up**: each internal node's own estimate is combined with the
//!    sum of its (already combined) children by inverse-variance weighting.
//! 2. **Top-down**: the root value is fixed, and at each step the
//!    discrepancy between a parent and the sum of its children is divided
//!    equally among the children (exact because nodes on one level share a
//!    variance).
//!
//! With all variances equal this is the Euclidean projection onto the
//! consistency subspace `{x : Ax = 0}` — exactly the `ΠC` operator the
//! HH-ADMM algorithm needs (paper Appendix B).

use crate::error::HierarchyError;
use crate::tree::{TreeShape, TreeValues};

/// What the top-down pass pins the root to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RootPolicy {
    /// Keep the root at its bottom-up combined estimate (pure projection).
    Estimated,
    /// Fix the root to a known total — in LDP the total count is public,
    /// so the distribution root is exactly 1 (paper §4.3).
    Fixed(f64),
}

/// Runs weighted constrained inference.
///
/// `level_variances[l]` is the variance of every node estimate on level `l`
/// (level 0 = root). Returns the consistent tree.
pub fn constrained_inference(
    shape: &TreeShape,
    noisy: &TreeValues,
    level_variances: &[f64],
    root: RootPolicy,
) -> Result<TreeValues, HierarchyError> {
    let h = shape.height();
    noisy.check_shape(shape)?;
    if level_variances.len() != h + 1 {
        return Err(HierarchyError::InvalidParameter(format!(
            "got {} level variances, expected {}",
            level_variances.len(),
            h + 1
        )));
    }
    if level_variances
        .iter()
        .any(|&v| !(v > 0.0) || !v.is_finite())
    {
        return Err(HierarchyError::InvalidParameter(
            "level variances must be positive and finite".into(),
        ));
    }

    // Bottom-up: z combines each node's own estimate with its children sum.
    let mut z = noisy.clone();
    // Variance of the combined estimate, uniform within a level.
    let mut z_var = vec![0.0; h + 1];
    z_var[h] = level_variances[h];
    for level in (0..h).rev() {
        let child_sum_var = shape.branching() as f64 * z_var[level + 1];
        let own_var = level_variances[level];
        let w_own = child_sum_var / (own_var + child_sum_var);
        for k in 0..shape.level_size(level) {
            let child_sum: f64 = shape.children(k).map(|c| z.levels[level + 1][c]).sum();
            z.levels[level][k] = w_own * noisy.levels[level][k] + (1.0 - w_own) * child_sum;
        }
        z_var[level] = own_var * child_sum_var / (own_var + child_sum_var);
    }

    // Top-down: fix the root, push discrepancies down equally.
    let mut u = z.clone();
    if let RootPolicy::Fixed(total) = root {
        u.levels[0][0] = total;
    }
    let beta = shape.branching() as f64;
    for level in 0..h {
        for k in 0..shape.level_size(level) {
            let child_sum: f64 = shape.children(k).map(|c| z.levels[level + 1][c]).sum();
            let adjust = (u.levels[level][k] - child_sum) / beta;
            for c in shape.children(k) {
                u.levels[level + 1][c] = z.levels[level + 1][c] + adjust;
            }
        }
    }
    Ok(u)
}

/// The Euclidean projection onto the tree-consistency subspace
/// (`ΠC` in the HH-ADMM algorithm): constrained inference with equal
/// weights on every node and the root left free.
pub fn project_consistent(
    shape: &TreeShape,
    values: &TreeValues,
) -> Result<TreeValues, HierarchyError> {
    let vars = vec![1.0; shape.height() + 1];
    constrained_inference(shape, values, &vars, RootPolicy::Estimated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_2_8() -> TreeShape {
        TreeShape::new(2, 8).unwrap()
    }

    #[test]
    fn consistent_input_is_fixed_point() {
        let s = shape_2_8();
        let t = TreeValues::from_leaves(&s, &[0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1]);
        let out = constrained_inference(&s, &t, &[1.0; 4], RootPolicy::Estimated).unwrap();
        for (a, b) in out.flatten().iter().zip(t.flatten().iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn output_is_always_consistent() {
        let s = shape_2_8();
        // Arbitrary inconsistent values.
        let mut t = TreeValues::zeros(&s);
        let mut v = 0.37;
        for level in &mut t.levels {
            for x in level.iter_mut() {
                v = (v * 7.13 + 0.31) % 1.0;
                *x = v;
            }
        }
        let out = constrained_inference(&s, &t, &[1.0; 4], RootPolicy::Estimated).unwrap();
        assert!(out.consistency_gap(&s) < 1e-9);
    }

    #[test]
    fn fixed_root_is_respected() {
        let s = shape_2_8();
        let mut t = TreeValues::zeros(&s);
        for level in &mut t.levels {
            for (i, x) in level.iter_mut().enumerate() {
                *x = 0.3 + 0.01 * i as f64;
            }
        }
        let out = constrained_inference(&s, &t, &[1.0; 4], RootPolicy::Fixed(1.0)).unwrap();
        assert!((out.levels[0][0] - 1.0).abs() < 1e-12);
        assert!(out.consistency_gap(&s) < 1e-9);
        let leaf_sum: f64 = out.leaves().iter().sum();
        assert!((leaf_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn projection_is_idempotent() {
        let s = shape_2_8();
        let mut t = TreeValues::zeros(&s);
        for (i, level) in t.levels.iter_mut().enumerate() {
            for (j, x) in level.iter_mut().enumerate() {
                *x = ((i * 31 + j * 17) % 11) as f64 / 11.0 - 0.3;
            }
        }
        let once = project_consistent(&s, &t).unwrap();
        let twice = project_consistent(&s, &once).unwrap();
        for (a, b) in once.flatten().iter().zip(twice.flatten().iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_minimizes_l2_distance() {
        // Compare against brute force on the tiny tree (β=2, 2 leaves):
        // variables (r, a, b) with constraint r = a + b. Projection of
        // (r0, a0, b0) onto the plane has closed form with Lagrange
        // multipliers: r = r0 - λ, a = a0 + λ, b = b0 + λ where
        // λ = (r0 - a0 - b0)/3.
        let s = TreeShape::new(2, 2).unwrap();
        let t = TreeValues {
            levels: vec![vec![1.0], vec![0.2, 0.3]],
        };
        let out = project_consistent(&s, &t).unwrap();
        let lambda = (1.0 - 0.2 - 0.3) / 3.0;
        assert!((out.levels[0][0] - (1.0 - lambda)).abs() < 1e-12);
        assert!((out.levels[1][0] - (0.2 + lambda)).abs() < 1e-12);
        assert!((out.levels[1][1] - (0.3 + lambda)).abs() < 1e-12);
    }

    #[test]
    fn low_noise_level_dominates_weighting() {
        // If the parent level is measured nearly noiselessly, the combined
        // estimate should stick to the parent's own value.
        let s = TreeShape::new(2, 2).unwrap();
        let t = TreeValues {
            levels: vec![vec![1.0], vec![0.1, 0.1]],
        };
        let out = constrained_inference(&s, &t, &[1e-9, 10.0], RootPolicy::Estimated).unwrap();
        assert!((out.levels[0][0] - 1.0).abs() < 1e-3);
        // Children get pushed up to match the trusted parent.
        let child_sum: f64 = out.leaves().iter().sum();
        assert!((child_sum - out.levels[0][0]).abs() < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        let s = shape_2_8();
        let t = TreeValues::zeros(&s);
        assert!(constrained_inference(&s, &t, &[1.0; 3], RootPolicy::Estimated).is_err());
        assert!(
            constrained_inference(&s, &t, &[1.0, 1.0, 0.0, 1.0], RootPolicy::Estimated).is_err()
        );
        let bad = TreeValues {
            levels: vec![vec![0.0]],
        };
        assert!(constrained_inference(&s, &bad, &[1.0; 4], RootPolicy::Estimated).is_err());
    }

    #[test]
    fn wrong_width_level_is_rejected_instead_of_panicking() {
        // Right number of levels, but level 1 holds one node instead of 2.
        let s = TreeShape::new(2, 4).unwrap();
        let t = TreeValues {
            levels: vec![vec![1.0], vec![0.5], vec![0.25; 4]],
        };
        let err = constrained_inference(&s, &t, &[1.0; 3], RootPolicy::Fixed(1.0)).unwrap_err();
        assert!(matches!(err, HierarchyError::InvalidParameter(_)), "{err}");
        assert!(project_consistent(&s, &t).is_err());
    }
}
