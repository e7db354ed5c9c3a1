//! Hierarchical Histogram (HH) under LDP (paper §4.2).
//!
//! The user population is divided uniformly among the tree levels
//! 1..=h ("dividing the population", which the paper argues beats dividing
//! the privacy budget in the local setting). A user assigned to level `ℓ`
//! reports the level-`ℓ` ancestor of its value through the lower-variance
//! CFO for that level's domain. The aggregator estimates every level's
//! histogram and applies constrained inference to make the tree consistent;
//! range queries are then answered from the leaf level.

use crate::consistency::{constrained_inference, RootPolicy};
use crate::error::HierarchyError;
use crate::tree::{TreeShape, TreeValues};
use ldp_cfo::AdaptiveOracle;

/// Noisy per-level estimates collected from the population, before
/// consistency.
#[derive(Debug, Clone)]
pub struct HhRaw {
    /// Tree with level 0 = root (always exactly 1: the total is public).
    pub tree: TreeValues,
    /// Per-level estimate variances (root gets a tiny positive placeholder).
    pub level_variances: Vec<f64>,
    shape: TreeShape,
}

impl HhRaw {
    /// Assembles a raw estimate from parts (level 0 of `tree` must hold the
    /// public total; every level must match `shape`; one variance per
    /// level).
    pub fn new(
        shape: TreeShape,
        tree: TreeValues,
        level_variances: Vec<f64>,
    ) -> Result<Self, HierarchyError> {
        tree.check_shape(&shape)?;
        if level_variances.len() != shape.height() + 1 {
            return Err(HierarchyError::InvalidParameter(format!(
                "got {} level variances, expected {}",
                level_variances.len(),
                shape.height() + 1
            )));
        }
        Ok(HhRaw {
            tree,
            level_variances,
            shape,
        })
    }

    /// The tree geometry.
    #[must_use]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }
}

/// The Hierarchical Histogram collector.
#[derive(Debug, Clone)]
pub struct HierarchicalHistogram {
    shape: TreeShape,
    eps: f64,
    /// Per-level adaptive oracles (index `level - 1` for levels 1..=h),
    /// built once at construction.
    oracles: Vec<AdaptiveOracle>,
}

impl HierarchicalHistogram {
    /// Creates an HH over a domain of `d` buckets with branching factor
    /// `branching` (the paper uses 4) and privacy budget `eps`.
    pub fn new(branching: usize, d: usize, eps: f64) -> Result<Self, HierarchyError> {
        let shape = TreeShape::new(branching, d)?;
        ldp_core::Epsilon::new(eps)?;
        let oracles = (1..=shape.height())
            .map(|level| AdaptiveOracle::new(shape.level_size(level), eps))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HierarchicalHistogram {
            shape,
            eps,
            oracles,
        })
    }

    /// The per-level oracle serving tree level `level` (1..=h).
    pub(crate) fn level_oracle(&self, level: usize) -> &AdaptiveOracle {
        &self.oracles[level - 1]
    }

    /// The tree geometry.
    #[must_use]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Applies constrained inference (root fixed to 1) to raw estimates,
    /// yielding the consistent tree used for range queries.
    pub fn make_consistent(&self, raw: &HhRaw) -> Result<TreeValues, HierarchyError> {
        constrained_inference(
            &self.shape,
            &raw.tree,
            &raw.level_variances,
            RootPolicy::Fixed(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{Client, CoreError, Mechanism};
    use ldp_numeric::SplitMix64;

    /// Randomizes every value through `hh` on `rng` and aggregates.
    fn collect_raw(
        hh: &HierarchicalHistogram,
        values: &[usize],
        rng: &mut SplitMix64,
    ) -> Result<HhRaw, CoreError> {
        let reports = Client::new(hh).randomize_batch(values, rng)?;
        hh.aggregate(&reports)
    }

    #[test]
    fn construction_validates() {
        assert!(HierarchicalHistogram::new(4, 256, 1.0).is_ok());
        assert!(HierarchicalHistogram::new(4, 100, 1.0).is_err());
        assert!(HierarchicalHistogram::new(4, 256, 0.0).is_err());
    }

    #[test]
    fn collect_rejects_bad_input() {
        let hh = HierarchicalHistogram::new(2, 8, 1.0).unwrap();
        let mut rng = SplitMix64::new(71);
        assert!(collect_raw(&hh, &[], &mut rng).is_err());
        assert!(collect_raw(&hh, &[8], &mut rng).is_err());
    }

    #[test]
    fn raw_rejects_levels_of_the_wrong_width() {
        let shape = TreeShape::new(2, 4).unwrap();
        let tree = TreeValues {
            levels: vec![vec![1.0], vec![0.5], vec![0.25; 4]],
        };
        let err = HhRaw::new(shape, tree, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, HierarchyError::InvalidParameter(_)), "{err}");
        assert!(HhRaw::new(shape, TreeValues::zeros(&shape), vec![1.0; 2]).is_err());
        assert!(HhRaw::new(shape, TreeValues::zeros(&shape), vec![1.0; 3]).is_ok());
    }

    #[test]
    fn consistent_tree_sums_to_one() {
        let hh = HierarchicalHistogram::new(4, 64, 1.0).unwrap();
        let mut rng = SplitMix64::new(72);
        let values: Vec<usize> = (0..30_000).map(|i| i % 64).collect();
        let raw = collect_raw(&hh, &values, &mut rng).unwrap();
        let consistent = hh.make_consistent(&raw).unwrap();
        assert!(consistent.consistency_gap(hh.shape()) < 1e-9);
        let leaf_sum: f64 = consistent.leaves().iter().sum();
        assert!((leaf_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_epsilon_recovers_distribution() {
        let hh = HierarchicalHistogram::new(4, 16, 8.0).unwrap();
        let mut rng = SplitMix64::new(73);
        // 50% bucket 2, 50% bucket 11.
        let values: Vec<usize> = (0..60_000)
            .map(|i| if i % 2 == 0 { 2 } else { 11 })
            .collect();
        let raw = collect_raw(&hh, &values, &mut rng).unwrap();
        let leaves = hh.make_consistent(&raw).unwrap().leaves().to_vec();
        assert!((leaves[2] - 0.5).abs() < 0.05, "leaf2={}", leaves[2]);
        assert!((leaves[11] - 0.5).abs() < 0.05, "leaf11={}", leaves[11]);
        for (i, &l) in leaves.iter().enumerate() {
            if i != 2 && i != 11 {
                assert!(l.abs() < 0.05, "leaf{i}={l}");
            }
        }
    }

    #[test]
    fn level_variances_are_recorded_per_level() {
        let hh = HierarchicalHistogram::new(4, 256, 1.0).unwrap();
        let mut rng = SplitMix64::new(74);
        let values: Vec<usize> = (0..10_000).map(|i| i % 256).collect();
        let raw = collect_raw(&hh, &values, &mut rng).unwrap();
        assert_eq!(raw.level_variances.len(), 5);
        // Every estimated level has a real positive variance.
        for level in 1..=4 {
            assert!(raw.level_variances[level] > 0.0);
        }
    }
}
