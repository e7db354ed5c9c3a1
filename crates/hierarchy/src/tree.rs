//! Index arithmetic for complete β-ary trees over a bucketized domain.
//!
//! A [`TreeShape`] describes a tree whose `d = βʰ` leaves are the buckets of
//! the value domain. Level 0 is the root; level `h` holds the leaves. All
//! hierarchy methods (HH, HH-ADMM, Haar) share this geometry.

use crate::error::HierarchyError;

/// Geometry of a complete β-ary tree with `branching.pow(height)` leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    branching: usize,
    height: usize,
    leaves: usize,
}

impl TreeShape {
    /// Creates the shape for a domain of `leaves` buckets and the given
    /// branching factor. `leaves` must be an exact positive power of
    /// `branching`.
    pub fn new(branching: usize, leaves: usize) -> Result<Self, HierarchyError> {
        if branching < 2 {
            return Err(HierarchyError::InvalidParameter(format!(
                "branching factor must be at least 2, got {branching}"
            )));
        }
        let mut height = 0usize;
        let mut size = 1usize;
        while size < leaves {
            size = size
                .checked_mul(branching)
                .ok_or_else(|| HierarchyError::InvalidParameter("tree size overflow".into()))?;
            height += 1;
        }
        if size != leaves || height == 0 {
            return Err(HierarchyError::DomainNotPowerOfBranching {
                domain: leaves,
                branching,
            });
        }
        Ok(TreeShape {
            branching,
            height,
            leaves,
        })
    }

    /// The branching factor β.
    #[must_use]
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// The number of levels below the root (leaves live at this level).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The number of leaves `d`.
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Number of nodes at `level` (level 0 = root).
    #[must_use]
    pub fn level_size(&self, level: usize) -> usize {
        debug_assert!(level <= self.height);
        self.branching.pow(level as u32)
    }

    /// Total number of nodes over all levels.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        (0..=self.height).map(|l| self.level_size(l)).sum()
    }

    /// The ancestor, at `level`, of the leaf with index `leaf`.
    #[must_use]
    pub fn ancestor_at_level(&self, leaf: usize, level: usize) -> usize {
        debug_assert!(leaf < self.leaves && level <= self.height);
        leaf / self.branching.pow((self.height - level) as u32)
    }

    /// The range of leaf indices `[lo, hi)` covered by node `k` of `level`.
    #[must_use]
    pub fn leaf_range(&self, level: usize, k: usize) -> (usize, usize) {
        debug_assert!(level <= self.height && k < self.level_size(level));
        let span = self.branching.pow((self.height - level) as u32);
        (k * span, (k + 1) * span)
    }

    /// Index of the parent of node `k` at `level` (level must be ≥ 1).
    #[must_use]
    pub fn parent(&self, k: usize) -> usize {
        k / self.branching
    }

    /// Indices of the children of node `k` at `level` (level must be < height).
    #[must_use]
    pub fn children(&self, k: usize) -> std::ops::Range<usize> {
        k * self.branching..(k + 1) * self.branching
    }

    /// Decomposes the leaf-interval `[lo, hi)` into the canonical set of
    /// maximal tree nodes, returned as `(level, node)` pairs. This is the
    /// O(β·h) decomposition hierarchical methods use to answer range
    /// queries.
    #[must_use]
    pub fn canonical_decomposition(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.decompose(0, 0, lo.min(self.leaves), hi.min(self.leaves), &mut out);
        out
    }

    fn decompose(
        &self,
        level: usize,
        node: usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        if lo >= hi {
            return;
        }
        let (node_lo, node_hi) = self.leaf_range(level, node);
        if hi <= node_lo || lo >= node_hi {
            return;
        }
        if lo <= node_lo && node_hi <= hi {
            out.push((level, node));
            return;
        }
        debug_assert!(level < self.height);
        for child in self.children(node) {
            self.decompose(level + 1, child, lo, hi, out);
        }
    }
}

/// Per-level storage for node values of a complete tree, indexed
/// `levels[level][node]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeValues {
    /// One vector per level, level 0 first.
    pub levels: Vec<Vec<f64>>,
}

impl TreeValues {
    /// All-zero values for the given shape.
    #[must_use]
    pub fn zeros(shape: &TreeShape) -> Self {
        TreeValues {
            levels: (0..=shape.height())
                .map(|l| vec![0.0; shape.level_size(l)])
                .collect(),
        }
    }

    /// Builds the exact tree of a leaf distribution: each node holds the sum
    /// of its leaves.
    #[must_use]
    pub fn from_leaves(shape: &TreeShape, leaves: &[f64]) -> Self {
        debug_assert_eq!(leaves.len(), shape.leaves());
        let mut levels = vec![Vec::new(); shape.height() + 1];
        levels[shape.height()] = leaves.to_vec();
        for level in (0..shape.height()).rev() {
            let child = levels[level + 1].clone();
            levels[level] = child
                .chunks_exact(shape.branching())
                .map(|c| c.iter().sum())
                .collect();
        }
        TreeValues { levels }
    }

    /// Flattens into one vector, root first.
    #[must_use]
    pub fn flatten(&self) -> Vec<f64> {
        self.levels.iter().flatten().copied().collect()
    }

    /// Rebuilds per-level storage from a flattened vector.
    pub fn unflatten(shape: &TreeShape, flat: &[f64]) -> Result<Self, HierarchyError> {
        if flat.len() != shape.total_nodes() {
            return Err(HierarchyError::InvalidParameter(format!(
                "flat vector has {} entries, tree needs {}",
                flat.len(),
                shape.total_nodes()
            )));
        }
        let mut levels = Vec::with_capacity(shape.height() + 1);
        let mut offset = 0;
        for level in 0..=shape.height() {
            let size = shape.level_size(level);
            levels.push(flat[offset..offset + size].to_vec());
            offset += size;
        }
        Ok(TreeValues { levels })
    }

    /// Checks that these values fit `shape`: `height + 1` levels, level `l`
    /// holding exactly `shape.level_size(l)` nodes.
    pub(crate) fn check_shape(&self, shape: &TreeShape) -> Result<(), HierarchyError> {
        if self.levels.len() != shape.height() + 1 {
            return Err(HierarchyError::InvalidParameter(format!(
                "tree has {} levels, expected {}",
                self.levels.len(),
                shape.height() + 1
            )));
        }
        for (l, level) in self.levels.iter().enumerate() {
            if level.len() != shape.level_size(l) {
                return Err(HierarchyError::InvalidParameter(format!(
                    "tree level {l} has {} nodes, expected {}",
                    level.len(),
                    shape.level_size(l)
                )));
            }
        }
        Ok(())
    }

    /// The leaf level values.
    #[must_use]
    pub fn leaves(&self) -> &[f64] {
        self.levels
            .last()
            .expect("tree has at least the root level")
    }

    /// Maximum absolute violation of parent = Σ children over all internal
    /// nodes; 0 for a perfectly consistent tree.
    #[must_use]
    pub fn consistency_gap(&self, shape: &TreeShape) -> f64 {
        let mut worst = 0.0f64;
        for level in 0..shape.height() {
            for k in 0..shape.level_size(level) {
                let child_sum: f64 = shape.children(k).map(|c| self.levels[level + 1][c]).sum();
                worst = worst.max((self.levels[level][k] - child_sum).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validates_powers() {
        assert!(TreeShape::new(4, 256).is_ok());
        assert!(TreeShape::new(2, 1024).is_ok());
        assert!(TreeShape::new(4, 100).is_err());
        assert!(TreeShape::new(1, 4).is_err());
        assert!(TreeShape::new(4, 1).is_err());
    }

    #[test]
    fn shape_geometry() {
        let s = TreeShape::new(4, 256).unwrap();
        assert_eq!(s.height(), 4);
        assert_eq!(s.level_size(0), 1);
        assert_eq!(s.level_size(4), 256);
        assert_eq!(s.total_nodes(), 1 + 4 + 16 + 64 + 256);
        assert_eq!(s.ancestor_at_level(255, 0), 0);
        assert_eq!(s.ancestor_at_level(255, 1), 3);
        assert_eq!(s.ancestor_at_level(0, 4), 0);
        assert_eq!(s.leaf_range(1, 3), (192, 256));
        assert_eq!(s.parent(13), 3);
        assert_eq!(s.children(3), 12..16);
    }

    #[test]
    fn canonical_decomposition_covers_exactly() {
        let s = TreeShape::new(2, 16).unwrap();
        for lo in 0..16 {
            for hi in lo..=16 {
                let nodes = s.canonical_decomposition(lo, hi);
                // Rebuild the covered set and check it equals [lo, hi).
                let mut covered = [false; 16];
                for (level, k) in &nodes {
                    let (a, b) = s.leaf_range(*level, *k);
                    for slot in covered.iter_mut().take(b).skip(a) {
                        assert!(!*slot, "overlap at ({lo},{hi})");
                        *slot = true;
                    }
                }
                for (i, &c) in covered.iter().enumerate() {
                    assert_eq!(c, (lo..hi).contains(&i), "gap at ({lo},{hi}) idx {i}");
                }
            }
        }
    }

    #[test]
    fn canonical_decomposition_is_logarithmic() {
        let s = TreeShape::new(4, 1024).unwrap();
        let nodes = s.canonical_decomposition(1, 1023);
        // At most 2(β-1)h nodes.
        assert!(nodes.len() <= 2 * 3 * 5, "got {}", nodes.len());
    }

    #[test]
    fn tree_values_from_leaves_sums() {
        let s = TreeShape::new(2, 4).unwrap();
        let t = TreeValues::from_leaves(&s, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.levels[0], vec![10.0]);
        assert_eq!(t.levels[1], vec![3.0, 7.0]);
        assert_eq!(t.levels[2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.consistency_gap(&s), 0.0);
        assert_eq!(t.leaves(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let s = TreeShape::new(3, 27).unwrap();
        let leaves: Vec<f64> = (0..27).map(|i| i as f64).collect();
        let t = TreeValues::from_leaves(&s, &leaves);
        let flat = t.flatten();
        assert_eq!(flat.len(), s.total_nodes());
        let back = TreeValues::unflatten(&s, &flat).unwrap();
        assert_eq!(back, t);
        assert!(TreeValues::unflatten(&s, &flat[1..]).is_err());
    }

    #[test]
    fn consistency_gap_detects_violations() {
        let s = TreeShape::new(2, 4).unwrap();
        let mut t = TreeValues::from_leaves(&s, &[1.0, 2.0, 3.0, 4.0]);
        t.levels[1][0] = 5.0; // should be 3.0
        assert!((t.consistency_gap(&s) - 2.0).abs() < 1e-12);
    }
}
