//! Flattened branchless forest-inference kernel.
//!
//! [`RegressionTree`] stores nodes as a `Vec` of a two-variant enum; walking
//! it costs a discriminant match plus pointer-chasing through 40-byte nodes
//! per level. This module compiles a fitted forest into a contiguous
//! structure-of-arrays layout — `feature: Vec<u32>` (with a leaf sentinel),
//! `threshold: Vec<f64>` (which doubles as the leaf-value array: a leaf's
//! prediction sits in its threshold slot), and `children: Vec<[u32; 2]>` —
//! so a traversal step is three dense array loads and one data-dependent
//! index, with the branch direction computed arithmetically instead of by a
//! conditional jump.
//!
//! # Bit-identity contract
//!
//! The kernel must predict bit-identically to the retained enum walker
//! ([`RegressionTree::predict`]), which descends with
//! `if x[feature] <= threshold { left } else { right }`. The branchless
//! form therefore selects the right child with `!(x <= t)` — **not**
//! `x > t`, which disagrees under NaN (`NaN > t` and `NaN <= t` are both
//! false). Thresholds can be non-finite in practice: a split between
//! consecutive sample values `-inf` and `+inf` yields a NaN midpoint, and
//! probe rows built from degenerate telemetry can carry NaN features. The
//! equivalence across these shapes is pinned by `tests/predict_kernel.rs`.
//!
//! Trees are laid out back to back (node ids are absolute, offset by the
//! tree's base), so one `FlatForest` owns four allocations total no matter
//! the forest size.

use crate::tree::{Node, RegressionTree};

/// Sentinel in `feature` marking a leaf; the node's `threshold` slot holds
/// the leaf value and its `children` entry self-loops (never followed).
const LEAF: u32 = u32::MAX;

/// A forest compiled to the flat SoA layout. Immutable once built; the
/// owning [`crate::RandomForest`] recompiles it whenever trees change
/// (fit / stalest-tree refresh).
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    /// Split feature per node, `LEAF` for leaves.
    feature: Vec<u32>,
    /// Split threshold per node; leaf value for leaves.
    threshold: Vec<f64>,
    /// Absolute child node ids `[left, right]` per node.
    children: Vec<[u32; 2]>,
    /// Root node id of each tree, in training order.
    roots: Vec<u32>,
}

impl FlatForest {
    /// Compile fitted trees into one flat forest. Node order within a tree
    /// is preserved (the builder emits preorder), so compilation is a
    /// single pass with no remapping table.
    pub fn compile(trees: &[RegressionTree]) -> Self {
        let total: usize = trees.iter().map(|t| t.num_nodes()).sum();
        assert!(
            (total as u64) < LEAF as u64,
            "forest too large for u32 node ids"
        );
        let mut flat = Self {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            children: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
        };
        for tree in trees {
            let base = flat.feature.len() as u32;
            flat.roots.push(base);
            for (i, node) in tree.nodes.iter().enumerate() {
                match node {
                    Node::Leaf { value } => {
                        let me = base + i as u32;
                        flat.feature.push(LEAF);
                        flat.threshold.push(*value);
                        flat.children.push([me, me]);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        flat.feature.push(*feature as u32);
                        flat.threshold.push(*threshold);
                        flat.children
                            .push([base + *left as u32, base + *right as u32]);
                    }
                }
            }
        }
        flat
    }

    /// Walk one tree over one row.
    // The negated `<=` is the bit-identity contract (see module docs), not
    // a readability accident: `x > t` routes NaN differently.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn predict_tree(&self, tree: usize, x: &[f64]) -> f64 {
        let mut idx = self.roots[tree] as usize;
        loop {
            let f = self.feature[idx];
            if f == LEAF {
                return self.threshold[idx];
            }
            // `!(x <= t)`, not `x > t`: both are false for NaN, so only the
            // negated form routes NaN the same way as the enum walker's
            // `if x <= t { left } else { right }`.
            let go_right = usize::from(!(x[f as usize] <= self.threshold[idx]));
            idx = self.children[idx][go_right] as usize;
        }
    }

    /// Sum of all trees' predictions for one row, accumulated in tree
    /// order — the exact fold order of the sequential reference, so the
    /// mean computed from it is bit-identical.
    #[inline]
    pub fn sum_trees(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for t in 0..self.roots.len() {
            acc += self.predict_tree(t, x);
        }
        acc
    }
}
