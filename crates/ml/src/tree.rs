//! CART regression trees — presorted split-search kernel.
//!
//! Splits minimise the weighted sum of squared errors (equivalently,
//! maximise variance reduction). Each split considers a random subset of
//! `mtry` features — the forest's decorrelation mechanism — and candidate
//! thresholds are midpoints between consecutive sorted feature values.
//! Per-feature impurity importances (total variance reduction contributed by
//! splits on that feature) are accumulated during building; the forest
//! averages them for the paper's Figure 8.
//!
//! # The training kernel
//!
//! The original implementation (retained bit-for-bit compatible in
//! [`crate::reference`]) re-sorted a row-index vector for every candidate
//! feature at every node, reading feature values through row-major strides —
//! O(features · n log n) comparisons per node, each one a pair of
//! cache-hostile loads ~20 KB apart on the paper's 2580-dimension vectors.
//! This module replaces that with a SLIQ/SPRINT-style kernel:
//!
//! * **Column-major reads** — feature values are gathered once into
//!   per-feature value arenas (a [`ColumnStore`] transpose restricted to
//!   the bootstrap sample), so every scan walks contiguous memory.
//! * **Radix presort once per tree, when the sample reaches the cutoff** —
//!   one position array per non-constant feature, LSD-radix-sorted at the
//!   root on a monotone `u64` key whose integer order equals
//!   `f64::total_cmp` order. Byte passes where a single bucket holds every
//!   key are skipped, which collapses the cost on the quantised telemetry
//!   columns (2–3 varying bytes of 8). Only nodes of at least `SMALL_NODE`
//!   rows read the arrays, so a bootstrap sample below that cutoff gets no
//!   presort at all: its root already sorts on demand. IRFR's paper-scale
//!   refreshes (120–240 rows) never reach the cutoff.
//! * **Sorted-order maintenance with a size cutoff** — partitions of large
//!   nodes *stably filter* each presorted array into the two children
//!   (branchless dual-store loop) instead of re-sorting, O(n) per feature
//!   per level; below `SMALL_NODE` rows the kernel stops maintaining
//!   arenas and instead sorts the node's members on demand for each
//!   examined feature — cheaper there, because a node only examines
//!   ~`mtry` of the features its arenas would cover. Leaf-bound children
//!   skip maintenance entirely.
//! * **Streamed candidate features** — the per-node candidate permutation
//!   is drawn lazily through `CandidateStream`, paying RNG draws and
//!   swaps only for the ~`mtry` candidates actually examined instead of
//!   all `dim`, while replaying the eager shuffle's exact draw sequence.
//! * **Single-sweep gains** — split gains come from one incremental
//!   prefix-moment sweep over the sorted order (push left / pop right),
//!   the same floating-point operation sequence as the reference.
//! * **Constant-column skip** — globally constant features (the sparse
//!   zero padding that dominates the overlap codings) are never gathered,
//!   presorted or scanned; they cannot produce a split in either
//!   implementation.
//!
//! A tree is built on one thread; the forest trains its independent trees
//! in parallel (see [`crate::forest`]).
//!
//! # Determinism
//!
//! The kernel is bit-identical to [`crate::reference`]: both define the
//! per-node scan order as "feature value ascending, ties by bootstrap
//! position" (the reference realises it with a stable sort over a stably
//! partitioned row array; the kernel by stable filtering of presorted
//! arrays), both accumulate moments in exactly that order, and both pick
//! the winning split by strictly-greater gain in feature-examination order
//! (first feature examined wins ties, earliest boundary wins within a
//! feature). The property tests in `tests/train_kernel.rs` pin this
//! equivalence across seeds and hyperparameters.

use crate::dataset::{ColumnStore, Dataset};
use simcore::SimRng;

/// Tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Features considered per split; `0` means `ceil(sqrt(d))`.
    pub mtry: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 14,
            min_samples_leaf: 2,
            mtry: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) importances: Vec<f64>,
}

/// Effective `mtry` for a dimension: `0` means `ceil(sqrt(d))`.
pub(crate) fn effective_mtry(params: TreeParams, dim: usize) -> usize {
    let mtry = if params.mtry == 0 {
        (dim as f64).sqrt().ceil() as usize
    } else {
        params.mtry.min(dim)
    };
    mtry.max(1)
}

/// Shuffled candidate-feature order for one node: a permutation of all
/// features drawn from `rng`, deduplicated in first-occurrence order.
///
/// The permutation is drawn with the *prefix-final* ("to-front") Fisher–
/// Yates — after step `i` the first `i + 1` elements are final, the same
/// partial-shuffle idiom as [`SimRng::sample_indices`]. That property is
/// what lets the kernel stream candidates lazily through
/// [`CandidateStream`] (paying only as many draws as it examines, ~mtry of
/// the 2580 features) while the reference materialises the full
/// permutation: both visit candidates in exactly this order.
///
/// The shuffle samples without replacement, so the dedup pass is a no-op
/// today — it exists so that a future sampling-with-replacement candidate
/// draw cannot silently redo identical split scans (each scan of a
/// 2580-dim node costs a full sweep).
pub(crate) fn candidate_features(dim: usize, rng: &mut SimRng, seen: &mut Vec<bool>) -> Vec<usize> {
    let mut features: Vec<usize> = (0..dim).collect();
    for i in 0..dim {
        let j = i + rng.index(dim - i);
        features.swap(i, j);
    }
    seen.clear();
    seen.resize(dim, false);
    features.retain(|&f| !std::mem::replace(&mut seen[f], true));
    features
}

/// Lazy view of the [`candidate_features`] permutation: makes the identical
/// RNG draws in the identical order, but only as candidates are requested.
///
/// A node typically examines ~mtry of the `dim` features before stopping,
/// so streaming turns the per-node candidate cost from `dim` draws + swaps
/// into `examined` of each. `order` must hold the identity permutation on
/// entry; every swap is recorded and undone on drop, restoring identity so
/// one buffer serves every node of a tree. Streams a permutation, so the
/// yielded candidates are duplicate-free by construction (the dedup pass in
/// the eager path is a no-op and needs no streaming counterpart).
pub(crate) struct CandidateStream<'o> {
    order: &'o mut [u32],
    trace: Vec<(u32, u32)>,
    pos: usize,
    rng: SimRng,
}

impl<'o> CandidateStream<'o> {
    pub(crate) fn new(order: &'o mut [u32], rng: SimRng) -> Self {
        Self {
            order,
            trace: Vec::new(),
            pos: 0,
            rng,
        }
    }

    pub(crate) fn next(&mut self) -> Option<usize> {
        if self.pos >= self.order.len() {
            return None;
        }
        let j = self.pos + self.rng.index(self.order.len() - self.pos);
        if j != self.pos {
            self.order.swap(self.pos, j);
            self.trace.push((self.pos as u32, j as u32));
        }
        let f = self.order[self.pos] as usize;
        self.pos += 1;
        Some(f)
    }
}

impl Drop for CandidateStream<'_> {
    fn drop(&mut self) {
        for &(i, j) in self.trace.iter().rev() {
            self.order.swap(i as usize, j as usize);
        }
    }
}

/// Sum and sum-of-squares accumulator for fast SSE computation.
///
/// Shared by the kernel and the reference: bit-identity requires both
/// paths to run exactly these update formulas in exactly the same order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Moments {
    pub(crate) n: f64,
    pub(crate) sum: f64,
    pub(crate) sum_sq: f64,
}

impl Moments {
    pub(crate) fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sum_sq += y * y;
    }
    pub(crate) fn pop(&mut self, y: f64) {
        self.n -= 1.0;
        self.sum -= y;
        self.sum_sq -= y * y;
    }
    pub(crate) fn sse(&self) -> f64 {
        if self.n <= 0.0 {
            0.0
        } else {
            (self.sum_sq - self.sum * self.sum / self.n).max(0.0)
        }
    }
    pub(crate) fn mean(&self) -> f64 {
        if self.n <= 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

/// One presorted feature, structure-of-arrays:
///
/// * `vals[p]` — the feature's value at bootstrap position `p`, gathered
///   once per tree (an `n × 8` byte table, L1/L2-resident for typical
///   node counts, indexed by the `u32` positions below);
/// * `sorted` — bootstrap positions ordered by `(value, position)`,
///   maintained through node partitions by stable filtering; empty when
///   the bootstrap sample is below [`SMALL_NODE`], since no node reads it.
///
/// Keeping the arena entries at 4 bytes (positions only) instead of
/// `(u32, f64)` pairs quarters the memory the per-node partition
/// maintenance — the kernel's dominant cost — has to move.
struct FeatureColumn {
    feature: usize,
    vals: Vec<f64>,
    sorted: Vec<u32>,
}

/// Node size below which the kernel stops maintaining presorted arenas and
/// instead sorts the node's members on demand, per examined feature, by the
/// same `(value, position)` key — producing the identical scan order.
///
/// Rationale: with `mtry ≈ sqrt(d)` over the paper's sparse 2580-dim
/// vectors, a node examines only a couple of non-constant features, but
/// partition maintenance touches *every* presorted arena (~d_active of
/// them). For small nodes the few on-demand sorts are far cheaper than
/// d_active stable filters; for large nodes the maintained arenas win
/// because the presort amortises across the wide top levels. A parent
/// therefore skips maintaining the arena ranges of any child smaller than
/// this cutoff (or that will be a leaf): such children — and, inductively,
/// all their descendants — never read them. For the same reason a tree
/// whose whole bootstrap sample is below the cutoff is never presorted.
const SMALL_NODE: usize = 512;

/// Order-preserving integer image of an `f64`:
/// `sort_key(a) < sort_key(b)` iff `a.total_cmp(&b) == Ordering::Less`.
#[inline]
fn sort_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// LSD radix sort of `sorted` (which must hold the ascending identity on
/// entry) by `(sort_key(vals[p]), p)`. Byte passes whose histogram puts
/// every element in one bucket are skipped — quantised telemetry columns
/// typically vary in only 2–3 of the 8 key bytes. Each executed pass is
/// stable and the input starts position-ascending, so the result is
/// exactly the `(total_cmp value, position)` order of a comparison sort.
fn radix_sort_positions(vals: &[f64], sorted: &mut Vec<u32>) {
    let n = vals.len();
    let mut hist = [[0u32; 256]; 8];
    for &v in vals {
        let k = sort_key(v);
        for (b, h) in hist.iter_mut().enumerate() {
            h[((k >> (8 * b)) & 0xFF) as usize] += 1;
        }
    }
    let mut tmp = vec![0u32; n];
    for (b, h) in hist.iter().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue; // all elements share this byte: stable no-op
        }
        let mut offs = [0u32; 256];
        let mut acc = 0u32;
        for (o, &c) in offs.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c;
        }
        for &p in sorted.iter() {
            let byte = ((sort_key(vals[p as usize]) >> (8 * b)) & 0xFF) as usize;
            tmp[offs[byte] as usize] = p;
            offs[byte] += 1;
        }
        std::mem::swap(sorted, &mut tmp);
    }
}

struct KernelBuilder {
    params: TreeParams,
    mtry: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    /// Target per bootstrap position (`y[p] = target(rows[p])`).
    y: Vec<f64>,
    /// Node membership arena: bootstrap positions, always ascending within
    /// a node's `[lo, hi)` range (stable filtering preserves this).
    members: Vec<u32>,
    /// Gathered values and presorted arenas for every non-constant feature;
    /// a node owns the same `[lo, hi)` range in each arena.
    feats: Vec<FeatureColumn>,
    /// Map feature id -> index in `feats` (`u32::MAX` = constant, skipped).
    active: Vec<u32>,
    /// Per-position side flag of the current split (true = left child).
    side: Vec<bool>,
    scratch: Vec<u32>,
    /// Identity permutation of feature ids, lent to [`CandidateStream`]
    /// each node and restored on its drop.
    cand_order: Vec<u32>,
}

impl KernelBuilder {
    fn new(store: &ColumnStore, rows: &[usize], params: TreeParams) -> Self {
        let n = rows.len();
        assert!(
            n <= u32::MAX as usize,
            "training set exceeds u32 position space"
        );
        let dim = store.dim();
        let y: Vec<f64> = rows.iter().map(|&r| store.target(r)).collect();
        let members: Vec<u32> = (0..n as u32).collect();
        let active_features: Vec<usize> = (0..dim).filter(|&f| !store.is_constant(f)).collect();
        // Presort once per tree, and only when the root reaches the cutoff:
        // arenas are read by nodes of at least `SMALL_NODE` rows, so below
        // it the root and every descendant sort on demand and a presort
        // would be thrown away unread (IRFR's 120–240-row refreshes).
        let presort = n >= SMALL_NODE;
        let feats: Vec<FeatureColumn> = active_features
            .into_iter()
            .map(|f| {
                let col = store.column(f);
                let vals: Vec<f64> = rows.iter().map(|&r| col[r]).collect();
                let mut sorted = Vec::new();
                if presort {
                    sorted.extend(0..n as u32);
                    radix_sort_positions(&vals, &mut sorted);
                }
                FeatureColumn {
                    feature: f,
                    vals,
                    sorted,
                }
            })
            .collect();
        let mut active = vec![u32::MAX; dim];
        for (i, fc) in feats.iter().enumerate() {
            active[fc.feature] = i as u32;
        }
        Self {
            params,
            mtry: effective_mtry(params, dim),
            nodes: Vec::new(),
            importances: vec![0.0; dim],
            y,
            members,
            feats,
            active,
            side: vec![false; n],
            scratch: Vec::with_capacity(n),
            cand_order: (0..dim as u32).collect(),
        }
    }

    /// Node moments, accumulated over members in ascending bootstrap
    /// position — the canonical order both implementations share.
    fn moments(&self, lo: usize, hi: usize) -> Moments {
        let mut m = Moments::default();
        for &p in &self.members[lo..hi] {
            m.push(self.y[p as usize]);
        }
        m
    }

    /// `parent` must equal `self.moments(lo, hi)` — the root passes the
    /// freshly computed moments, children receive theirs from `partition`,
    /// which accumulates them in the same canonical order.
    fn build(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut SimRng,
        parent: Moments,
    ) -> usize {
        let make_leaf = hi - lo < 2 * self.params.min_samples_leaf
            || depth >= self.params.max_depth
            || parent.sse() <= 1e-12;
        if !make_leaf {
            if let Some((feature, threshold, gain)) = self.best_split(lo, hi, &parent, rng) {
                self.importances[feature] += gain;
                let (nl, lm, rm) = self.partition(lo, hi, feature, threshold, depth);
                let node_idx = self.nodes.len();
                // Placeholder; children filled in below.
                self.nodes.push(Node::Leaf { value: 0.0 });
                let left = self.build(lo, lo + nl, depth + 1, rng, lm);
                let right = self.build(lo + nl, hi, depth + 1, rng, rm);
                self.nodes[node_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return node_idx;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: parent.mean(),
        });
        idx
    }

    /// Best (feature, threshold, gain) over the candidate subset, or `None`
    /// when no split satisfies the leaf-size constraint.
    ///
    /// Examines the first `mtry` shuffled features, then (matching
    /// scikit-learn's semantics, and the reference exactly) keeps examining
    /// one feature at a time until at least one valid split has been found.
    /// Like the reference's running-best loop, the winner is the first
    /// candidate, in feature-examination order then boundary order,
    /// attaining the maximal gain.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent: &Moments,
        rng: &mut SimRng,
    ) -> Option<(usize, f64, f64)> {
        let rng_local = rng.split((hi - lo) as u64);
        let mut order = std::mem::take(&mut self.cand_order);
        let this = &*self;
        let mut stream = CandidateStream::new(&mut order, rng_local);

        let scan = |feature: usize| this.scan_feature(feature, lo, hi, parent);
        let mut best: Option<(usize, f64, f64)> = None;
        for _ in 0..this.mtry {
            let Some(f) = stream.next() else { break };
            if let Some(cand) = scan(f) {
                if cand.2 > best.map(|(_, _, g)| g).unwrap_or(1e-12) {
                    best = Some(cand);
                }
            }
        }
        // Extension phase: the reference stops at the first feature (beyond
        // the first `mtry`) that yields any valid split; replicate by
        // scanning one at a time.
        while best.is_none() {
            match stream.next() {
                Some(f) => best = scan(f),
                None => break,
            }
        }
        drop(stream); // undoes its swaps: `order` is the identity again
        self.cand_order = order;
        best
    }

    /// Evaluate one candidate feature at a node: resolve the node's scan
    /// order — the maintained arena range for large nodes, an on-demand
    /// sort of the members by the identical `(value, position)` key for
    /// nodes below [`SMALL_NODE`] — then run the prefix-moment sweep.
    fn scan_feature(
        &self,
        feature: usize,
        lo: usize,
        hi: usize,
        parent: &Moments,
    ) -> Option<(usize, f64, f64)> {
        let a = self.active[feature];
        if a == u32::MAX {
            return None; // globally constant: cannot split
        }
        let fc = &self.feats[a as usize];
        let best = if hi - lo >= SMALL_NODE {
            self.sweep(fc, &fc.sorted[lo..hi], parent)
        } else {
            let mut idx: Vec<u32> = self.members[lo..hi].to_vec();
            idx.sort_unstable_by(|&a, &b| {
                fc.vals[a as usize]
                    .total_cmp(&fc.vals[b as usize])
                    .then(a.cmp(&b))
            });
            self.sweep(fc, &idx, parent)
        };
        best.map(|(t, g)| (feature, t, g))
    }

    /// Single prefix-moment sweep over one feature's node range in
    /// canonical `(value, position)` order.
    fn sweep(&self, fc: &FeatureColumn, arr: &[u32], parent: &Moments) -> Option<(f64, f64)> {
        let min_leaf = self.params.min_samples_leaf as f64;
        let parent_sse = parent.sse();
        let mut left = Moments::default();
        let mut right = *parent;
        let mut best: Option<(f64, f64)> = None;
        for w in arr.windows(2) {
            let p = w[0];
            let v = fc.vals[p as usize];
            let y = self.y[p as usize];
            left.push(y);
            right.pop(y);
            let v_next = fc.vals[w[1] as usize];
            if v == v_next {
                continue; // cannot split between equal values
            }
            if left.n < min_leaf || right.n < min_leaf {
                continue;
            }
            let gain = parent_sse - left.sse() - right.sse();
            if gain > best.map(|(_, g)| g).unwrap_or(1e-12) {
                best = Some(((v + v_next) / 2.0, gain));
            }
        }
        best
    }

    /// Partition the node's arenas by `feature <= threshold`, preserving
    /// sorted order in every feature arena (stable filtering) and ascending
    /// position order in the member arena. Returns the left-child size and
    /// both children's moments (accumulated in the canonical order, so the
    /// recursion can reuse them instead of re-reducing each child).
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
        depth: usize,
    ) -> (usize, Moments, Moments) {
        let a = self.active[feature] as usize;
        // Flag sides off the winning feature's gathered values — the exact
        // bits the reference's `row(r)[feature] <= threshold` test reads.
        // Iterate the members, not the feature's arena: arena ranges of
        // sub-cutoff subtrees are dead (unmaintained), members never are.
        let mut nl = 0usize;
        {
            let fc = &self.feats[a];
            for &p in &self.members[lo..hi] {
                let left = fc.vals[p as usize] <= threshold;
                self.side[p as usize] = left;
                nl += usize::from(left);
            }
        }
        // Child moments, accumulated exactly as each child's own
        // `moments()` will (ascending bootstrap position), decide leaf-ness
        // ahead of the recursion: a leaf child never reads its arena
        // ranges, so when BOTH children bottom out (the widest tree level,
        // by construction) the dominant arena maintenance is skipped.
        let mut lm = Moments::default();
        let mut rm = Moments::default();
        for &p in &self.members[lo..hi] {
            if self.side[p as usize] {
                lm.push(self.y[p as usize]);
            } else {
                rm.push(self.y[p as usize]);
            }
        }
        let min2 = 2 * self.params.min_samples_leaf;
        let left_leaf = nl < min2 || depth + 1 >= self.params.max_depth || lm.sse() <= 1e-12;
        let right_leaf =
            hi - lo - nl < min2 || depth + 1 >= self.params.max_depth || rm.sse() <= 1e-12;
        let side = &self.side;
        // Members: stable filter keeps both children in ascending position
        // order, so child moment accumulation stays canonical. Always done
        // — both the on-demand sorts and the moments read the members.
        let mut scratch = std::mem::take(&mut self.scratch);
        stable_partition(&mut self.members[lo..hi], &mut scratch, |&p| {
            side[p as usize]
        });
        // Feature arenas: stable filtering preserves (value, position)
        // order within each child — this is what replaces per-node sorting.
        // A child's side is materialised only if it will read it: non-leaf
        // and at least [`SMALL_NODE`] rows (below that the child — and,
        // since sizes only shrink, all its descendants — switches to
        // on-demand sorting and its arena range is dead).
        let keep_left = !left_leaf && nl >= SMALL_NODE;
        let keep_right = !right_leaf && hi - lo - nl >= SMALL_NODE;
        if keep_left || keep_right {
            for fc in &mut self.feats {
                stable_partition_sides(
                    &mut fc.sorted[lo..hi],
                    &mut scratch,
                    |&p| side[p as usize],
                    keep_left,
                    keep_right,
                );
            }
        }
        self.scratch = scratch;
        (nl, lm, rm)
    }
}

/// In-place stable partition: elements satisfying `is_left` keep their
/// relative order at the front, the rest keep theirs at the back. Returns
/// the left count.
///
/// The loop is branchless: every element is unconditionally stored both at
/// the left write cursor and the scratch cursor, and only the matching
/// cursor advances. Writing a right-side element at `slice[w]` is safe —
/// `w <= r` always, positions below `w` hold finalised lefts, and position
/// `w` itself is either overwritten by the next left or by the final
/// right-side copy. Side flags are data-dependent (~50/50), so dodging the
/// per-element branch misprediction roughly halves partition cost.
fn stable_partition<T: Copy + Default>(
    slice: &mut [T],
    scratch: &mut Vec<T>,
    is_left: impl Fn(&T) -> bool,
) -> usize {
    let len = slice.len();
    if scratch.len() < len {
        scratch.resize(len, T::default());
    }
    let mut w = 0;
    let mut k = 0;
    for r in 0..len {
        let item = slice[r];
        let l = is_left(&item);
        slice[w] = item;
        scratch[k] = item;
        w += l as usize;
        k += !l as usize;
    }
    slice[w..].copy_from_slice(&scratch[..k]);
    w
}

/// [`stable_partition`] with per-side materialisation: when a side's arena
/// range will never be read again (leaf child, or a child below the
/// on-demand-sort cutoff), skip producing it and leave that range as
/// garbage. `keep_left || keep_right` must hold.
fn stable_partition_sides<T: Copy + Default>(
    slice: &mut [T],
    scratch: &mut Vec<T>,
    is_left: impl Fn(&T) -> bool,
    keep_left: bool,
    keep_right: bool,
) {
    let len = slice.len();
    if keep_left && keep_right {
        stable_partition(slice, scratch, is_left);
    } else if keep_left {
        let mut w = 0;
        for r in 0..len {
            let item = slice[r];
            slice[w] = item;
            w += is_left(&item) as usize;
        }
    } else {
        if scratch.len() < len {
            scratch.resize(len, T::default());
        }
        let mut k = 0;
        for item in slice.iter() {
            scratch[k] = *item;
            k += !is_left(item) as usize;
        }
        slice[len - k..].copy_from_slice(&scratch[..k]);
    }
}

impl RegressionTree {
    /// Fit a tree on the given rows of `data` (duplicates allowed — this is
    /// how bagging passes bootstrap samples).
    ///
    /// Builds a [`ColumnStore`] internally; forest training amortises the
    /// transpose across trees via [`fit_rows_with`](Self::fit_rows_with).
    pub fn fit_rows(data: &Dataset, rows: &[usize], params: TreeParams, rng: &mut SimRng) -> Self {
        let store = data.column_store();
        Self::fit_rows_with(&store, rows, params, rng)
    }

    /// Fit a tree against a prebuilt column store, on the calling thread.
    pub fn fit_rows_with(
        store: &ColumnStore,
        rows: &[usize],
        params: TreeParams,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        let mut builder = KernelBuilder::new(store, rows, params);
        let root_moments = builder.moments(0, rows.len());
        builder.build(0, rows.len(), 0, rng, root_moments);
        RegressionTree {
            nodes: builder.nodes,
            importances: builder.importances,
        }
    }

    /// Fit on all rows of a dataset.
    pub fn fit(data: &Dataset, params: TreeParams, rng: &mut SimRng) -> Self {
        let rows: Vec<usize> = (0..data.len()).collect();
        Self::fit_rows(data, &rows, params, rng)
    }

    /// Predict one row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        // The root is always the first node pushed by the top-level build.
        let mut idx = self.root();
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn root(&self) -> usize {
        0
    }

    /// Raw (unnormalised) impurity importances by feature.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = step function of x0.
    fn step_data() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            let x0 = i as f64 / 100.0;
            let y = if x0 < 0.5 { 1.0 } else { 5.0 };
            d.push(&[x0, 0.0], y);
        }
        d
    }

    #[test]
    fn learns_step_function() {
        let d = step_data();
        let mut rng = SimRng::new(1);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                mtry: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!((t.predict(&[0.2, 0.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.8, 0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn importance_on_informative_feature() {
        let d = step_data();
        let mut rng = SimRng::new(2);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                mtry: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(t.importances()[0] > 0.0);
        assert_eq!(t.importances()[1], 0.0, "constant feature can't split");
    }

    #[test]
    fn constant_target_single_leaf() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], 3.0);
        }
        let mut rng = SimRng::new(3);
        let t = RegressionTree::fit(&d, TreeParams::default(), &mut rng);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[100.0]), 3.0);
    }

    #[test]
    fn respects_max_depth() {
        let mut d = Dataset::new(1);
        for i in 0..64 {
            d.push(&[i as f64], i as f64);
        }
        let mut rng = SimRng::new(4);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                max_depth: 2,
                min_samples_leaf: 1,
                mtry: 1,
            },
            &mut rng,
        );
        // Depth 2 => at most 7 nodes (3 splits + 4 leaves).
        assert!(t.num_nodes() <= 7, "{} nodes", t.num_nodes());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f64], i as f64);
        }
        let mut rng = SimRng::new(5);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                max_depth: 20,
                min_samples_leaf: 5,
                mtry: 1,
            },
            &mut rng,
        );
        // Only one split possible (5|5).
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn fit_rows_with_duplicates() {
        let d = step_data();
        let rows: Vec<usize> = (0..d.len()).map(|i| i % 10).collect(); // duplicates
        let mut rng = SimRng::new(6);
        let t = RegressionTree::fit_rows(&d, &rows, TreeParams::default(), &mut rng);
        // All sampled rows have x0 < 0.1 => constant target 1.
        assert_eq!(t.predict(&[0.05, 0.0]), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = step_data();
        let fit = |seed| {
            let mut rng = SimRng::new(seed);
            let t = RegressionTree::fit(&d, TreeParams::default(), &mut rng);
            (0..20)
                .map(|i| t.predict(&[i as f64 / 20.0, 0.0]))
                .collect::<Vec<_>>()
        };
        assert_eq!(fit(7), fit(7));
    }

    #[test]
    fn radix_presort_matches_comparison_sort() {
        let mut rng = SimRng::new(13);
        for case in 0..4 {
            let mut vals: Vec<f64> = (0..500)
                .map(|i| match case {
                    0 => rng.f64(),                        // continuous
                    1 => (rng.f64() * 16.0).floor() / 4.0, // quantised, heavy ties
                    2 => {
                        // adversarial bit patterns
                        match i % 6 {
                            0 => f64::NAN,
                            1 => -f64::NAN,
                            2 => 0.0,
                            3 => -0.0,
                            4 => f64::INFINITY,
                            _ => -rng.f64() * 1e300,
                        }
                    }
                    _ => {
                        if rng.chance(0.5) {
                            1.0
                        } else {
                            0.0
                        }
                    } // binary
                })
                .collect();
            if case == 2 {
                // distinct NaN payloads must order by bits, as total_cmp does
                vals[0] = f64::from_bits(0x7FF8_0000_0000_0001);
                vals[6] = f64::from_bits(0x7FF8_0000_0000_0002);
            }
            let mut expect: Vec<u32> = (0..vals.len() as u32).collect();
            expect.sort_by(|&a, &b| {
                vals[a as usize]
                    .total_cmp(&vals[b as usize])
                    .then(a.cmp(&b))
            });
            let mut got: Vec<u32> = (0..vals.len() as u32).collect();
            radix_sort_positions(&vals, &mut got);
            assert_eq!(got, expect, "case {case}");
        }
    }

    /// Quantised informative columns (value ties), one scattered
    /// non-constant column per row, constant zero padding elsewhere.
    fn cutoff_corpus(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(dim);
        for _ in 0..n {
            let mut x = vec![0.0; dim];
            for slot in x.iter_mut().take(6) {
                *slot = (rng.f64() * 16.0).floor() / 4.0;
            }
            x[8 + rng.index(dim - 8)] = rng.f64();
            let y = 3.0 * x[0] - 2.0 * x[1] + x[0] * x[2] + rng.f64() * 0.25;
            d.push(&x, y);
        }
        d
    }

    #[test]
    fn kernel_matches_reference_at_the_presort_cutoff() {
        let data = cutoff_corpus(2 * SMALL_NODE, 24, 0x51);
        let store = data.column_store();
        let configs = [
            TreeParams::default(),
            TreeParams {
                max_depth: 4,
                min_samples_leaf: 1,
                mtry: 0,
            },
            TreeParams {
                max_depth: 20,
                min_samples_leaf: 5,
                mtry: 3,
            },
            TreeParams {
                max_depth: 10,
                min_samples_leaf: 2,
                mtry: usize::MAX,
            },
        ];
        for n in [SMALL_NODE - 1, SMALL_NODE, SMALL_NODE + 1] {
            for seed in [1u64, 8, 89] {
                let rows = data.bootstrap(n, &mut SimRng::new(seed));
                for params in configs {
                    let mut rng_ref = SimRng::new(seed ^ 0xC0FFEE);
                    let reference = crate::reference::fit_rows(&data, &rows, params, &mut rng_ref);
                    let mut rng_ker = SimRng::new(seed ^ 0xC0FFEE);
                    let kernel = RegressionTree::fit_rows_with(&store, &rows, params, &mut rng_ker);
                    assert_eq!(reference, kernel, "n {n}, seed {seed}, params {params:?}");
                    assert_eq!(
                        rng_ref.next_u64(),
                        rng_ker.next_u64(),
                        "RNG streams diverged: n {n}, seed {seed}, params {params:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn presort_runs_only_at_the_cutoff() {
        let data = cutoff_corpus(2 * SMALL_NODE, 24, 0x52);
        let store = data.column_store();
        let below = data.bootstrap(SMALL_NODE - 1, &mut SimRng::new(3));
        let kb = KernelBuilder::new(&store, &below, TreeParams::default());
        assert_eq!(kb.feats.len(), store.non_constant_features());
        assert!(kb.feats.iter().all(|fc| fc.sorted.is_empty()));

        let at = data.bootstrap(SMALL_NODE, &mut SimRng::new(4));
        let kb = KernelBuilder::new(&store, &at, TreeParams::default());
        assert_eq!(kb.feats.len(), store.non_constant_features());
        let identity: Vec<u32> = (0..SMALL_NODE as u32).collect();
        for fc in &kb.feats {
            let mut perm = fc.sorted.clone();
            perm.sort_unstable();
            assert_eq!(perm, identity, "feature {}", fc.feature);
        }
    }

    #[test]
    fn stable_partition_branchless_matches_filter() {
        let mut rng = SimRng::new(17);
        for _ in 0..50 {
            let xs: Vec<u32> = (0..rng.index(40) as u32)
                .map(|_| rng.index(100) as u32)
                .collect();
            let lefts: Vec<u32> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
            let rights: Vec<u32> = xs.iter().copied().filter(|x| x % 3 != 0).collect();
            let mut slice = xs.clone();
            let mut scratch = Vec::new();
            let w = stable_partition(&mut slice, &mut scratch, |x| x % 3 == 0);
            assert_eq!(w, lefts.len());
            assert_eq!(&slice[..w], &lefts[..]);
            assert_eq!(&slice[w..], &rights[..]);
            // One-sided variants materialise their side identically.
            let mut l_only = xs.clone();
            stable_partition_sides(&mut l_only, &mut scratch, |x| x % 3 == 0, true, false);
            assert_eq!(&l_only[..w], &lefts[..]);
            let mut r_only = xs.clone();
            stable_partition_sides(&mut r_only, &mut scratch, |x| x % 3 == 0, false, true);
            assert_eq!(&r_only[w..], &rights[..]);
        }
    }

    #[test]
    fn candidate_stream_matches_eager_order_and_restores_identity() {
        for seed in [1u64, 7, 42, 9001] {
            let mut rng_eager = SimRng::new(seed);
            let mut seen = Vec::new();
            let eager = candidate_features(53, &mut rng_eager, &mut seen);
            let mut order: Vec<u32> = (0..53).collect();
            let mut stream = CandidateStream::new(&mut order, SimRng::new(seed));
            for (k, &f) in eager.iter().enumerate().take(11) {
                assert_eq!(stream.next(), Some(f), "seed {seed}, k {k}");
            }
            drop(stream);
            assert_eq!(order, (0..53).collect::<Vec<u32>>(), "seed {seed}");
        }
    }

    #[test]
    fn candidate_features_is_a_deduped_permutation() {
        let mut rng = SimRng::new(11);
        let mut seen = Vec::new();
        let feats = candidate_features(37, &mut rng, &mut seen);
        assert_eq!(feats.len(), 37);
        let mut sorted = feats.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn nonlinear_fit_quality() {
        // y = x^2 on [0,1]; a deep tree should approximate well.
        let mut d = Dataset::new(1);
        for i in 0..200 {
            let x = i as f64 / 200.0;
            d.push(&[x], x * x);
        }
        let mut rng = SimRng::new(8);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                max_depth: 10,
                min_samples_leaf: 2,
                mtry: 1,
            },
            &mut rng,
        );
        let mut max_err = 0.0f64;
        for i in 0..50 {
            let x = i as f64 / 50.0 + 0.01;
            max_err = max_err.max((t.predict(&[x]) - x * x).abs());
        }
        assert!(max_err < 0.05, "max_err {max_err}");
    }
}
