//! The *channel tree*: a complete binary tree whose nodes are identified
//! with channels.
//!
//! Both of the paper's symmetry-breaking searches run over such a tree:
//!
//! * `TwoActive` (§4) uses a tree `T_C` with `C` leaves labelled `[C]` and,
//!   when checking level `m`, assigns a node with leaf id `id` to the channel
//!   `⌈id / 2^{lg C − m}⌉` — the 1-based *position within level `m`* of the
//!   leaf's level-`m` ancestor.
//! * `LeafElection` (§5.3) uses a tree with `C/2` leaves and assigns every
//!   tree node its own channel; we use the standard heap numbering
//!   (root = 1, children of `v` = `2v`, `2v+1`), which conveniently makes
//!   the root's channel the primary channel — exactly what the paper needs,
//!   since a lone broadcast on the root channel both detects the final
//!   cohort and solves the problem.
//!
//! Tree nodes are represented by their heap index ([`TreeNode`]); all level
//! and ancestor arithmetic is bit twiddling on that index.

use mac_sim::ChannelId;

/// A node of a [`ChannelTree`], identified by its heap index (root = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeNode(u32);

impl TreeNode {
    /// The root of every channel tree.
    pub const ROOT: TreeNode = TreeNode(1);

    /// Creates a tree node from its heap index.
    ///
    /// # Panics
    ///
    /// Panics if `heap_index` is zero (heap numbering starts at 1).
    #[must_use]
    pub fn from_heap_index(heap_index: u32) -> Self {
        assert!(heap_index >= 1, "heap indices start at 1");
        TreeNode(heap_index)
    }

    /// This node's heap index.
    #[must_use]
    pub fn heap_index(self) -> u32 {
        self.0
    }

    /// The node's level (depth): the root is at level 0.
    #[must_use]
    pub fn level(self) -> u32 {
        31 - self.0.leading_zeros()
    }

    /// The node's parent.
    ///
    /// # Panics
    ///
    /// Panics if called on the root.
    #[must_use]
    pub fn parent(self) -> TreeNode {
        assert!(self.0 > 1, "the root has no parent");
        TreeNode(self.0 >> 1)
    }

    /// The node's left child.
    #[must_use]
    pub fn left_child(self) -> TreeNode {
        TreeNode(self.0 << 1)
    }

    /// The node's right child.
    #[must_use]
    pub fn right_child(self) -> TreeNode {
        TreeNode((self.0 << 1) | 1)
    }

    /// Whether this node is the left child of its parent. The root is
    /// neither child; this returns `false` for it.
    #[must_use]
    pub fn is_left_child(self) -> bool {
        self.0 > 1 && self.0 & 1 == 0
    }

    /// Whether this node is the right child of its parent.
    #[must_use]
    pub fn is_right_child(self) -> bool {
        self.0 > 1 && self.0 & 1 == 1
    }

    /// The ancestor of this node at level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds this node's own level.
    #[must_use]
    pub fn ancestor_at_level(self, level: u32) -> TreeNode {
        let own = self.level();
        assert!(
            level <= own,
            "node at level {own} has no ancestor at deeper level {level}"
        );
        TreeNode(self.0 >> (own - level))
    }

    /// The 1-based position of this node among the nodes of its level,
    /// left to right. This is the channel assignment `⌈id / 2^{lg C − m}⌉`
    /// used by `TwoActive`'s `SplitCheck`.
    #[must_use]
    pub fn position_in_level(self) -> u32 {
        self.0 - (1 << self.level()) + 1
    }

    /// The channel dedicated to this tree node under heap numbering.
    #[must_use]
    pub fn channel(self) -> ChannelId {
        ChannelId::new(self.0)
    }
}

/// The channel dedicated to *level* `level` as a whole (its "row channel"
/// in the paper's terminology): the channel of the leftmost node at that
/// level. `CheckLevel` uses it to globalize per-ancestor collision
/// observations.
#[must_use]
pub fn row_channel(level: u32) -> ChannelId {
    ChannelId::new(1 << level)
}

/// The channels a protocol actually uses out of `channels`: `C'`, the
/// largest power of two `≤ channels` (the paper assumes `C` is a power of
/// two; every protocol and budget rounds down to it).
///
/// # Panics
///
/// Panics if `channels == 0`.
#[must_use]
pub fn effective_channels(channels: u32) -> u32 {
    assert!(channels >= 1, "need at least one channel");
    1 << channels.ilog2()
}

/// A complete binary tree over a power-of-two number of leaves, with leaves
/// labelled `1..=leaves`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTree {
    leaves: u32,
    height: u32,
}

impl ChannelTree {
    /// Creates the canonical tree with `leaves` leaves.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two (the paper assumes `C` is a
    /// power of two; callers round down).
    #[must_use]
    pub fn new(leaves: u32) -> Self {
        assert!(
            leaves.is_power_of_two(),
            "leaf count must be a power of two, got {leaves}"
        );
        ChannelTree {
            leaves,
            height: leaves.trailing_zeros(),
        }
    }

    /// The tree `LeafElection` (§5.3) runs on with `channels` channels:
    /// `C'/2` leaves (at least one) of height `lg(C'/2)`, `C'` being
    /// [`effective_channels`]. Its `C'−1` nodes fit on the `C'` channels,
    /// and `IdReduction` renames into its leaves.
    #[must_use]
    pub fn for_election(channels: u32) -> Self {
        ChannelTree::new((effective_channels(channels) / 2).max(1))
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaves(&self) -> u32 {
        self.leaves
    }

    /// Tree height `h = lg(leaves)`: the level at which the leaves sit.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of tree nodes (`2·leaves − 1`), which is also the number
    /// of distinct channels the tree occupies under heap numbering.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        2 * self.leaves - 1
    }

    /// The leaf labelled `id` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=leaves`.
    #[must_use]
    pub fn leaf(&self, id: u32) -> TreeNode {
        assert!(
            (1..=self.leaves).contains(&id),
            "leaf id {id} out of range 1..={}",
            self.leaves
        );
        TreeNode(self.leaves + id - 1)
    }

    /// The root node.
    #[must_use]
    pub fn root(&self) -> TreeNode {
        TreeNode::ROOT
    }

    /// The level (counted from the root) at which the paths from the root to
    /// leaves `a` and `b` first diverge: the smallest `m` with distinct
    /// level-`m` ancestors. Returns `None` when `a == b` (the paths never
    /// diverge).
    ///
    /// This is the quantity `SplitCheck`/`SplitSearch` compute with channel
    /// probes; the closed form is used as the test oracle.
    #[must_use]
    pub fn divergence_level(&self, a: u32, b: u32) -> Option<u32> {
        if a == b {
            return None;
        }
        let la = self.leaf(a).heap_index();
        let lb = self.leaf(b).heap_index();
        // The paths share ancestors down to (and including) the LCA, whose
        // level is height - (bits below the common prefix).
        let diff_bits = 32 - (la ^ lb).leading_zeros();
        Some(self.height - diff_bits + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_children() {
        let root = TreeNode::ROOT;
        assert_eq!(root.level(), 0);
        assert_eq!(root.left_child().heap_index(), 2);
        assert_eq!(root.right_child().heap_index(), 3);
        assert_eq!(root.left_child().level(), 1);
        assert!(root.left_child().is_left_child());
        assert!(root.right_child().is_right_child());
        assert!(!root.is_left_child());
        assert!(!root.is_right_child());
        assert_eq!(root.left_child().parent(), root);
        assert_eq!(root.right_child().parent(), root);
    }

    #[test]
    #[should_panic(expected = "no parent")]
    fn root_has_no_parent() {
        let _ = TreeNode::ROOT.parent();
    }

    #[test]
    fn ancestors_walk_toward_root() {
        let tree = ChannelTree::new(16);
        let leaf = tree.leaf(11); // heap index 16 + 10 = 26 = 0b11010
        assert_eq!(leaf.level(), 4);
        assert_eq!(leaf.ancestor_at_level(4), leaf);
        assert_eq!(leaf.ancestor_at_level(3).heap_index(), 13);
        assert_eq!(leaf.ancestor_at_level(2).heap_index(), 6);
        assert_eq!(leaf.ancestor_at_level(1).heap_index(), 3);
        assert_eq!(leaf.ancestor_at_level(0), TreeNode::ROOT);
    }

    #[test]
    #[should_panic(expected = "no ancestor")]
    fn ancestor_below_own_level_panics() {
        let tree = ChannelTree::new(4);
        let _ = tree.root().ancestor_at_level(1);
    }

    #[test]
    fn position_in_level_matches_paper_formula() {
        // The paper assigns leaf `id` at level m the channel ceil(id / 2^(h-m)).
        let tree = ChannelTree::new(64);
        let h = tree.height();
        for id in 1..=64u32 {
            for m in 0..=h {
                let expected = id.div_ceil(1 << (h - m));
                let got = tree.leaf(id).ancestor_at_level(m).position_in_level();
                assert_eq!(got, expected, "id={id} m={m}");
            }
        }
    }

    #[test]
    fn leaf_labels_map_to_contiguous_heap_indices() {
        let tree = ChannelTree::new(8);
        let idxs: Vec<u32> = (1..=8).map(|id| tree.leaf(id).heap_index()).collect();
        assert_eq!(idxs, vec![8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(tree.node_count(), 15);
        assert_eq!(tree.height(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaf_out_of_range_panics() {
        let tree = ChannelTree::new(8);
        let _ = tree.leaf(9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_leaves_panics() {
        let _ = ChannelTree::new(12);
    }

    #[test]
    fn root_channel_is_primary() {
        assert!(TreeNode::ROOT.channel().is_primary());
        let tree = ChannelTree::new(32);
        assert!(tree.root().channel().is_primary());
    }

    #[test]
    fn row_channels_are_leftmost_nodes() {
        assert_eq!(row_channel(0), ChannelId::new(1));
        assert_eq!(row_channel(1), ChannelId::new(2));
        assert_eq!(row_channel(4), ChannelId::new(16));
    }

    #[test]
    fn divergence_level_brute_force() {
        let tree = ChannelTree::new(16);
        for a in 1..=16u32 {
            for b in 1..=16u32 {
                let want = if a == b {
                    None
                } else {
                    // Brute force: first level with distinct ancestors.
                    (0..=tree.height()).find(|&m| {
                        tree.leaf(a).ancestor_at_level(m) != tree.leaf(b).ancestor_at_level(m)
                    })
                };
                assert_eq!(tree.divergence_level(a, b), want, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn divergence_is_symmetric_and_at_least_one() {
        let tree = ChannelTree::new(64);
        for (a, b) in [(1u32, 2u32), (1, 64), (17, 48), (33, 34)] {
            let d = tree.divergence_level(a, b).unwrap();
            assert_eq!(tree.divergence_level(b, a).unwrap(), d);
            assert!(d >= 1, "paths share the root, so divergence is >= 1");
            assert!(d <= tree.height());
        }
    }

    #[test]
    fn single_leaf_tree_is_degenerate_but_valid() {
        let tree = ChannelTree::new(1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.leaf(1), tree.root());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn effective_channels_rounds_down_to_a_power_of_two() {
        for (c, want) in [
            (1u32, 1u32),
            (3, 2),
            (64, 64),
            (100, 64),
            (u32::MAX, 1 << 31),
        ] {
            assert_eq!(effective_channels(c), want, "C={c}");
        }
        for (c, leaves, height) in [(2u32, 1u32, 0u32), (3, 1, 0), (4, 2, 1), (100, 32, 5)] {
            let tree = ChannelTree::for_election(c);
            assert_eq!((tree.leaves(), tree.height()), (leaves, height), "C={c}");
        }
    }

    #[test]
    fn channel_equals_heap_index() {
        let tree = ChannelTree::new(8);
        for id in 1..=8 {
            let node = tree.leaf(id);
            assert_eq!(node.channel().get(), node.heap_index());
        }
    }
}
