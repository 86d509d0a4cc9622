//! NSIT — *Node System Information Table*: one row per system node.
//!
//! Row `r` is the (possibly stale) copy of node `r`'s knowledge: a version
//! counter `ts` and an [`Mnl`] of outstanding requests node `r` has
//! registered. Only node `r` itself ever advances row `r`'s version (at
//! request initialization, at RM reception and at CS release); every other
//! copy in the system is a snapshot that propagates through messages and is
//! reconciled by the Exchange procedure (fresher version wins wholesale,
//! equal versions intersect — see README § Paper ambiguities,
//! interpretations and repairs, #3).
//!
//! # Copy-on-write storage
//!
//! The row vector sits behind an `Arc`: cloning a table — every message
//! snapshot clones one — is a reference-count bump, and the first mutation
//! after a share re-materializes the vector as N row clones, each of which
//! is itself only a reference-count bump of the row's [`Mnl`] backing
//! (amortized O(N) pointer work per share, not O(total tuples) copies).
//! Equality gets an `Arc::ptr_eq` fast path; `Hash`/`Debug`/`PartialEq`
//! see only logical content, so fingerprints, model-checker state merging
//! and wire-size accounting are unaffected by sharing structure.
//!
//! # Change tracking for incremental normalization
//!
//! The table carries an exact *dirty* bitset — deliberately **outside** the
//! shared row vector, so bookkeeping writes never force a copy-on-write
//! materialization — letting the post-merge normalization pass
//! ([`crate::si::Si::normalize_after_merge`]) skip rows that provably need
//! no work instead of probing every node per message:
//!
//! * every row starts **dirty** (a freshly built or deserialized table gets
//!   a full first sweep, so arbitrary states behave exactly like the
//!   reference full-pass implementation);
//! * every mutation path marks the touched row's bit. Because only row `k`
//!   records node `k`'s home facts, the same bit answers both "did row `k`
//!   change?" and "did node `k`'s home facts change?" — the bitset is
//!   indexed by real node id, so the answer is **exact at any N**;
//! * the normalization pass scans a row iff it is dirty **or** its MNL's
//!   node mask intersects the folded dirty summary (it may reference a node
//!   whose home row changed), then clears the whole set.
//!
//! Soundness: a clean row is one a previous normalization pass verified
//! (or inductively established) to yield zero removals. Its contents are
//! unchanged since; entries appended to the NONL later were deleted from
//! every row at append time (Order's removal sweep, the Exchange adoption
//! scrub, `delete_everywhere` — all exact), so the row still holds no NONL
//! member; and the completion-evidence decision for each of its tuples
//! depends only on the referenced node's home row, whose every change sets
//! that node's dirty bit. The folded row-level filter can only cause extra
//! scans, never a skipped removal; the per-tuple probe
//! ([`Nsit::home_is_dirty`]) is exact.
//!
//! The tracking is derived data: `Clone` carries it, but `PartialEq`,
//! `Hash` and `Debug` ignore it, so state fingerprints, model-checker
//! deduplication and debug output are identical to the untracked table.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rcv_simnet::NodeId;

use crate::mnl::Mnl;
use crate::tuple::ReqTuple;

/// The folded-summary bit of row index `i` (same folding as
/// [`crate::mnl::node_bit`], so it lines up with each MNL's node mask).
#[inline]
fn index_bit(i: usize) -> u64 {
    1u64 << (i & 63)
}

/// One NSIT row: the recorded state of a single node. Pure logical
/// content — all change tracking lives in the owning [`Nsit`], so shared
/// row vectors are never written for bookkeeping.
/// The layout is pinned so that the version counter and the list's derived
/// caches (length, node mask, front tuple, own tuple) — everything the row
/// merge, vote scan, and normalize skip-scan read on their O(N) sweeps —
/// sit together in the row's *first 64 bytes*; the bulky tuple storage
/// follows and is only touched for rows that need content work.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct NsitRow {
    /// Version counter ("TS" in the paper): how up to date this copy is.
    pub ts: u64,
    /// Outstanding requests registered by the row's owner, arrival order.
    pub mnl: Mnl,
}

/// The full table, indexed by node id.
#[derive(Clone, Eq)]
pub struct Nsit {
    rows: Arc<Vec<NsitRow>>,
    /// Exact per-row dirty bits (word `i >> 6`, bit `i & 63`): rows changed
    /// since the last normalization pass. Derived bookkeeping, excluded
    /// from equality; lives outside the `Arc` so marking never unshares.
    dirty: Vec<u64>,
    /// OR of [`index_bit`] over every dirty row — the row-level prefilter
    /// against each MNL's node mask (conservative above 64 nodes; the
    /// bitset stays exact).
    folded: u64,
}

impl PartialEq for Nsit {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows) || self.rows == other.rows
    }
}

impl Hash for Nsit {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rows.hash(state);
    }
}

impl fmt::Debug for Nsit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nsit").field("rows", &self.rows).finish()
    }
}

impl Nsit {
    /// A fresh table for an `n`-node system: all rows empty at version 0
    /// (and dirty, so the first normalization sweeps everything). Rows are
    /// owner-tagged so their [`Mnl`] owner-tuple caches are live.
    pub fn new(n: usize) -> Self {
        Nsit {
            rows: Arc::new(
                (0..n)
                    .map(|i| NsitRow {
                        ts: 0,
                        mnl: Mnl::for_owner(NodeId::new(i as u32)),
                    })
                    .collect(),
            ),
            dirty: vec![!0u64; n.div_ceil(64)],
            folded: !0,
        }
    }

    /// Marks row `i` changed since the last normalization pass.
    #[inline]
    fn mark(&mut self, i: usize) {
        self.dirty[i >> 6] |= 1u64 << (i & 63);
        self.folded |= index_bit(i);
    }

    /// Number of rows (= system size `N`).
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Immutable row access.
    pub fn row(&self, node: NodeId) -> &NsitRow {
        &self.rows[node.index()]
    }

    /// Mutable row access; conservatively marks the row changed. The first
    /// call after a share (snapshot) re-materializes the row vector.
    pub fn row_mut(&mut self, node: NodeId) -> &mut NsitRow {
        self.mark(node.index());
        &mut Arc::make_mut(&mut self.rows)[node.index()]
    }

    /// Iterates `(owner, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NsitRow)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (NodeId::new(i as u32), r))
    }

    /// Iterates rows mutably, in node order; conservatively marks every
    /// row changed (cold-path sweeps only — hot sweeps use
    /// `Nsit::for_each_row_mut` to mark precisely).
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut NsitRow> {
        self.dirty.fill(!0);
        self.folded = !0;
        Arc::make_mut(&mut self.rows).iter_mut()
    }

    /// Visits every row mutably in node order; `f` returns whether it
    /// changed the row, and only changed rows are marked for the next
    /// normalization pass.
    pub(crate) fn for_each_row_mut(&mut self, mut f: impl FnMut(NodeId, &mut NsitRow) -> bool) {
        let rows = Arc::make_mut(&mut self.rows);
        let mut changed: u64 = 0;
        for (i, row) in rows.iter_mut().enumerate() {
            if f(NodeId::new(i as u32), row) {
                self.dirty[i >> 6] |= 1u64 << (i & 63);
                changed |= index_bit(i);
            }
        }
        self.folded |= changed;
    }

    /// Whether the normalization pass may skip row `k`: clean rows whose
    /// members all live in unchanged home rows cannot yield removals.
    #[inline]
    pub(crate) fn needs_normalize(&self, k: NodeId) -> bool {
        self.row_is_dirty(k) || self.rows[k.index()].mnl.nodes_mask() & self.folded != 0
    }

    /// Whether node `j`'s home facts changed since the last normalization
    /// pass — **exact at any N** (bitset indexed by real node id). Within
    /// a pass, a *clean* row may skip any member tuple whose home is clean
    /// here: the tuple survived its last decision as a keep, and a clean
    /// home proves neither its home row nor its NONL status changed since
    /// (NONL appends scrub the tuple out of every row at append time, and
    /// re-imports mark the row dirty).
    #[inline]
    pub(crate) fn home_is_dirty(&self, j: NodeId) -> bool {
        let i = j.index();
        self.dirty[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Whether row `k` itself changed since the last normalization pass
    /// (as opposed to merely referencing a changed home row).
    #[inline]
    pub(crate) fn row_is_dirty(&self, k: NodeId) -> bool {
        self.home_is_dirty(k)
    }

    /// Resets the change tracking after a completed normalization pass.
    pub(crate) fn clear_dirty(&mut self) {
        if self.folded == 0 {
            return;
        }
        self.folded = 0;
        self.dirty.fill(0);
    }

    /// Largest version across all rows (MPM line 36 uses `max(...)+1`).
    pub fn max_ts(&self) -> u64 {
        self.rows.iter().map(|r| r.ts).max().unwrap_or(0)
    }

    /// Deletes the exact tuple from **every** row (Order line 15, Exchange
    /// completion purges). Returns the number of rows it was removed from.
    pub fn delete_everywhere(&mut self, t: &ReqTuple) -> usize {
        // Read-only prescan: the per-row exact `contains` probe (mask
        // filter + owner cache fast path) finds the rows to touch without
        // unsharing the vector; a miss everywhere — the common case for
        // completion purges — leaves a shared table shared.
        if !self.rows.iter().any(|r| r.mnl.contains(t)) {
            return 0;
        }
        let mut removed = 0usize;
        let rows = Arc::make_mut(&mut self.rows);
        let mut changed: u64 = 0;
        for (i, row) in rows.iter_mut().enumerate() {
            if row.mnl.may_contain_node(t.node) && row.mnl.remove(t) {
                self.dirty[i >> 6] |= 1u64 << (i & 63);
                changed |= index_bit(i);
                removed += 1;
            }
        }
        self.folded |= changed;
        removed
    }

    /// Number of rows with an empty MNL — the RCV "unknowns"
    /// (`N − Σ S_h` in Order line 13).
    pub fn empty_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.mnl.is_empty()).count()
    }

    /// Current votes: the top tuple of every non-empty row.
    pub fn votes(&self) -> impl Iterator<Item = ReqTuple> + '_ {
        self.rows.iter().filter_map(|r| r.mnl.top())
    }

    /// All distinct tuples present anywhere in the table.
    pub fn distinct_tuples(&self) -> Vec<ReqTuple> {
        let mut out: Vec<ReqTuple> = Vec::new();
        for r in self.rows.iter() {
            for t in r.mnl.iter() {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Whether the exact tuple appears in any row.
    pub fn contains_anywhere(&self, t: &ReqTuple) -> bool {
        self.rows.iter().any(|r| r.mnl.contains(t))
    }

    /// Whether this table shares its row vector with `other` (and is
    /// therefore content-equal without looking).
    pub fn same_backing(&self, other: &Nsit) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// Lemma 1 invariant across all rows.
    pub fn invariant_lemma1(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.mnl.invariant_one_per_node() && r.mnl.len() <= self.n())
    }

    /// Rough serialized size (for the wire-size metric). Computed from
    /// logical content via inline length caches — O(N), no per-row deref,
    /// and identical whatever the sharing structure.
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(|r| 12 + r.mnl.wire_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    fn table() -> Nsit {
        let mut s = Nsit::new(4);
        s.row_mut(NodeId::new(0)).mnl.push(t(0, 1));
        s.row_mut(NodeId::new(0)).mnl.push(t(1, 1));
        s.row_mut(NodeId::new(1)).mnl.push(t(1, 1));
        s.row_mut(NodeId::new(0)).ts = 2;
        s.row_mut(NodeId::new(1)).ts = 1;
        s
    }

    #[test]
    fn votes_are_row_tops() {
        let s = table();
        let v: Vec<_> = s.votes().collect();
        assert_eq!(v, vec![t(0, 1), t(1, 1)]);
    }

    #[test]
    fn empty_rows_counts_unknowns() {
        assert_eq!(table().empty_rows(), 2);
        assert_eq!(Nsit::new(3).empty_rows(), 3);
    }

    #[test]
    fn delete_everywhere_hits_all_rows() {
        let mut s = table();
        assert_eq!(s.delete_everywhere(&t(1, 1)), 2);
        assert!(!s.contains_anywhere(&t(1, 1)));
        assert!(s.contains_anywhere(&t(0, 1)));
    }

    #[test]
    fn max_ts_scans_rows() {
        assert_eq!(table().max_ts(), 2);
        assert_eq!(Nsit::new(2).max_ts(), 0);
    }

    #[test]
    fn distinct_tuples_dedupes() {
        let d = table().distinct_tuples();
        assert_eq!(d.len(), 2);
        assert!(d.contains(&t(0, 1)) && d.contains(&t(1, 1)));
    }

    #[test]
    fn lemma1_holds_for_valid_table() {
        assert!(table().invariant_lemma1());
    }

    #[test]
    fn dirty_tracking_is_invisible_to_eq_hash_debug() {
        use std::collections::hash_map::DefaultHasher;
        let dirty = table();
        let mut clean = table();
        clean.clear_dirty();
        assert_eq!(dirty, clean, "dirty flags must not affect equality");
        let h = |s: &Nsit| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&dirty), h(&clean), "dirty flags must not affect hashes");
        assert_eq!(format!("{dirty:?}"), format!("{clean:?}"));
    }

    #[test]
    fn mutations_re_dirty_rows_after_clear() {
        let mut s = table();
        s.clear_dirty();
        for k in NodeId::all(4) {
            assert!(!s.needs_normalize(k), "cleared table must be clean");
        }
        // A mutation of row 2 dirties row 2 itself...
        s.row_mut(NodeId::new(2)).mnl.push(t(3, 7));
        assert!(s.needs_normalize(NodeId::new(2)));
        // ...and, via the dirty-home probe, every row referencing node 2.
        // Row 0 holds tuples of nodes {0, 1} only, so it stays skippable.
        assert!(!s.needs_normalize(NodeId::new(0)));
        let mut s2 = table();
        s2.clear_dirty();
        s2.row_mut(NodeId::new(1)).ts = 9;
        assert!(
            s2.needs_normalize(NodeId::new(0)),
            "row 0 references node 1, whose home row changed"
        );
        assert!(s2.home_is_dirty(NodeId::new(1)));
        assert!(!s2.home_is_dirty(NodeId::new(0)));
    }

    #[test]
    fn for_each_row_mut_marks_only_changed_rows() {
        let mut s = table();
        s.clear_dirty();
        s.for_each_row_mut(|_, row| row.mnl.remove(&t(1, 1)));
        assert!(s.needs_normalize(NodeId::new(0)), "row 0 lost a tuple");
        assert!(s.needs_normalize(NodeId::new(1)), "row 1 lost a tuple");
        assert!(!s.needs_normalize(NodeId::new(3)), "row 3 was untouched");
    }

    #[test]
    fn dirty_home_probe_is_exact_above_64_nodes() {
        // Nodes 1 and 65 fold onto the same u64 bit; the bitset must still
        // tell them apart.
        let mut s = Nsit::new(70);
        s.clear_dirty();
        s.row_mut(NodeId::new(65)).ts = 3;
        assert!(s.home_is_dirty(NodeId::new(65)));
        assert!(
            !s.home_is_dirty(NodeId::new(1)),
            "aliased bit must not leak across the fold"
        );
    }

    #[test]
    fn clone_shares_rows_until_mutation() {
        let a = table();
        let mut b = a.clone();
        assert!(a.same_backing(&b), "snapshot must share storage");
        assert_eq!(a, b);
        // Bookkeeping writes must not unshare.
        b.clear_dirty();
        assert!(a.same_backing(&b));
        // A no-op purge on a shared table must not unshare either.
        assert_eq!(b.delete_everywhere(&t(9, 9)), 0);
        assert!(a.same_backing(&b));
        // A real mutation unshares; the original is untouched.
        b.row_mut(NodeId::new(2)).mnl.push(t(3, 1));
        assert!(!a.same_backing(&b));
        assert!(!a.contains_anywhere(&t(3, 1)));
        assert!(b.contains_anywhere(&t(3, 1)));
    }
}
