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
//! Row vectors are recycled through one process-wide pool of at most
//! [`POOL_CAP`] buffers: a dropped table's buffer backs the next copy or
//! fresh table, whichever thread makes it. The simulator runs a window's
//! handlers on two threads, and glibc's malloc keeps a heap per thread, so
//! without the pool the buffers one thread frees (tens of KB each at
//! N = 200) sit idle in its heap while the other thread grows its own.

use std::sync::{Arc, Mutex};

use rcv_simnet::NodeId;

use crate::mnl::Mnl;
use crate::tuple::ReqTuple;

/// One NSIT row: the recorded state of a single node.
/// The layout is pinned so that the version counter and the list's derived
/// caches (length, node mask, front tuple, own tuple) — everything the row
/// merge, vote scan, and normalize facts pass read on their O(N) sweeps —
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

/// The full table, indexed by node id. `Arc`'s equality compares pointers
/// before contents (`NsitRow: Eq`), so equal snapshots compare in O(1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Nsit {
    rows: Arc<Rows>,
}

/// Spare row buffers kept for reuse; more than this are freed.
const POOL_CAP: usize = 32;

static POOL: Mutex<Vec<Vec<NsitRow>>> = Mutex::new(Vec::new());

/// A table's row vector, its buffer drawn from and returned to [`POOL`].
/// Equality, hashing and `Debug` are the vector's.
#[derive(PartialEq, Eq, Hash)]
struct Rows(Vec<NsitRow>);

impl Rows {
    fn from_pool(rows: impl Iterator<Item = NsitRow>) -> Self {
        let spare = POOL.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut buf = spare.unwrap_or_default();
        buf.extend(rows);
        Rows(buf)
    }
}

impl Clone for Rows {
    fn clone(&self) -> Self {
        Rows::from_pool(self.0.iter().cloned())
    }
}

impl Drop for Rows {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.0);
        buf.clear();
        let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

impl std::ops::Deref for Rows {
    type Target = [NsitRow];
    fn deref(&self) -> &[NsitRow] {
        &self.0
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Nsit {
    /// A fresh table for an `n`-node system: all rows empty at version 0.
    /// Rows are owner-tagged so their [`Mnl`] owner-tuple caches are live.
    pub fn new(n: usize) -> Self {
        Nsit {
            rows: Arc::new(Rows::from_pool((0..n).map(|i| NsitRow {
                ts: 0,
                mnl: Mnl::for_owner(NodeId::new(i as u32)),
            }))),
        }
    }

    /// Number of rows (= system size `N`).
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Immutable row access.
    pub fn row(&self, node: NodeId) -> &NsitRow {
        &self.rows[node.index()]
    }

    /// Mutable row access. The first call after a share (snapshot)
    /// re-materializes the row vector.
    pub fn row_mut(&mut self, node: NodeId) -> &mut NsitRow {
        &mut Arc::make_mut(&mut self.rows).0[node.index()]
    }

    /// Iterates `(owner, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NsitRow)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (NodeId::new(i as u32), r))
    }

    /// Iterates rows mutably, in node order. Unshares a shared row vector
    /// up front, so callers that may change nothing prescan with
    /// [`Nsit::iter`] first.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut NsitRow> {
        Arc::make_mut(&mut self.rows).0.iter_mut()
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
        for row in self.rows_mut() {
            if row.mnl.may_contain_node(t.node) && row.mnl.remove(t) {
                removed += 1;
            }
        }
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
    fn clone_shares_rows_until_mutation() {
        let a = table();
        let mut b = a.clone();
        assert!(a.same_backing(&b), "snapshot must share storage");
        assert_eq!(a, b);
        // A no-op purge on a shared table must not unshare it.
        assert_eq!(b.delete_everywhere(&t(9, 9)), 0);
        assert!(a.same_backing(&b));
        // A real mutation unshares; the original is untouched.
        b.row_mut(NodeId::new(2)).mnl.push(t(3, 1));
        assert!(!a.same_backing(&b));
        assert!(!a.contains_anywhere(&t(3, 1)));
        assert!(b.contains_anywhere(&t(3, 1)));
    }
}
