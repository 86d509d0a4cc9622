//! Per-node scratch indexes for the Exchange/normalize hot path.
//!
//! The Exchange procedure repeatedly needs "is tuple `<j, ts>` a member of
//! this ordered list?" and "what are node `j`'s home-row facts?" probes.
//! Answering them with list walks made every message cost O(NONL length)
//! per probe, and answering them with freshly allocated per-node tables
//! made every message cost an O(N) allocation. The backing vectors live in
//! a thread-local and are reused across calls. The membership maps clear
//! with a single epoch bump — slots written under an older epoch read as
//! vacant in O(1); the normalize facts are refilled whole by a pass that
//! reads every row anyway.
//!
//! Nothing here affects semantics: the scratch caches facts derived from
//! the lists and rows it is filled from, within one Exchange phase, and
//! every fill reports whether the one-entry-per-node invariant held so
//! callers can fall back to exact probes when it did not (corrupt states
//! only — the shipped algorithms never produce them).

use std::cell::RefCell;

use rcv_simnet::NodeId;

use crate::nonl::Nonl;

/// A per-node `Option<u64>` map with O(1) epoch-based clearing.
pub(crate) struct NodeTsMap {
    stamp: Vec<u32>,
    ts: Vec<u64>,
    epoch: u32,
}

impl NodeTsMap {
    fn new() -> Self {
        NodeTsMap {
            stamp: Vec::new(),
            ts: Vec::new(),
            epoch: 0,
        }
    }

    /// Starts a fresh map for an `n`-node system; previous contents vanish.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.ts.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `node → ts`; returns whether the slot was vacant (false
    /// means the source list had two entries for one node).
    pub(crate) fn set(&mut self, node: NodeId, ts: u64) -> bool {
        let i = node.index();
        let vacant = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        self.ts[i] = ts;
        vacant
    }

    /// The timestamp recorded for `node` this epoch, if any.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> Option<u64> {
        let i = node.index();
        (self.stamp[i] == self.epoch).then(|| self.ts[i])
    }

    /// Fills the map from an ordered list. Returns whether every node had
    /// at most one entry — when false the map is lossy (last entry wins)
    /// and callers must use exact probes instead.
    pub(crate) fn fill(&mut self, list: &Nonl, n: usize) -> bool {
        self.begin(n);
        let mut unique = true;
        for t in list.iter() {
            unique &= self.set(t.node, t.ts);
        }
        unique
    }
}

/// One node's facts for the normalize decision pass, filled densely per
/// call ([`crate::si::Si::normalize_after_merge`]).
pub(crate) struct NodeFacts {
    /// Timestamp of the node's NONL entry, if it has one.
    pub(crate) nonl: Option<u64>,
    /// The node's home row version.
    pub(crate) home_ts: u64,
    /// Timestamp of the node's own tuple in its home row, if listed.
    pub(crate) own: Option<u64>,
}

/// The scratch bundle one Exchange/normalize invocation works with.
pub(crate) struct MergeScratch {
    /// General-purpose ordered-list membership map (NONL side).
    pub(crate) a: NodeTsMap,
    /// Second membership map for phases that need two lists at once.
    pub(crate) b: NodeTsMap,
    /// Finished-own-tuple overlay for the receive-side row merge: tuples
    /// proven completed mid-loop are recorded here and filtered out of
    /// message-row *reads*, instead of purging (and thereby unsharing) the
    /// message's copy-on-write table that is about to be dropped anyway.
    pub(crate) ov: NodeTsMap,
    /// Per-node facts for the normalize pass, indexed by node id.
    pub(crate) facts: Vec<NodeFacts>,
}

impl MergeScratch {
    fn new() -> Self {
        MergeScratch {
            a: NodeTsMap::new(),
            b: NodeTsMap::new(),
            ov: NodeTsMap::new(),
            facts: Vec::new(),
        }
    }
}

thread_local! {
    /// One scratch bundle per thread: the simnet engine, each runtime node
    /// thread and each model-checker worker get their own, so no sharing,
    /// no contention, and no cross-run state (every phase refills what it
    /// reads).
    pub(crate) static MERGE_SCRATCH: RefCell<MergeScratch> =
        RefCell::new(MergeScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::ReqTuple;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    #[test]
    fn epoch_clearing_forgets_previous_fill() {
        let mut m = NodeTsMap::new();
        m.begin(4);
        assert!(m.set(NodeId::new(2), 7));
        assert_eq!(m.get(NodeId::new(2)), Some(7));
        m.begin(4);
        assert_eq!(m.get(NodeId::new(2)), None);
    }

    #[test]
    fn fill_reports_duplicates() {
        let mut m = NodeTsMap::new();
        let good: Nonl = [t(0, 1), t(1, 2)].into_iter().collect();
        assert!(m.fill(&good, 3));
        assert_eq!(m.get(NodeId::new(1)), Some(2));
        assert_eq!(m.get(NodeId::new(2)), None);
        // `Nonl::append` dedups exact tuples but not nodes:
        let dup: Nonl = [t(0, 1), t(0, 2)].into_iter().collect();
        assert!(!m.fill(&dup, 3), "two entries for one node must be flagged");
    }

    #[test]
    fn grows_across_begin_calls() {
        let mut m = NodeTsMap::new();
        m.begin(2);
        m.set(NodeId::new(1), 1);
        m.begin(10);
        assert_eq!(m.get(NodeId::new(9)), None);
        m.set(NodeId::new(9), 3);
        assert_eq!(m.get(NodeId::new(9)), Some(3));
    }
}
