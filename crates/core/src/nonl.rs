//! NONL — *Node Ordered Node List*: the replicated sequence of requests
//! whose order of CS entry has been decided by Relative Consensus Voting.
//!
//! Every node (and every in-flight message) carries a copy; the paper's
//! Lemmas 6–7 establish that any two copies, after pruning of completed
//! entries, order their common elements identically — one is a prefix of the
//! other. [`Nonl::prefix_consistent_with`] checks exactly that and is used
//! throughout the test battery.
//!
//! Like [`crate::Mnl`], storage is an `Arc`-backed copy-on-write vector:
//! snapshotting the list into a message and adopting a longer MONL are
//! reference-count bumps, equality gets a pointer fast path, and `Hash`
//! covers contents only so state fingerprints ignore sharing structure.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use rcv_simnet::NodeId;

use crate::tuple::ReqTuple;

/// All empty lists share one backing allocation.
fn shared_empty() -> Arc<Vec<ReqTuple>> {
    static EMPTY: OnceLock<Arc<Vec<ReqTuple>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// An ordered list of requests granted the CS, front = next/current holder.
///
/// `len` mirrors `items.len()` exactly, so length probes and the equality
/// fast path never dereference the backing allocation.
#[derive(Clone, Eq)]
pub struct Nonl {
    items: Arc<Vec<ReqTuple>>,
    len: u32,
}

impl Default for Nonl {
    fn default() -> Self {
        Nonl {
            items: shared_empty(),
            len: 0,
        }
    }
}

impl PartialEq for Nonl {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (Arc::ptr_eq(&self.items, &other.items) || *self.items == *other.items)
    }
}

impl fmt::Debug for Nonl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shape-compatible with the historical derived output.
        f.debug_struct("Nonl").field("items", &self.items).finish()
    }
}

impl Hash for Nonl {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Contents only — identical to the pre-COW derived hash.
        self.items.hash(state);
    }
}

impl Nonl {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The request currently at the head (executing or next to execute).
    pub fn head(&self) -> Option<ReqTuple> {
        self.items.first().copied()
    }

    /// Whether the exact tuple is present.
    pub fn contains(&self, t: &ReqTuple) -> bool {
        self.items.contains(t)
    }

    /// Position of `t`, if present.
    pub fn position(&self, t: &ReqTuple) -> Option<usize> {
        self.items.iter().position(|x| x == t)
    }

    /// The tuple immediately preceding `t` in the order, if any.
    pub fn predecessor_of(&self, t: &ReqTuple) -> Option<ReqTuple> {
        match self.position(t) {
            Some(0) | None => None,
            Some(i) => Some(self.items[i - 1]),
        }
    }

    /// Whether `self` and `other` share the same backing storage (and are
    /// therefore content-equal without looking).
    #[inline]
    pub fn same_backing(&self, other: &Nonl) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// Appends a newly ordered request at the back (Order procedure
    /// line 14). No-op if already present (idempotent under re-learning).
    pub fn append(&mut self, t: ReqTuple) {
        if !self.contains(&t) {
            Arc::make_mut(&mut self.items).push(t);
            self.len += 1;
        }
    }

    /// Removes the exact tuple (CS completion); returns whether present.
    pub fn remove(&mut self, t: &ReqTuple) -> bool {
        if !self.contains(t) {
            return false;
        }
        Arc::make_mut(&mut self.items).retain(|x| x != t);
        self.len = self.items.len() as u32;
        true
    }

    /// Removes `t` *and every tuple preceding it* (Exchange lines 1–4: if a
    /// request is known completed, everything ordered before it completed
    /// too). Returns how many tuples were removed.
    pub fn remove_through(&mut self, t: &ReqTuple) -> usize {
        match self.position(t) {
            Some(i) => {
                Arc::make_mut(&mut self.items).drain(..=i);
                self.len = self.items.len() as u32;
                i + 1
            }
            None => 0,
        }
    }

    /// Removes every tuple strictly preceding `t` (EM receipt: all my
    /// predecessors have finished). No-op if `t` is absent.
    pub fn remove_predecessors_of(&mut self, t: &ReqTuple) -> usize {
        match self.position(t) {
            Some(0) | None => 0,
            Some(i) => {
                Arc::make_mut(&mut self.items).drain(..i);
                self.len = self.items.len() as u32;
                i
            }
        }
    }

    /// Number of ordered requests — O(1), no deref.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty — O(1), no deref.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates in CS-entry order.
    pub fn iter(&self) -> core::slice::Iter<'_, ReqTuple> {
        self.items.iter()
    }

    /// Overwrites `self` with `other`'s contents. A reference-count bump
    /// under copy-on-write storage — MONL adoption shares the message's
    /// allocation instead of copying it.
    pub fn assign_from(&mut self, other: &Nonl) {
        if !Arc::ptr_eq(&self.items, &other.items) {
            self.items = Arc::clone(&other.items);
            self.len = other.len;
        }
    }

    /// Tuples present in `self` but not in `other`, in order.
    pub fn difference<'a>(&'a self, other: &'a Nonl) -> impl Iterator<Item = &'a ReqTuple> {
        self.items.iter().filter(move |t| !other.contains(t))
    }

    /// Whether any tuple of `node` is present.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.items.iter().any(|t| t.node == node)
    }

    /// Lemma 6/7 check: after pruning, one list must be a prefix of the
    /// other.
    pub fn prefix_consistent_with(&self, other: &Nonl) -> bool {
        if Arc::ptr_eq(&self.items, &other.items) {
            return true;
        }
        let (short, long) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        short
            .items
            .iter()
            .zip(long.items.iter())
            .all(|(a, b)| a == b)
    }

    /// Rough serialized size (for the wire-size metric); O(1) via the
    /// inline length cache.
    pub fn wire_size(&self) -> usize {
        self.len() * 12
    }
}

impl FromIterator<ReqTuple> for Nonl {
    fn from_iter<I: IntoIterator<Item = ReqTuple>>(iter: I) -> Self {
        let mut n = Nonl::new();
        for t in iter {
            n.append(t);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    #[test]
    fn head_and_predecessor() {
        let l: Nonl = [t(3, 1), t(1, 1), t(2, 2)].into_iter().collect();
        assert_eq!(l.head(), Some(t(3, 1)));
        assert_eq!(l.predecessor_of(&t(1, 1)), Some(t(3, 1)));
        assert_eq!(l.predecessor_of(&t(3, 1)), None);
        assert_eq!(l.predecessor_of(&t(9, 9)), None);
    }

    #[test]
    fn append_is_idempotent() {
        let mut l = Nonl::new();
        l.append(t(0, 1));
        l.append(t(0, 1));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn remove_through_drops_prefix() {
        let mut l: Nonl = [t(0, 1), t(1, 1), t(2, 1)].into_iter().collect();
        assert_eq!(l.remove_through(&t(1, 1)), 2);
        assert_eq!(l.head(), Some(t(2, 1)));
    }

    #[test]
    fn remove_predecessors_keeps_target() {
        let mut l: Nonl = [t(0, 1), t(1, 1), t(2, 1)].into_iter().collect();
        assert_eq!(l.remove_predecessors_of(&t(2, 1)), 2);
        assert_eq!(l.head(), Some(t(2, 1)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn prefix_consistency() {
        let a: Nonl = [t(0, 1), t(1, 1)].into_iter().collect();
        let b: Nonl = [t(0, 1), t(1, 1), t(2, 1)].into_iter().collect();
        let c: Nonl = [t(1, 1), t(0, 1)].into_iter().collect();
        assert!(a.prefix_consistent_with(&b));
        assert!(b.prefix_consistent_with(&a));
        assert!(!a.prefix_consistent_with(&c));
        assert!(Nonl::new().prefix_consistent_with(&a));
    }

    #[test]
    fn difference_lists_missing() {
        let a: Nonl = [t(0, 1), t(1, 1), t(2, 1)].into_iter().collect();
        let b: Nonl = [t(0, 1)].into_iter().collect();
        let d: Vec<_> = a.difference(&b).copied().collect();
        assert_eq!(d, vec![t(1, 1), t(2, 1)]);
    }

    #[test]
    fn cow_sharing_and_divergence() {
        let a: Nonl = [t(0, 1), t(1, 1)].into_iter().collect();
        let mut b = Nonl::new();
        b.assign_from(&a);
        assert!(a.same_backing(&b), "adoption must share storage");
        // Idempotent append on a shared list must not clone it.
        b.append(t(0, 1));
        assert!(a.same_backing(&b));
        // A real mutation diverges without disturbing the original.
        b.append(t(2, 1));
        assert!(!a.same_backing(&b));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        // remove_predecessors_of the head is a no-op and must keep sharing.
        let mut c = Nonl::new();
        c.assign_from(&a);
        assert_eq!(c.remove_predecessors_of(&t(0, 1)), 0);
        assert!(c.same_backing(&a));
    }
}
