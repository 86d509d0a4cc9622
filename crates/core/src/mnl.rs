//! MNL — *Maintained Node List*: the arrival-ordered list of outstanding
//! request tuples known to one NSIT row.
//!
//! Semantics (paper §3 + §4.2, with README § Paper ambiguities,
//! interpretations and repairs, #1): the row
//! owner appends a tuple when it initializes or receives a request message;
//! tuples are removed when the request is *ordered* (moves to the NONL) or
//! known *completed*. The **front** tuple is the row's current "vote" in the
//! Relative Consensus Voting scheme.
//!
//! Invariant (paper Lemma 1): an MNL never holds two tuples for the same
//! node — a node has at most one outstanding request.
//!
//! Storage is a hybrid: lists up to [`INLINE_CAP`] tuples (the overwhelming
//! majority — burst steady state averages well under ten) live **inline in
//! the struct**, so reading, comparing, or rebuilding a row touches no other
//! allocation; longer lists spill to an `Arc`-backed copy-on-write vector
//! and convert back the moment a removal brings them under the cap. The
//! measured alternative — an `Arc` per row — made every row compare, scrub,
//! and adoption a dependent random DRAM access plus reference-count
//! traffic, which at N=1000 dominated the entire simulation; inline rows
//! turn all of that into streaming loads and short `memcmp`/`memcpy`s,
//! while the *table* (`Nsit`) keeps structural sharing so message snapshots
//! stay O(1).
//!
//! Tuples are stored [packed into one word](PackedTuple) — the row merge at
//! large N is bound by DRAM bandwidth on cold tables, and halving the bytes
//! per tuple halves that wall. `Hash` and `Eq` see only the logical
//! contents, so fingerprints and the model checker's state merging are
//! unaffected by representation.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rcv_simnet::NodeId;

use crate::tuple::ReqTuple;

/// Tuples stored inline before spilling to the heap. Chosen from measured
/// burst row-length distributions: at N=1000 under a full burst ~95% of
/// scanned rows hold ≤ 16 tuples (the rest occur only in the opening
/// contention spike).
const INLINE_CAP: usize = 16;

/// A request tuple packed into one word: node id in the high 16 bits,
/// timestamp in the low 48. Timestamps are event-driven logical clocks
/// (bounded by events simulated — nowhere near 2^48) and node ids are
/// system indexes (bounded by cluster size — nowhere near 2^16); both
/// bounds are debug-asserted at the only packing site. Equality of packed
/// words is exactly equality of `(node, ts)` pairs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
struct PackedTuple(u64);

const TS_BITS: u32 = 48;
const TS_MASK: u64 = (1u64 << TS_BITS) - 1;

/// Largest timestamp the packed row storage can hold (48 bits). Wire
/// decoders must reject anything larger before it reaches an [`Mnl`].
pub const MAX_PACKED_TS: u64 = TS_MASK;

/// Largest node id the packed row storage can hold (16 bits).
pub const MAX_PACKED_NODE: u32 = (1 << 16) - 1;

impl PackedTuple {
    #[inline]
    fn pack(t: ReqTuple) -> Self {
        debug_assert!(
            t.node.raw() < (1 << 16) && t.ts <= TS_MASK,
            "tuple out of packed range: node {} ts {}",
            t.node.raw(),
            t.ts
        );
        PackedTuple(((t.node.raw() as u64) << TS_BITS) | t.ts)
    }

    #[inline]
    fn unpack(self) -> ReqTuple {
        ReqTuple::new(NodeId::new((self.0 >> TS_BITS) as u32), self.0 & TS_MASK)
    }

    #[inline]
    fn node_raw(self) -> u32 {
        (self.0 >> TS_BITS) as u32
    }

    #[inline]
    fn ts(self) -> u64 {
        self.0 & TS_MASK
    }
}

/// Filler for unused inline slots (never read; `len` bounds every access).
const FILLER: PackedTuple = PackedTuple(0);

/// The bit a node contributes to a list's [`Mnl::nodes_mask`].
#[inline]
pub(crate) fn node_bit(node: NodeId) -> u64 {
    1u64 << (node.index() & 63)
}

#[inline]
fn node_bit_raw(raw: u32) -> u64 {
    1u64 << (raw & 63)
}

/// Sentinel for a list whose owning row is unknown (test-built lists,
/// standalone lists): the owner-tuple cache is then never trusted.
const UNTRACKED: u32 = u32::MAX;

/// Inline cache of the *owner's* tuple (see [`Mnl::owner_fact`]). By
/// Lemma 1 a list holds at most one tuple per node, so the owner's tuple
/// is fully described by its timestamp.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OwnCache {
    /// Cache not maintainable: list untracked, or Lemma 1 violated for the
    /// owner (two own tuples observed). Callers must walk.
    Unknown,
    /// The owner has no tuple in this list.
    Absent,
    /// The owner's one tuple carries this timestamp.
    Present(u64),
}

/// The tuple storage itself: inline for short lists, copy-on-write heap
/// vector past [`INLINE_CAP`].
enum Items {
    /// `(live count, slots)` — only `slots[..count]` is meaningful.
    Inline(u8, [PackedTuple; INLINE_CAP]),
    /// Spilled storage for long lists (opening burst spike only).
    Heap(Arc<Vec<PackedTuple>>),
}

impl Clone for Items {
    fn clone(&self) -> Self {
        match self {
            // Read only the live prefix: cloning rides the hottest paths
            // (row adoption, table rematerialization) and the dead slots
            // of a short list are most of the buffer.
            Items::Inline(n, buf) => {
                let mut nb = [FILLER; INLINE_CAP];
                nb[..*n as usize].copy_from_slice(&buf[..*n as usize]);
                Items::Inline(*n, nb)
            }
            Items::Heap(v) => Items::Heap(Arc::clone(v)),
        }
    }
}

impl Items {
    #[inline]
    fn as_slice(&self) -> &[PackedTuple] {
        match self {
            Items::Inline(n, buf) => &buf[..*n as usize],
            Items::Heap(v) => v,
        }
    }
}

/// Arrival-ordered list of outstanding requests, at most one per node.
///
/// Derived facts ride inline next to the storage so the hottest probes
/// ("are these rows even comparable?", "could this row hold a tuple of
/// node j?", "is the row owner's request still outstanding?") never walk
/// it: `len` mirrors the live count exactly; `mask` is the OR of every
/// member's `node_bit` — a membership *filter*: a clear bit proves
/// absence, a set bit proves nothing; `front` mirrors the first tuple —
/// the row's vote, read by the Order procedure's seed scan over every row;
/// and `own` caches the owning row's own tuple (the Exchange lines 15-18
/// probes and every home-row completion check ask exactly this). All are
/// recomputed by every mutating operation.
///
/// Field order is pinned caches-first so that, embedded in an
/// [`crate::nsit::NsitRow`], every derived fact lands in the row's first
/// cache line and the tuple storage follows (see the row's layout note).
#[derive(Clone)]
#[repr(C)]
pub struct Mnl {
    len: u32,
    /// Index of the NSIT row this list belongs to ([`UNTRACKED`] if none).
    owner: u32,
    mask: u64,
    front: Option<ReqTuple>,
    own: OwnCache,
    items: Items,
}

impl Default for Mnl {
    fn default() -> Self {
        Mnl {
            len: 0,
            owner: UNTRACKED,
            mask: 0,
            front: None,
            own: OwnCache::Unknown,
            items: Items::Inline(0, [FILLER; INLINE_CAP]),
        }
    }
}

impl Eq for Mnl {}

impl PartialEq for Mnl {
    fn eq(&self, other: &Self) -> bool {
        // `len` is exact, so a mismatch decides without touching storage.
        if self.len != other.len {
            return false;
        }
        if let (Items::Heap(a), Items::Heap(b)) = (&self.items, &other.items) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        // Inline-vs-inline (the common case) is a short word compare with
        // no pointer chase at all.
        self.items.as_slice() == other.items.as_slice()
    }
}

impl fmt::Debug for Mnl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shape-compatible with the historical derived output (the cached
        // fields are derived data, not state).
        f.debug_struct("Mnl")
            .field("items", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl Hash for Mnl {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Contents only — identical across representations (packed words
        // biject with tuples), so equal lists always hash equal and the
        // model checker's state fingerprints are representation-blind.
        self.items.as_slice().hash(state);
    }
}

impl Mnl {
    /// Empty list with no owning row (the owner-tuple cache stays off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty list that is the MNL of NSIT row `owner`: the owner-tuple
    /// cache is live from the start.
    pub fn for_owner(owner: NodeId) -> Self {
        Mnl {
            owner: owner.raw(),
            own: OwnCache::Absent,
            ..Self::default()
        }
    }

    /// The row's current vote: the oldest outstanding request it knows.
    /// O(1) from the inline cache.
    #[inline]
    pub fn top(&self) -> Option<ReqTuple> {
        self.front
    }

    /// Whether the exact tuple is present. A clear mask bit proves absence
    /// without a walk; a probe for the *owner's* tuple is answered by the
    /// inline cache (Lemma 1: at most one own tuple, so cache equality is
    /// an exact answer, not just a filter).
    pub fn contains(&self, t: &ReqTuple) -> bool {
        self.contains_packed(PackedTuple::pack(*t))
    }

    /// Whether any tuple of `node` is present.
    pub fn contains_node(&self, node: NodeId) -> bool {
        if self.mask & node_bit(node) == 0 {
            return false;
        }
        if node.raw() == self.owner {
            match self.own {
                OwnCache::Absent => return false,
                OwnCache::Present(_) => return true,
                OwnCache::Unknown => {}
            }
        }
        self.items
            .as_slice()
            .iter()
            .any(|p| p.node_raw() == node.raw())
    }

    /// The tuple of `node`, if present. O(1) for the owner's own tuple.
    pub fn tuple_of(&self, node: NodeId) -> Option<ReqTuple> {
        if self.mask & node_bit(node) == 0 {
            return None;
        }
        if node.raw() == self.owner {
            match self.own {
                OwnCache::Absent => return None,
                OwnCache::Present(ts) => return Some(ReqTuple::new(node, ts)),
                OwnCache::Unknown => {}
            }
        }
        self.items
            .as_slice()
            .iter()
            .find(|p| p.node_raw() == node.raw())
            .map(|p| p.unpack())
    }

    /// The owning row's own registered tuple — the fact the Exchange
    /// lines 15-18 probes and the completion-evidence check
    /// ([`crate::si::Si::knows_completed`]) are built on. `None` means the
    /// cache cannot be trusted (untracked list, or Lemma 1 violated for
    /// the owner) and the caller must fall back to an exact walk;
    /// `Some(own)` is exact.
    #[inline]
    pub(crate) fn owner_fact(&self) -> Option<Option<ReqTuple>> {
        match self.own {
            OwnCache::Unknown => None,
            OwnCache::Absent => Some(None),
            OwnCache::Present(ts) => Some(Some(ReqTuple::new(NodeId::new(self.owner), ts))),
        }
    }

    /// Whether `self` and `other` share spilled heap storage (and are
    /// therefore content-equal without looking). Inline lists have no
    /// shared backing by construction — they compare by value instead.
    #[inline]
    pub fn same_backing(&self, other: &Mnl) -> bool {
        match (&self.items, &other.items) {
            (Items::Heap(a), Items::Heap(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Conservative node-membership filter: the OR of every member's
    /// `node_bit`. A clear bit proves no tuple of that node is present;
    /// a set bit is inconclusive (64-bit hashing aliases nodes ≥ 64).
    #[inline]
    pub(crate) fn nodes_mask(&self) -> u64 {
        self.mask
    }

    /// Whether a tuple of `node` *could* be present — O(1), no walk.
    /// False guarantees absence.
    #[inline]
    pub fn may_contain_node(&self, node: NodeId) -> bool {
        self.mask & node_bit(node) != 0
    }

    /// Recomputes the inline caches from storage (one walk), demoting a
    /// heap list that has drained to [`INLINE_CAP`] or fewer tuples back
    /// to inline storage so later reads stop chasing the allocation.
    fn refresh_cache(&mut self) {
        if let Items::Heap(v) = &self.items {
            if v.len() <= INLINE_CAP {
                let mut buf = [FILLER; INLINE_CAP];
                buf[..v.len()].copy_from_slice(v);
                self.items = Items::Inline(v.len() as u8, buf);
            }
        }
        let s = self.items.as_slice();
        self.len = s.len() as u32;
        self.front = s.first().map(|p| p.unpack());
        let mut mask = 0u64;
        let mut own = if self.owner == UNTRACKED {
            OwnCache::Unknown
        } else {
            OwnCache::Absent
        };
        for p in s {
            mask |= node_bit_raw(p.node_raw());
            if p.node_raw() == self.owner {
                own = match own {
                    OwnCache::Absent => OwnCache::Present(p.ts()),
                    // Second own tuple: Lemma 1 violated; stop trusting.
                    _ => OwnCache::Unknown,
                };
            }
        }
        self.mask = mask;
        self.own = own;
    }

    /// Appends at the back of storage, spilling inline→heap at the cap.
    fn push_raw(&mut self, p: PackedTuple) {
        match &mut self.items {
            Items::Inline(n, buf) => {
                if (*n as usize) < INLINE_CAP {
                    buf[*n as usize] = p;
                    *n += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_CAP * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(p);
                    self.items = Items::Heap(Arc::new(v));
                }
            }
            Items::Heap(v) => Arc::make_mut(v).push(p),
        }
    }

    /// Appends `t` at the back.
    ///
    /// If a tuple for the same node is already present the Lemma 1 invariant
    /// is at stake: an *older* tuple is superseded (removed first; this is
    /// the Exchange procedure's "delete the one with smaller timestamp"
    /// reconciliation), a *newer or equal* one makes the append a no-op.
    /// Returns whether `t` is in the list afterwards at the back.
    pub fn push(&mut self, t: ReqTuple) -> bool {
        if let Some(existing) = self.tuple_of(t.node) {
            if existing.ts >= t.ts {
                return false;
            }
            let raw = t.node.raw();
            self.remove_packed(|x| x.node_raw() == raw);
            self.push_raw(PackedTuple::pack(t));
            self.refresh_cache();
            return true;
        }
        let was_empty = self.len == 0;
        self.push_raw(PackedTuple::pack(t));
        if was_empty {
            self.front = Some(t);
        }
        self.len += 1;
        self.mask |= node_bit(t.node);
        if t.node.raw() == self.owner && self.own == OwnCache::Absent {
            // tuple_of just proved no own tuple was present.
            self.own = OwnCache::Present(t.ts);
        }
        true
    }

    /// Removes the exact tuple; returns whether it was present.
    pub fn remove(&mut self, t: &ReqTuple) -> bool {
        let p = PackedTuple::pack(*t);
        if !self.contains_packed(p) {
            return false;
        }
        self.remove_packed(|x| *x == p);
        true
    }

    /// Removes any tuple of `node`; returns whether one was present.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        if !self.contains_node(node) {
            return false;
        }
        let raw = node.raw();
        self.remove_packed(|x| x.node_raw() == raw);
        true
    }

    /// Removes every tuple matching `pred` in one pass, preserving the
    /// order of survivors. Returns how many tuples were removed.
    ///
    /// `pred` is called exactly once per tuple, in order (it may carry
    /// state). Inline lists compact in place with no allocation traffic;
    /// a spilled list is only cloned-for-write once a first match is found
    /// — a miss on a shared list costs zero copies.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&ReqTuple) -> bool) -> usize {
        self.remove_packed(move |p| pred(&p.unpack()))
    }

    /// [`Self::remove_where`] over the packed representation — the hot
    /// paths' predicates compare whole words without unpacking.
    fn remove_packed(&mut self, mut pred: impl FnMut(&PackedTuple) -> bool) -> usize {
        let removed = match &mut self.items {
            Items::Inline(n, buf) => {
                let live = *n as usize;
                let mut write = 0usize;
                for read in 0..live {
                    let p = buf[read];
                    if !pred(&p) {
                        buf[write] = p;
                        write += 1;
                    }
                }
                *n = write as u8;
                live - write
            }
            Items::Heap(v) => {
                let Some(first) = v.iter().position(&mut pred) else {
                    return 0;
                };
                let v = Arc::make_mut(v);
                let before = v.len();
                let mut write = first;
                for read in (first + 1)..before {
                    if !pred(&v[read]) {
                        v[write] = v[read];
                        write += 1;
                    }
                }
                v.truncate(write);
                before - write
            }
        };
        if removed > 0 {
            self.refresh_cache();
        }
        removed
    }

    /// Overwrites `self` with `other`'s contents. Inline contents copy by
    /// value (at most two cache lines, no allocation); spilled contents
    /// share the heap vector with a reference-count bump.
    pub fn assign_from(&mut self, other: &Mnl) {
        match (&mut self.items, &other.items) {
            // Inline → inline reuses the existing buffer and moves only
            // the live prefix — the bytes an adoption touches scale with
            // the list, not the buffer.
            (Items::Inline(dn, dbuf), Items::Inline(sn, sbuf)) => {
                dbuf[..*sn as usize].copy_from_slice(&sbuf[..*sn as usize]);
                *dn = *sn;
            }
            (Items::Heap(a), Items::Heap(b)) if Arc::ptr_eq(a, b) => {
                // Already sharing storage: contents and caches are
                // consistent on both sides as they stand.
                if self.owner == other.owner {
                    self.own = other.own;
                }
                return;
            }
            (items, _) => *items = other.items.clone(),
        }
        self.len = other.len;
        self.mask = other.mask;
        self.front = other.front;
        // The owner cache describes (owner, contents): same-owner adoption
        // (the only case the Exchange row loop produces) copies it; a
        // cross-owner assignment recomputes it for the new contents.
        if self.owner == other.owner {
            self.own = other.own;
        } else if self.owner != UNTRACKED {
            self.refresh_cache();
        }
    }

    /// Keeps only tuples also present in `other`, preserving order.
    ///
    /// Used when two copies of the same row carry the same version: the
    /// append-sets are then identical and the copies differ only by
    /// deletions of ordered/completed tuples, so applying both sides'
    /// deletions (set intersection) is the sound merge
    /// (README § Paper ambiguities, interpretations and repairs, #3).
    pub fn intersect(&mut self, other: &Mnl) {
        if self
            .items
            .as_slice()
            .iter()
            .all(|p| other.contains_packed(*p))
        {
            return;
        }
        self.remove_packed(|p| !other.contains_packed(*p));
    }

    /// Exact membership probe over the packed representation (single word
    /// compare per slot; the mask and owner cache answer most probes with
    /// no walk at all).
    #[inline]
    fn contains_packed(&self, p: PackedTuple) -> bool {
        if self.mask & node_bit_raw(p.node_raw()) == 0 {
            return false;
        }
        if p.node_raw() == self.owner {
            match self.own {
                OwnCache::Absent => return false,
                OwnCache::Present(ts) => return ts == p.ts(),
                OwnCache::Unknown => {}
            }
        }
        self.items.as_slice().contains(&p)
    }

    /// Number of tuples — O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty (the row is an RCV "unknown") — O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates tuples in arrival order. Yields by value — storage is
    /// packed, so there is no `&ReqTuple` to hand out.
    pub fn iter(&self) -> impl Iterator<Item = ReqTuple> + '_ {
        self.items.as_slice().iter().map(|p| p.unpack())
    }

    /// Lemma 1 invariant check: no two tuples share a node.
    pub fn invariant_one_per_node(&self) -> bool {
        let s = self.items.as_slice();
        let mut seen: Vec<u32> = Vec::with_capacity(s.len());
        for p in s {
            if seen.contains(&p.node_raw()) {
                return false;
            }
            seen.push(p.node_raw());
        }
        true
    }

    /// Rough serialized size (for the wire-size metric). Reads the inline
    /// length cache: this is called for every row of every outgoing
    /// message, and walking storage just to read a length made the
    /// per-send accounting O(N) extra work.
    pub fn wire_size(&self) -> usize {
        self.len() * 12
    }
}

impl Mnl {
    /// Builds an untracked list bypassing `push`'s Lemma 1 enforcement.
    /// No protocol path produces such a list; it exists so tests can
    /// exercise the invariant-violation fallback paths.
    #[doc(hidden)]
    pub fn from_raw(items: Vec<ReqTuple>) -> Self {
        let mut m = Mnl {
            items: Items::Heap(Arc::new(items.into_iter().map(PackedTuple::pack).collect())),
            ..Mnl::default()
        };
        m.refresh_cache();
        m
    }
}

impl FromIterator<ReqTuple> for Mnl {
    fn from_iter<I: IntoIterator<Item = ReqTuple>>(iter: I) -> Self {
        let mut m = Mnl::new();
        for t in iter {
            m.push(t);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    #[test]
    fn top_is_front() {
        let m: Mnl = [t(2, 1), t(0, 1), t(1, 1)].into_iter().collect();
        assert_eq!(m.top(), Some(t(2, 1)));
    }

    #[test]
    fn packing_round_trips_extremes() {
        for t in [
            t(0, 0),
            t(65535, 0),
            t(0, TS_MASK),
            t(65535, TS_MASK),
            t(999, 123_456_789),
        ] {
            assert_eq!(PackedTuple::pack(t).unpack(), t);
            assert_eq!(PackedTuple::pack(t).node_raw(), t.node.raw());
            assert_eq!(PackedTuple::pack(t).ts(), t.ts);
        }
    }

    #[test]
    fn push_supersedes_older_tuple_of_same_node() {
        let mut m = Mnl::new();
        assert!(m.push(t(3, 1)));
        assert!(m.push(t(3, 2)), "newer tuple must supersede");
        assert_eq!(m.len(), 1);
        assert_eq!(m.top(), Some(t(3, 2)));
        assert!(!m.push(t(3, 1)), "older tuple must be rejected");
        assert_eq!(m.top(), Some(t(3, 2)));
    }

    #[test]
    fn push_duplicate_is_noop() {
        let mut m = Mnl::new();
        m.push(t(3, 1));
        assert!(!m.push(t(3, 1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_exact_and_by_node() {
        let mut m: Mnl = [t(0, 1), t(1, 5)].into_iter().collect();
        assert!(!m.remove(&t(1, 4)), "wrong ts must not match");
        assert!(m.remove(&t(1, 5)));
        assert!(m.remove_node(NodeId::new(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn remove_where_calls_pred_once_per_tuple_in_order() {
        let mut m: Mnl = [t(0, 1), t(1, 1), t(2, 1), t(3, 1)].into_iter().collect();
        let mut seen = Vec::new();
        let removed = m.remove_where(|x| {
            seen.push(x.node.raw());
            x.node.raw() % 2 == 1
        });
        assert_eq!(removed, 2);
        assert_eq!(
            seen,
            vec![0, 1, 2, 3],
            "stateful predicates need one call each"
        );
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![t(0, 1), t(2, 1)]);
    }

    #[test]
    fn intersect_applies_both_deletion_sets() {
        let mut a: Mnl = [t(0, 1), t(1, 1), t(2, 1)].into_iter().collect();
        let b: Mnl = [t(0, 1), t(2, 1)].into_iter().collect(); // other side deleted t(1,..)
        a.intersect(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![t(0, 1), t(2, 1)]);
    }

    #[test]
    fn invariant_detects_duplicates() {
        let good: Mnl = [t(0, 1), t(1, 1)].into_iter().collect();
        assert!(good.invariant_one_per_node());
        // Build a corrupt list bypassing push():
        let bad = Mnl::from_raw(vec![t(0, 1), t(0, 2)]);
        assert!(!bad.invariant_one_per_node());
    }

    #[test]
    fn preserves_arrival_order() {
        let m: Mnl = [t(5, 1), t(1, 2), t(3, 1)].into_iter().collect();
        let order: Vec<u32> = m.iter().map(|x| x.node.raw()).collect();
        assert_eq!(order, vec![5, 1, 3]);
    }

    /// Lists at or under the inline cap copy by value: mutating the copy
    /// never disturbs the original, and equality is decided by contents.
    #[test]
    fn inline_copies_are_independent() {
        let a: Mnl = [t(0, 1), t(1, 1)].into_iter().collect();
        let mut b = Mnl::new();
        b.assign_from(&a);
        assert_eq!(a, b);
        assert!(!a.same_backing(&b), "short lists live inline, unshared");
        b.remove(&t(0, 1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        // No-op mutations must not change anything observable.
        let mut c = Mnl::new();
        c.assign_from(&a);
        assert!(!c.remove(&t(9, 9)));
        assert_eq!(c.remove_where(|x| x.ts > 100), 0);
        c.intersect(&a);
        assert_eq!(c, a);
    }

    /// Past the inline cap the list spills to shared heap storage; copies
    /// then share until a real mutation, and a removal that drains the
    /// list back under the cap demotes it to inline storage again.
    #[test]
    fn spill_shares_and_demotes_on_drain() {
        let long: Mnl = (0..(INLINE_CAP as u32 + 2)).map(|i| t(i, 1)).collect();
        assert_eq!(long.len(), INLINE_CAP + 2);
        let mut copy = Mnl::new();
        copy.assign_from(&long);
        assert!(long.same_backing(&copy), "spilled adoption must share");
        // A no-op removal keeps sharing.
        assert_eq!(copy.remove_where(|x| x.ts > 100), 0);
        assert!(long.same_backing(&copy));
        // Two removals bring it to the cap: storage goes inline again.
        copy.remove(&t(0, 1));
        assert!(!long.same_backing(&copy));
        assert_eq!(copy.len(), INLINE_CAP + 1);
        copy.remove(&t(1, 1));
        assert_eq!(copy.len(), INLINE_CAP);
        assert!(!long.same_backing(&copy));
        assert_eq!(long.len(), INLINE_CAP + 2, "original untouched");
        // Contents survive the representation changes.
        let nodes: Vec<u32> = copy.iter().map(|x| x.node.raw()).collect();
        assert_eq!(nodes, (2..(INLINE_CAP as u32 + 2)).collect::<Vec<_>>());
    }

    /// Pushing past the cap spills without losing order, and equality is
    /// representation-blind (inline list == drained heap list).
    #[test]
    fn equality_is_representation_blind() {
        // Build one list inline-first, another heap-first.
        let a: Mnl = (0..(INLINE_CAP as u32)).map(|i| t(i, 1)).collect();
        let mut b: Mnl = (0..(INLINE_CAP as u32 + 1)).map(|i| t(i, 1)).collect();
        b.remove(&t(INLINE_CAP as u32, 1));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(
            ha.finish(),
            hb.finish(),
            "hash must match across representations"
        );
    }

    /// The owner-tuple cache stays exact through spill and demotion.
    #[test]
    fn owner_cache_survives_representation_changes() {
        let mut m = Mnl::for_owner(NodeId::new(3));
        for i in 0..(INLINE_CAP as u32 + 4) {
            m.push(t(i, 7));
        }
        assert_eq!(m.tuple_of(NodeId::new(3)), Some(t(3, 7)));
        for i in (4..(INLINE_CAP as u32 + 4)).rev() {
            m.remove(&t(i, 7));
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.tuple_of(NodeId::new(3)), Some(t(3, 7)));
        m.remove(&t(3, 7));
        assert_eq!(m.tuple_of(NodeId::new(3)), None);
    }
}
