//! SI — the *System Information* a node maintains (paper Figure 2):
//! `Next`, `NONL` and `NSIT`.

use rcv_simnet::NodeId;

use crate::nonl::Nonl;
use crate::nsit::Nsit;
use crate::tuple::ReqTuple;

/// A node's complete replicated view of the system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Si {
    /// The request to hand the CS to when this node releases it (set by an
    /// Inform Message). We keep the full tuple rather than the paper's bare
    /// node id so a stale IM for a node's *previous* request can never be
    /// confused with its current one.
    pub next: Option<ReqTuple>,
    /// The agreed order of requests granted the CS.
    pub nonl: Nonl,
    /// Per-node knowledge table.
    pub nsit: Nsit,
}

impl Si {
    /// Fresh state for a node in an `n`-node system ("when the system is
    /// initialized, each node knows nothing about others").
    pub fn new(n: usize) -> Self {
        Si {
            next: None,
            nonl: Nonl::new(),
            nsit: Nsit::new(n),
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.nsit.n()
    }

    /// True when, from this node's view, the request `t` has **completed**:
    /// the home row's information is at least as new as the request itself
    /// (`ts >= t.ts`), yet the request is listed neither in the home row's
    /// MNL nor in the NONL. (A request always lives in its home row's MNL
    /// from initialization until it is *ordered*, and in the NONL from
    /// ordering until CS exit — so fresh-enough information showing it in
    /// neither place proves it finished. README § Paper ambiguities,
    /// interpretations and repairs, #3.)
    pub fn knows_completed(&self, t: &ReqTuple) -> bool {
        let home_row = self.nsit.row(t.node);
        home_row.ts >= t.ts && !home_row.mnl.contains(t) && !self.nonl.contains(t)
    }

    /// Removes every tuple of the NONL from every MNL of the NSIT — ordered
    /// requests must not keep voting. Called after merges that may import
    /// row copies from nodes that had not yet heard of an ordering.
    /// Returns the number of deletions performed.
    pub fn scrub_ordered_from_mnls(&mut self) -> usize {
        let Si { nonl, nsit, .. } = self;
        nsit.rows_mut()
            .map(|r| r.mnl.remove_where(|t| nonl.contains(t)))
            .sum()
    }

    /// Purges tuples with completion evidence from every MNL (the repair of
    /// README § Paper ambiguities, interpretations and repairs, #3: stale
    /// third-party row copies can carry "zombie" tuples of already-finished
    /// requests back in; left alone they could vote, win an ordering and
    /// wedge the EM chain). Returns the purged tuples.
    pub fn purge_completed(&mut self) -> Vec<ReqTuple> {
        // The checks are independent of the deletions (removing one zombie
        // cannot create or destroy evidence for another), so everything is
        // filtered first, in first-occurrence order, then deleted.
        let mut purged: Vec<ReqTuple> = Vec::new();
        for (_, row) in self.nsit.iter() {
            for t in row.mnl.iter() {
                if !purged.contains(&t) && self.knows_completed(&t) {
                    purged.push(t);
                }
            }
        }
        for t in &purged {
            self.nsit.delete_everywhere(t);
        }
        purged
    }

    /// Post-merge normalization: removes ordered tuples from every MNL
    /// ([`Si::scrub_ordered_from_mnls`]) and purges tuples with completion
    /// evidence ([`Si::purge_completed`]) in a **single table pass**,
    /// returning the number of zombies purged. This pair runs at the tail
    /// of every Exchange — the hottest loop of the whole simulation — so
    /// the fused form matters.
    ///
    /// Equivalence to `scrub(); purge().len()`: scrub only removes exact
    /// NONL members, which the purge pass skips anyway (`t ∉ NONL` is part
    /// of the completion evidence), and completion evidence for a tuple
    /// depends only on its home row's `(ts, own tuple)` and the NONL —
    /// none of which scrub's removals can change (an ordered own-tuple is
    /// itself a NONL member, excluded either way; a valid home row never
    /// loses its own tuple to the zombie branch, because the evidence
    /// test `own != t` fails for it). Every occurrence of a zombie
    /// satisfies the same occurrence-independent conditions, so removing
    /// them inline equals the deferred `delete_everywhere`.
    ///
    /// The probes come from thread-local epoch-stamped scratch maps
    /// (`crate::scratch`) instead of per-call allocated tables, and the
    /// home-row facts are computed lazily per *referenced* node, so a
    /// message whose merge touched little costs little: each tuple pays
    /// two O(1) array probes and a clean row is never cloned-for-write.
    pub fn normalize_after_merge(&mut self) -> usize {
        crate::scratch::MERGE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.normalize_with(scratch)
        })
    }

    fn normalize_with(&mut self, s: &mut crate::scratch::MergeScratch) -> usize {
        let n = self.nsit.n();
        // The NONL-membership probe is only O(1) while the NONL holds one
        // entry per node; a violation (never produced by the shipped
        // algorithms) routes to the exact two-pass fallback, same as ever.
        if !s.a.fill(&self.nonl, n) {
            self.scrub_ordered_from_mnls();
            let purged = self.purge_completed().len();
            self.nsit.clear_dirty();
            return purged;
        }
        s.home.begin(n);
        s.memo.begin(n);
        let mut purged: Vec<ReqTuple> = Vec::new();
        for k in NodeId::all(n) {
            // Skip rows the change tracking proves clean: unchanged since
            // the last pass, and referencing no node whose home row changed
            // (see the soundness argument in [`crate::nsit`]). Scanned rows
            // always include every row referencing a changed node, so the
            // lazy home-facts cache observes mid-pass state at the same
            // points a full pass would.
            if !self.nsit.needs_normalize(k) {
                continue;
            }
            // Read-only decision pass: with copy-on-write rows shared
            // across nodes and messages, deciding before touching keeps
            // clean rows (the overwhelmingly common case) unwritten.
            let row_dirty = self.nsit.row_is_dirty(k);
            let row = self.nsit.row(k);
            if row.mnl.is_empty() {
                continue;
            }
            s.keep.clear();
            let mut removals = 0usize;
            for t in row.mnl.iter() {
                let remove = 'decide: {
                    // In a clean row (scanned only because its node mask
                    // intersects the folded dirty summary), every tuple was
                    // kept by its last decision; only tuples whose home
                    // row actually changed can decide differently now —
                    // an exact per-node probe at any N
                    // ([`crate::nsit::Nsit::home_is_dirty`]).
                    if !row_dirty && !self.nsit.home_is_dirty(t.node) {
                        break 'decide false;
                    }
                    // A request's tuple recurs across many rows; its
                    // decision is row-independent and pass-constant, so
                    // the first occurrence settles all the rest.
                    if let Some(remove) = s.memo.get(t.node, t.ts) {
                        break 'decide remove;
                    }
                    if s.a.get(t.node) == Some(t.ts) {
                        s.memo.set(t.node, t.ts, true);
                        break 'decide true; // ordered: must not keep voting
                    }
                    let (home_ts, own, valid) = match s.home.get(t.node) {
                        Some(facts) => facts,
                        None => {
                            // First reference to this node: record its home
                            // facts. The home row's own-tuple cache answers
                            // in O(1) without dereferencing the row, and a
                            // Lemma 1 violation (cache untrusted) routes to
                            // the exact walk, marked invalid so decisions
                            // probe the live state.
                            let hr = self.nsit.row(t.node);
                            let (own, valid) = match hr.mnl.owner_fact() {
                                Some(own) => (own, true),
                                None => {
                                    let mut own: Option<ReqTuple> = None;
                                    let mut valid = true;
                                    for x in hr.mnl.iter().filter(|x| x.node == t.node) {
                                        if own.is_some() {
                                            valid = false;
                                            break;
                                        }
                                        own = Some(x);
                                    }
                                    (own, valid)
                                }
                            };
                            s.home.set(t.node, hr.ts, own, valid)
                        }
                    };
                    if valid {
                        let remove = home_ts >= t.ts && own != Some(t);
                        s.memo.set(t.node, t.ts, remove);
                        remove
                    } else {
                        // Lemma 1 violated for this home row: probe the
                        // live state exactly, uncached (mid-pass removals
                        // could shift the answer here, unlike the valid
                        // path).
                        self.knows_completed(&t)
                    }
                };
                if remove {
                    // Removals that are not NONL members are zombies.
                    if s.a.get(t.node) != Some(t.ts) && !purged.contains(&t) {
                        purged.push(t);
                    }
                    removals += 1;
                }
                s.keep.push(!remove);
            }
            if removals > 0 {
                let keep = &s.keep;
                let mut i = 0usize;
                self.nsit.row_mut(k).mnl.remove_where(|_| {
                    let remove = !keep[i];
                    i += 1;
                    remove
                });
            }
        }
        self.nsit.clear_dirty();
        purged.len()
    }

    /// Structural invariants bundled for tests/property checks.
    pub fn invariants_ok(&self, me: NodeId) -> Result<(), String> {
        if !self.nsit.invariant_lemma1() {
            return Err(format!("{me}: Lemma 1 violated (duplicate node in an MNL)"));
        }
        for t in self.nonl.iter() {
            if self.nsit.contains_anywhere(t) {
                return Err(format!("{me}: ordered tuple {t} still present in an MNL"));
            }
        }
        let mut seen: Vec<NodeId> = Vec::new();
        for t in self.nonl.iter() {
            if seen.contains(&t.node) {
                return Err(format!("{me}: two NONL entries for {}", t.node));
            }
            seen.push(t.node);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    #[test]
    fn fresh_state_is_clean() {
        let si = Si::new(3);
        assert_eq!(si.n(), 3);
        assert!(si.nonl.is_empty());
        assert!(si.next.is_none());
        assert!(si.invariants_ok(NodeId::new(0)).is_ok());
    }

    #[test]
    fn knows_completed_requires_fresh_absence() {
        let mut si = Si::new(2);
        let req = t(1, 3);
        // Stale row (ts < req.ts): cannot conclude completion.
        si.nsit.row_mut(NodeId::new(1)).ts = 2;
        assert!(!si.knows_completed(&req));
        // Fresh row, request still listed: outstanding.
        si.nsit.row_mut(NodeId::new(1)).ts = 3;
        si.nsit.row_mut(NodeId::new(1)).mnl.push(req);
        assert!(!si.knows_completed(&req));
        // Ordered: in NONL, not in MNL.
        si.nsit.row_mut(NodeId::new(1)).mnl.remove(&req);
        si.nonl.append(req);
        assert!(!si.knows_completed(&req));
        // Completed: fresh row, in neither place.
        si.nonl.remove(&req);
        si.nsit.row_mut(NodeId::new(1)).ts = 4;
        assert!(si.knows_completed(&req));
    }

    #[test]
    fn scrub_removes_ordered_votes() {
        let mut si = Si::new(2);
        let req = t(0, 1);
        si.nsit.row_mut(NodeId::new(0)).mnl.push(req);
        si.nsit.row_mut(NodeId::new(1)).mnl.push(req);
        si.nonl.append(req);
        assert_eq!(si.scrub_ordered_from_mnls(), 2);
        assert!(!si.nsit.contains_anywhere(&req));
        assert!(si.invariants_ok(NodeId::new(0)).is_ok());
    }

    #[test]
    fn purge_completed_removes_zombies() {
        let mut si = Si::new(3);
        let zombie = t(1, 1);
        // Home row of node 1 is fresher than the request and lists nothing:
        si.nsit.row_mut(NodeId::new(1)).ts = 5;
        // ...but a stale third-party row copy still carries the tuple:
        si.nsit.row_mut(NodeId::new(2)).mnl.push(zombie);
        let purged = si.purge_completed();
        assert_eq!(purged, vec![zombie]);
        assert!(!si.nsit.contains_anywhere(&zombie));
    }

    #[test]
    fn purge_survives_lemma1_violation() {
        // Corrupt state: row 1 holds TWO of its own tuples. A cached
        // own-tuple would see only <1,1> and wrongly purge the live <1,2>;
        // the exact probe keeps any tuple still listed in its home row.
        let mut si = Si::new(3);
        let row1 = si.nsit.row_mut(NodeId::new(1));
        row1.ts = 2;
        row1.mnl = crate::mnl::Mnl::from_raw(vec![t(1, 1), t(1, 2)]);
        si.nsit.row_mut(NodeId::new(2)).mnl.push(t(1, 2));
        let purged = si.purge_completed();
        assert!(
            purged.is_empty(),
            "live request must survive: purged {purged:?}"
        );
        assert!(si.nsit.contains_anywhere(&t(1, 2)));
        // Same state through the fused pass: identical outcome.
        assert_eq!(si.normalize_after_merge(), 0);
        assert!(si.nsit.contains_anywhere(&t(1, 2)));
    }

    #[test]
    fn invariants_catch_ordered_tuple_in_mnl() {
        let mut si = Si::new(2);
        let req = t(0, 1);
        si.nonl.append(req);
        si.nsit.row_mut(NodeId::new(1)).mnl.push(req);
        assert!(si.invariants_ok(NodeId::new(0)).is_err());
    }
}
