//! SI — the *System Information* a node maintains (paper Figure 2):
//! `Next`, `NONL` and `NSIT`.

use rcv_simnet::NodeId;

use crate::nonl::Nonl;
use crate::nsit::Nsit;
use crate::scratch::NodeFacts;
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
    /// evidence ([`Si::purge_completed`]), returning the number of zombies
    /// purged. This pair runs at the tail of every Exchange — the hottest
    /// loop of the whole simulation — so it is fused into two dense passes:
    ///
    /// 1. **Facts:** one pass over the rows records, per node `j`, its
    ///    NONL timestamp, its home row's version and its own tuple there.
    /// 2. **Decisions:** one pass over every tuple. `<j, ts>` goes iff
    ///    `ts == nonl[j]` (ordered: must not keep voting), or
    ///    `home_ts[j] >= ts && own[j] != ts` (completion evidence; removed
    ///    tuples outside the NONL are the zombies). Only rows that lose a
    ///    tuple are written, so clean rows stay shared.
    ///
    /// Equivalence to `scrub(); purge().len()`: completion evidence for a
    /// tuple depends only on its home row's `(ts, own tuple)` and the
    /// NONL. Scrub's removals cannot change those facts for any tuple the
    /// purge looks at — an ordered own tuple is itself a NONL member,
    /// excluded either way — and purge's own removals cannot either (the
    /// evidence test `own != t` keeps every home row's own tuple). So both
    /// passes decide from the same facts, and deciding every tuple from
    /// facts taken up front equals the reference's decide-then-delete. The
    /// facts are only exact while every home row holds at most one own
    /// tuple (Lemma 1) and the NONL at most one entry per node; a state
    /// breaking either (never produced by the shipped algorithms) runs the
    /// reference pair instead.
    pub fn normalize_after_merge(&mut self) -> usize {
        crate::scratch::MERGE_SCRATCH.with(|cell| {
            let facts = &mut cell.borrow_mut().facts;
            if !self.fill_facts(facts) {
                // The reference pair; it reads no scratch.
                self.scrub_ordered_from_mnls();
                return self.purge_completed().len();
            }
            self.remove_by_facts(facts)
        })
    }

    /// The facts pass: refills `facts` with one entry per node. Returns
    /// false on a Lemma 1 violation in a home row or a NONL with two
    /// entries for one node, where the facts would be lossy.
    fn fill_facts(&self, facts: &mut Vec<NodeFacts>) -> bool {
        facts.clear();
        for (j, row) in self.nsit.iter() {
            // The own-tuple cache answers without touching the row's
            // storage; an untracked list or a Lemma 1 violation (cache
            // untrusted) is walked.
            let own = match row.mnl.owner_fact() {
                Some(own) => own.map(|t| t.ts),
                None => {
                    let mut own = None;
                    for x in row.mnl.iter().filter(|x| x.node == j) {
                        if own.is_some() {
                            return false;
                        }
                        own = Some(x.ts);
                    }
                    own
                }
            };
            facts.push(NodeFacts {
                nonl: None,
                home_ts: row.ts,
                own,
            });
        }
        for t in self.nonl.iter() {
            let slot = &mut facts[t.node.index()].nonl;
            if slot.is_some() {
                return false;
            }
            *slot = Some(t.ts);
        }
        true
    }

    /// The decision pass over facts filled by [`Si::fill_facts`]; returns
    /// the number of distinct zombies removed.
    fn remove_by_facts(&mut self, facts: &[NodeFacts]) -> usize {
        let remove = |t: &ReqTuple| {
            let f = &facts[t.node.index()];
            f.nonl == Some(t.ts) || (f.home_ts >= t.ts && f.own != Some(t.ts))
        };
        let mut zombies: Vec<ReqTuple> = Vec::new();
        for k in NodeId::all(self.n()) {
            // Decide read-only first: with copy-on-write rows shared across
            // nodes and messages, a row that keeps everything (the common
            // case) is never cloned-for-write.
            if !self.nsit.row(k).mnl.iter().any(|t| remove(&t)) {
                continue;
            }
            self.nsit.row_mut(k).mnl.remove_where(|t| {
                if !remove(t) {
                    return false;
                }
                if facts[t.node.index()].nonl != Some(t.ts) && !zombies.contains(t) {
                    zombies.push(*t);
                }
                true
            });
        }
        zombies.len()
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
