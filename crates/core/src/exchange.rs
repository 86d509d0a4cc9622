//! The **Exchange procedure** (paper §4.3): reconciliation of a node's SI
//! with the MONL/MSIT carried by an incoming message. The paper's procedure
//! is bidirectional — it also refreshes the message — but every handler
//! drops the message after the call, so [`exchange`] is the receive side
//! only.
//!
//! The paper's pseudo-code is reproduced faithfully with three documented
//! clarifications (indexed in README § Paper ambiguities, interpretations
//! and repairs):
//!
//! * `PAPER-AMBIGUITY (typo)`: lines 1/3 test membership in
//!   `NSIT[Host].MNL`, but the accompanying prose ("not in SI_i.NONL and
//!   SI_i.NSIT[j].MNL") makes clear the row of the *tuple's own node* is
//!   meant; we follow the prose.
//! * `PAPER-AMBIGUITY (equal versions)`: two copies of one row can carry the
//!   same version `TS` yet different contents, because the Order procedure
//!   deletes ordered tuples from *copies* of other nodes' rows without
//!   advancing their version. Since only the row owner appends (bumping the
//!   version), equal versions have identical append-sets and differ only by
//!   deletions of ordered/completed tuples — so the sound merge is the
//!   intersection.
//! * `REPAIR (zombie purge)`: a fresher third-party row copy can carry a
//!   tuple whose request the receiver already knows completed; left alone it
//!   would vote for a finished request, which could wedge the EM chain. The
//!   final normalization pass purges every tuple with completion evidence
//!   ([`Si::knows_completed`]).

use crate::message::MsgBody;
use crate::mnl::Mnl;
use crate::nonl::Nonl;
use crate::nsit::Nsit;
use crate::scratch::{MergeScratch, NodeTsMap, MERGE_SCRATCH};
use crate::si::Si;
use crate::tuple::ReqTuple;

/// What one Exchange invocation did (for white-box tests and debugging).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// Completed tuples pruned from the front of the message's MONL.
    pub monl_pruned: usize,
    /// Completed tuples pruned from the front of the local NONL.
    pub nonl_pruned: usize,
    /// Whether the local NONL adopted the (longer) message MONL.
    pub adopted_monl: bool,
    /// Rows where the local copy was replaced by the fresher message copy.
    pub rows_adopted: usize,
    /// Zombie tuples purged by the final normalization pass.
    pub zombies_purged: usize,
    /// True if the two NONLs were not prefix-consistent (a Lemma 6
    /// violation — never observed in the shipped test battery; counted so
    /// the battery can assert it stays zero).
    pub lemma6_violation: bool,
}

/// Runs the Exchange procedure: merges the message `body` into `si`.
///
/// `em_for` is set when the incoming message is an EM granting the request
/// `t`: everything ordered before `t` has then finished and is dropped from
/// both lists (paper §4.3, "tuples that precede `<i, ti>` in Ordered Node
/// List also can be deleted").
///
/// This is the receive side of the paper's bidirectional procedure: every
/// protocol handler drops the message after the call and re-snapshots the
/// SI before forwarding, so the steps whose only effect is refreshing the
/// message are not run. `body` is left partially merged and must not be
/// forwarded. The one message-side purge that later row merges read back
/// into `si` (lines 17-18) is kept, as an overlay — see the comment there.
///
/// `body.msit` must have `si.n()` rows and name no node beyond them:
/// `RcvNode::on_message` drops a body of another size before calling, and
/// the wire decoder rejects out-of-table node ids.
pub fn exchange(si: &mut Si, body: &mut MsgBody, em_for: Option<&ReqTuple>) -> ExchangeOutcome {
    let mut out = ExchangeOutcome::default();
    {
        let _p = rcv_simnet::profile::probe(rcv_simnet::profile::ProbePhase::Merge);
        MERGE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            exchange_phases(si, body, em_for, &mut out, scratch);
        });
    }

    // --- Normalization: ordered tuples never vote; zombies are purged.
    // (Borrows the scratch bundle again internally — phases never overlap.)
    let _p = rcv_simnet::profile::probe(rcv_simnet::profile::ProbePhase::Normalize);
    out.zombies_purged = si.normalize_after_merge();
    out
}

/// Everything before the final normalization pass; factored out so the
/// thread-local scratch borrow has a clear scope.
fn exchange_phases(
    si: &mut Si,
    body: &mut MsgBody,
    em_for: Option<&ReqTuple>,
    out: &mut ExchangeOutcome,
    scratch: &mut MergeScratch,
) {
    let n = si.n();

    // When the two ordered lists are identical (the common synced case),
    // every tuple is a member of both sides, so neither prune below can
    // match — skip the membership scans outright. Under copy-on-write
    // lists this comparison is usually a pointer check; when the copies
    // are content-equal but separately built (both sides pruned the same
    // prefix on their own), unify the backings so the next compare IS a
    // pointer check.
    if body.monl.same_backing(&si.nonl) {
        // Identical lists sharing storage: nothing to prune.
    } else if body.monl == si.nonl {
        si.nonl.assign_from(&body.monl);
    } else {
        // Per-node timestamp maps turn each membership probe below into an
        // O(1) array compare. A duplicate-node entry (corrupt state, never
        // produced by the shipped algorithms) makes a map lossy; fall back
        // to the exact linear probes for that side.
        let nonl_unique = scratch.a.fill(&si.nonl, n);
        let mut monl_unique = scratch.b.fill(&body.monl, n);

        // --- Lines 1-2: prune from MONL requests the receiver knows
        // completed. (Everything ordered before a completed request
        // completed as well, so the *last* matching tuple drags its whole
        // prefix out.)
        if let Some(last) = body
            .monl
            .iter()
            .rev()
            .find(|a| {
                if nonl_unique {
                    // `knows_completed` with the NONL membership probe
                    // answered by the map instead of a list walk.
                    if scratch.a.get(a.node) == Some(a.ts) {
                        return false;
                    }
                    let row = si.nsit.row(a.node);
                    row.ts >= a.ts && !row.mnl.contains(a)
                } else {
                    !si.nonl.contains(a) && si.knows_completed(a)
                }
            })
            .copied()
        {
            out.monl_pruned = body.monl.remove_through(&last);
            // The MONL map now describes a list that no longer exists; the
            // lines-3-4 probe below must answer membership against the
            // *pruned* MONL (a tuple dragged out with the pruned prefix
            // must not block the symmetric local prune). Refill it.
            monl_unique = scratch.b.fill(&body.monl, n);
        }

        // --- Lines 3-4: symmetric prune of the local NONL using the
        // message's fresher knowledge.
        if let Some(last) = si
            .nonl
            .iter()
            .rev()
            .find(|b| {
                let in_monl = if monl_unique {
                    scratch.b.get(b.node) == Some(b.ts)
                } else {
                    body.monl.contains(b)
                };
                if in_monl {
                    return false;
                }
                let row = body.msit.row(b.node);
                row.ts >= b.ts && !row.mnl.contains(b)
            })
            .copied()
        {
            out.nonl_pruned = si.nonl.remove_through(&last);
        }
    }

    // --- EM cleanup: the granted request's predecessors have all finished.
    if let Some(t) = em_for {
        body.monl.remove_predecessors_of(t);
        si.nonl.remove_predecessors_of(t);
    }

    // --- Lines 5-12: merge the ordered lists; the longer one wins (after
    // pruning, one is a prefix of the other by Lemma 6).
    if !body.monl.prefix_consistent_with(&si.nonl) {
        out.lemma6_violation = true;
        // Deterministic fallback: keep local order, append unseen suffix.
        let missing: Vec<ReqTuple> = body.monl.difference(&si.nonl).copied().collect();
        for t in missing {
            si.nsit.delete_everywhere(&t);
            si.nonl.append(t);
        }
    } else if body.monl.len() > si.nonl.len() {
        // Prefix-consistent (just checked) and duplicate-free by
        // construction, so the difference is exactly the suffix beyond the
        // shorter list. The newly ordered suffix tuples must stop voting:
        // scrub them from all rows in ONE batched sweep (read-gated, so
        // clean rows are neither scanned twice nor cloned-for-write)
        // instead of one full-table `delete_everywhere` walk per tuple.
        //
        // (Not left to the final normalization pass: a freshly ordered
        // request was outstanding here, so its tuple sits in many local
        // rows, and the row-merge loop's equal-version compares would
        // mismatch and clone row after row first.)
        scrub_suffix(&mut si.nsit, &body.monl, si.nonl.len(), &mut scratch.b, n);
        si.nonl.assign_from(&body.monl);
        out.adopted_monl = true;
    }

    // --- Lines 13-22: row-wise NSIT reconciliation. Adoptions share row
    // contents with the message (a reference-count bump under copy-on-write
    // storage).
    scratch.ov.begin(n);
    let ov = &mut scratch.ov;
    let mut ov_mask: u64 = 0;
    let si_nsit = &mut si.nsit;
    let body_msit = &body.msit;
    for k in rcv_simnet::NodeId::all(n) {
        let local_ts = si_nsit.row(k).ts;
        let msg_ts = body_msit.row(k).ts;
        if local_ts == msg_ts {
            // Equal version ⇒ same append-set; apply both deletion sets.
            // When the two copies are already identical (by far the common
            // case — most rows are in sync or empty) the intersection is a
            // no-op, so skip the rebuild. The compare is a length check
            // plus, for the short inline rows that dominate, a streaming
            // memcmp of at most two cache lines — no pointer chase — and
            // this is the hottest line of the whole simulation. Message
            // rows are read through the finished-tuple overlay (see the
            // lines-17/18 mirror below).
            let body_mnl = &body_msit.row(k).mnl;
            let overlaid = ov_mask & body_mnl.nodes_mask() != 0;
            let equal = if overlaid {
                eq_without(&si_nsit.row(k).mnl, body_mnl, ov)
            } else {
                si_nsit.row(k).mnl == *body_mnl
            };
            if !equal {
                // Intersect the local copy in place.
                if overlaid {
                    si_nsit
                        .row_mut(k)
                        .mnl
                        .remove_where(|t| ov.get(t.node) == Some(t.ts) || !body_mnl.contains(t));
                } else {
                    si_nsit.row_mut(k).mnl.intersect(body_mnl);
                }
            }
        } else if local_ts < msg_ts {
            // Lines 15-16: the fresher copy no longer lists k's own request
            // that the stale copy still carries ⇒ that request finished;
            // purge it everywhere locally.
            if let Some(own) = si_nsit.row(k).mnl.tuple_of(k) {
                if !body_msit.row(k).mnl.contains(&own) {
                    si_nsit.delete_everywhere(&own);
                }
            }
            // Lines 19-20: adopt the fresher row wholesale, minus any
            // tuples the overlay proved finished. The paper also drops
            // already-ordered tuples here; the final normalization pass
            // below scrubs every NONL member out of every local MNL, and
            // nothing reads the SI between this loop and that pass, so the
            // explicit prune is elided on this side.
            let dst = si_nsit.row_mut(k);
            dst.ts = msg_ts;
            dst.mnl.assign_from(&body_msit.row(k).mnl);
            if ov_mask & dst.mnl.nodes_mask() != 0 {
                dst.mnl.remove_where(|t| ov.get(t.node) == Some(t.ts));
            }
            out.rows_adopted += 1;
        } else {
            // Mirror of lines 17-18: the local fresher copy proves k's own
            // request finished. The paper purges it from the message
            // table; later iterations of this loop adopt message rows into
            // `si`, so that purge decides what the receiver merges (and its
            // zombie count) and cannot be skipped. The message is dropped
            // after the call, so instead of purging row by row — which
            // would clone the whole copy-on-write table just to edit a copy
            // nobody keeps — the tuple is recorded in an overlay that every
            // later *read* of a message row filters through. Each loop
            // index can contribute at most one overlay tuple (its own), so
            // the per-node map is exact, and rows the overlay mask misses
            // read raw.
            if let Some(own) = body_msit.row(k).mnl.tuple_of(k) {
                if !si_nsit.row(k).mnl.contains(&own) {
                    ov.set(own.node, own.ts);
                    ov_mask |= crate::mnl::node_bit(own.node);
                }
            }
        }
    }
}

/// Whether `si_mnl` equals `body_mnl` with every overlay member (a tuple
/// proven finished) filtered out of the message side — i.e. the compare the
/// row merge would have made had the message table actually been purged.
fn eq_without(si_mnl: &Mnl, body_mnl: &Mnl, ov: &crate::scratch::NodeTsMap) -> bool {
    let mut it = si_mnl.iter();
    for t in body_mnl.iter() {
        if ov.get(t.node) == Some(t.ts) {
            continue;
        }
        if it.next() != Some(t) {
            return false;
        }
    }
    it.next().is_none()
}

/// Scrubs the ordered-list suffix `list[from..]` out of every row of
/// `table` in one batched sweep.
///
/// Equivalent to `for t in list.iter().skip(from) { table.delete_everywhere(t) }`
/// — per-row `retain` order is preserved and the removal set is identical —
/// but walks the table once instead of once per suffix tuple, turning the
/// cost from O(suffix × N) row visits into O(N). The map-based probe needs
/// one entry per node; a duplicate-node suffix (corrupt state) falls back
/// to the exact per-tuple walk.
fn scrub_suffix(table: &mut Nsit, list: &Nonl, from: usize, map: &mut NodeTsMap, n: usize) {
    map.begin(n);
    let mut unique = true;
    let mut any = false;
    let mut suffix_mask = 0u64;
    for t in list.iter().skip(from) {
        unique &= map.set(t.node, t.ts);
        suffix_mask |= crate::mnl::node_bit(t.node);
        any = true;
    }
    if !any {
        return;
    }
    if unique {
        // The suffix is short (orderings learned since the other side's
        // snapshot), so its node mask filters out almost every row without
        // touching the row's backing allocation. A clear intersection
        // proves the row holds no suffix-node tuple at all. A read-only
        // prescan finds the first row that loses a tuple, so a suffix no
        // row holds leaves a shared table shared.
        let in_suffix = |t: &ReqTuple| map.get(t.node) == Some(t.ts);
        let Some(first) = table.iter().position(|(_, row)| {
            row.mnl.nodes_mask() & suffix_mask != 0 && row.mnl.iter().any(|t| in_suffix(&t))
        }) else {
            return;
        };
        for row in table.rows_mut().skip(first) {
            if row.mnl.nodes_mask() & suffix_mask != 0 {
                row.mnl.remove_where(in_suffix);
            }
        }
    } else {
        for t in list.iter().skip(from).copied().collect::<Vec<_>>() {
            table.delete_everywhere(&t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgBody;
    use crate::nonl::Nonl;
    use crate::nsit::Nsit;
    use rcv_simnet::NodeId;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    fn nid(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn body(n: usize) -> MsgBody {
        MsgBody {
            monl: Nonl::new(),
            msit: Nsit::new(n),
        }
    }

    #[test]
    fn fresher_message_row_is_adopted() {
        let mut si = Si::new(3);
        let mut b = body(3);
        b.msit.row_mut(nid(1)).ts = 4;
        b.msit.row_mut(nid(1)).mnl.push(t(2, 1));
        let out = exchange(&mut si, &mut b, None);
        assert_eq!(out.rows_adopted, 1);
        assert_eq!(si.nsit.row(nid(1)).ts, 4);
        assert!(si.nsit.row(nid(1)).mnl.contains(&t(2, 1)));
    }

    #[test]
    fn equal_version_rows_intersect() {
        // Both sides hold version 3 of row 1, but each has deleted a
        // different (ordered) tuple. The merge must apply both deletions.
        let mut si = Si::new(3);
        si.nsit.row_mut(nid(1)).ts = 3;
        si.nsit.row_mut(nid(1)).mnl.push(t(0, 1));
        si.nsit.row_mut(nid(1)).mnl.push(t(2, 1));
        let mut b = body(3);
        b.msit.row_mut(nid(1)).ts = 3;
        b.msit.row_mut(nid(1)).mnl.push(t(2, 1));
        b.msit.row_mut(nid(1)).mnl.push(t(1, 9));
        // Local lacks <1,9>; message lacks <0,1>. Intersection = {<2,1>}.
        exchange(&mut si, &mut b, None);
        let local: Vec<_> = si.nsit.row(nid(1)).mnl.iter().collect();
        assert_eq!(local, vec![t(2, 1)]);
    }

    #[test]
    fn longer_monl_is_adopted_and_tuples_leave_mnls() {
        let mut si = Si::new(3);
        // Local MNLs still carry <0,1> as a pending vote.
        si.nsit.row_mut(nid(2)).mnl.push(t(0, 1));
        let mut b = body(3);
        b.monl.append(t(0, 1));
        let out = exchange(&mut si, &mut b, None);
        assert!(out.adopted_monl);
        assert!(si.nonl.contains(&t(0, 1)));
        assert!(
            !si.nsit.contains_anywhere(&t(0, 1)),
            "ordered tuple must stop voting"
        );
    }

    #[test]
    fn scrub_of_a_suffix_no_row_holds_keeps_the_table_shared() {
        let mut table = Nsit::new(3);
        table.row_mut(nid(1)).mnl.push(t(2, 1));
        let snapshot = table.clone();
        // <2,5> shares node 2's mask bit with the listed <2,1>, so only the
        // prescan of row 1's contents proves nothing is to be removed.
        let list: Nonl = [t(0, 1), t(2, 5)].into_iter().collect();
        MERGE_SCRATCH.with(|c| scrub_suffix(&mut table, &list, 1, &mut c.borrow_mut().b, 3));
        assert!(
            table.same_backing(&snapshot),
            "no-op scrub must not unshare"
        );
        // A suffix some row holds is scrubbed from the table, not the snapshot.
        let list: Nonl = [t(2, 1)].into_iter().collect();
        MERGE_SCRATCH.with(|c| scrub_suffix(&mut table, &list, 0, &mut c.borrow_mut().b, 3));
        assert!(!table.contains_anywhere(&t(2, 1)));
        assert!(snapshot.contains_anywhere(&t(2, 1)));
    }

    #[test]
    fn completed_request_is_pruned_from_monl() {
        // Receiver knows <1,1> completed: row 1 is at version 3 (>= 1) and
        // lists nothing; the message still carries <1,1> as ordered.
        let mut si = Si::new(3);
        si.nsit.row_mut(nid(1)).ts = 3;
        let mut b = body(3);
        b.monl.append(t(1, 1));
        b.monl.append(t(2, 2));
        b.msit.row_mut(nid(2)).ts = 2;
        b.msit.row_mut(nid(2)).mnl.push(t(2, 2)); // hmm: <2,2> must still look pending
        let out = exchange(&mut si, &mut b, None);
        assert_eq!(out.monl_pruned, 1);
        assert!(
            !si.nonl.contains(&t(1, 1)),
            "completed tuple must not be resurrected"
        );
        assert!(
            si.nonl.contains(&t(2, 2)),
            "still-pending ordered tuple must survive"
        );
    }

    #[test]
    fn local_nonl_pruned_by_fresher_message() {
        // Local still believes <1,1> is ordered-pending; the message has a
        // fresher row 1 (version 5) with no trace of it and no MONL entry.
        let mut si = Si::new(3);
        si.nonl.append(t(1, 1));
        si.nsit.row_mut(nid(1)).ts = 2;
        let mut b = body(3);
        b.msit.row_mut(nid(1)).ts = 5;
        let out = exchange(&mut si, &mut b, None);
        assert_eq!(out.nonl_pruned, 1);
        assert!(si.nonl.is_empty());
    }

    #[test]
    fn em_drops_predecessors() {
        let my_req = t(2, 1);
        let mut si = Si::new(3);
        si.nonl.append(t(0, 1));
        si.nonl.append(my_req);
        let mut b = body(3);
        b.monl.append(t(0, 1));
        b.monl.append(my_req);
        exchange(&mut si, &mut b, Some(&my_req));
        assert_eq!(si.nonl.head(), Some(my_req));
    }

    #[test]
    fn own_tuple_absent_from_fresher_row_purges_everywhere() {
        // Paper lines 15-16: local row 1 (stale) still lists node 1's own
        // request; the fresher copy does not ⇒ it finished; it must leave
        // *all* local rows.
        let own = t(1, 1);
        let mut si = Si::new(3);
        si.nsit.row_mut(nid(1)).ts = 1;
        si.nsit.row_mut(nid(1)).mnl.push(own);
        si.nsit.row_mut(nid(2)).mnl.push(own); // echo in another row
        let mut b = body(3);
        b.msit.row_mut(nid(1)).ts = 4;
        exchange(&mut si, &mut b, None);
        assert!(!si.nsit.contains_anywhere(&own));
    }

    #[test]
    fn zombie_in_fresh_third_party_row_is_purged() {
        // Receiver knows <1,1> completed (row 1 fresh & empty). A *fresher
        // copy of row 2* still carries <1,1>. Without the repair it would be
        // adopted and vote for a finished request.
        let zombie = t(1, 1);
        let mut si = Si::new(3);
        si.nsit.row_mut(nid(1)).ts = 5;
        let mut b = body(3);
        b.msit.row_mut(nid(2)).ts = 2;
        b.msit.row_mut(nid(2)).mnl.push(zombie);
        let out = exchange(&mut si, &mut b, None);
        assert_eq!(out.zombies_purged, 1);
        assert!(!si.nsit.contains_anywhere(&zombie));
    }

    #[test]
    fn exchange_is_idempotent() {
        let mut si = Si::new(4);
        si.nsit.row_mut(nid(0)).ts = 2;
        si.nsit.row_mut(nid(0)).mnl.push(t(0, 2));
        let mut b = body(4);
        b.monl.append(t(3, 1));
        b.msit.row_mut(nid(3)).ts = 3;
        b.msit.row_mut(nid(1)).ts = 1;
        b.msit.row_mut(nid(1)).mnl.push(t(1, 1));
        exchange(&mut si, &mut b.clone(), None);
        let si_once = si.clone();
        // Re-apply the *original* message: nothing new may change.
        let mut b2 = b.clone();
        exchange(&mut si, &mut b2, None);
        assert_eq!(
            si, si_once,
            "re-delivering the same message must be a no-op"
        );
    }

    #[test]
    fn inconsistent_monl_is_flagged() {
        let mut si = Si::new(3);
        si.nonl.append(t(0, 1));
        si.nonl.append(t(1, 1));
        let mut b = body(3);
        b.monl.append(t(1, 1));
        b.monl.append(t(0, 1)); // reversed order: impossible under Lemma 6
        let out = exchange(&mut si, &mut b, None);
        assert!(out.lemma6_violation);
    }
}
