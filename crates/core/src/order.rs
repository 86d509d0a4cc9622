//! The **Order procedure** (paper §4.2): Relative Consensus Voting.
//!
//! Each non-empty NSIT row casts one vote — its MNL front tuple. Candidates
//! are ranked by `(votes desc, node id asc)`. The leader `TP1` is *ordered*
//! (appended to the NONL, removed from every MNL) iff its lead over the
//! runner-up `TP2` is unassailable:
//!
//! ```text
//! S1 − S2 > N − Σ S_h                      (strictly more votes than all
//!                                           unknown rows could supply), or
//! S1 − S2 = N − Σ S_h  and  TP1.id < TP2.id (worst case is a tie, and the
//!                                           smaller id wins ties)
//! ```
//!
//! `N − Σ S_h` is the number of rows with an empty MNL (every non-empty row
//! votes for exactly one tuple). The loop repeats — several requests can be
//! ordered in one invocation — and, following the paper (line 17), stops as
//! soon as the *home* request of the RM being processed gets ordered.
//!
//! `PAPER-AMBIGUITY (sole candidate)`: the paper handles a single-candidate
//! sequence with the cryptic "S2 = 0, S2.NodeID = 1". We read it
//! conservatively: the phantom runner-up has zero votes but *wins ties*, so
//! a sole candidate is ordered iff `S1 > N − S1` — its votes strictly exceed
//! the unknowns. This yields the paper's light-load behaviour (ordering
//! after ~⌊N/2⌋ hops; our exact count is within one hop of the paper's
//! `[N/2]+1`, see README § "Experiment index", AN1).

use crate::si::Si;
use crate::tuple::ReqTuple;

/// Result of one Order invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OrderOutcome {
    /// Whether the home request is now ordered (possibly from a previous
    /// invocation at another node — paper lines 3-7).
    pub home_ordered: bool,
    /// Whether the home request sits at the head of the NONL, i.e. it may
    /// enter the CS immediately (`Highest_Priority`).
    pub highest_priority: bool,
    /// Requests ordered *by this invocation*, in order.
    pub newly_ordered: Vec<ReqTuple>,
}

/// One ranking round: the leader, its votes, the runner-up's votes and id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ranking {
    leader: ReqTuple,
    s1: usize,
    s2: usize,
    runner_id: Option<rcv_simnet::NodeId>,
    /// Total votes cast (= number of non-empty rows); the paper's
    /// `N − Σ S_h` unknown count is `n − votes_total`, saving a second
    /// table scan per round.
    votes_total: usize,
}

/// Builds the ranked candidate sequence `{TP_h}` from the current votes
/// by counting and sorting — the straight-line form, used by
/// [`order_loop_reference`] (two distinct tuples of one node can vote here,
/// so votes are counted per tuple, not per node).
fn rank_slow(si: &Si) -> Option<Ranking> {
    // (tuple, votes); insertion keeps this deterministic.
    let mut counts: Vec<(ReqTuple, usize)> = Vec::new();
    let mut votes_total = 0;
    for vote in si.nsit.votes() {
        votes_total += 1;
        match counts.iter_mut().find(|(t, _)| *t == vote) {
            Some((_, c)) => *c += 1,
            None => counts.push((vote, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.node.cmp(&b.0.node)));
    let (leader, s1) = *counts.first()?;
    let runner = counts.get(1);
    Some(Ranking {
        leader,
        s1,
        s2: runner.map_or(0, |r| r.1),
        runner_id: runner.map(|r| r.0.node),
        votes_total,
    })
}

/// Whether the current leader's lead is unassailable under RCV.
fn orderable(r: &Ranking, unknowns: usize) -> bool {
    let lead = r.s1 - r.s2;
    if lead > unknowns {
        return true;
    }
    if lead == unknowns {
        // Tie case: smaller node id wins. A sole candidate faces the
        // conservative phantom that wins ties (see module docs).
        return match r.runner_id {
            Some(runner) => r.leader.node < runner,
            None => false,
        };
    }
    false
}

/// Runs the Order procedure for the request `home` against `si`.
pub fn order(si: &mut Si, home: ReqTuple) -> OrderOutcome {
    let _p = rcv_simnet::profile::probe(rcv_simnet::profile::ProbePhase::Order);
    let mut out = OrderOutcome::default();

    if si.nonl.contains(&home) {
        // Already ordered while some other node processed a different RM
        // (paper lines 3-7). Normalize: it must not keep voting.
        si.nsit.delete_everywhere(&home);
        out.home_ordered = true;
    } else {
        order_loop(si, home, &mut out);
    }

    out.highest_priority = out.home_ordered && si.nonl.head() == Some(home);
    out
}

/// Per-candidate vote slot for the incremental ordering loop.
#[derive(Clone, Copy)]
struct Slot {
    ts: u64,
    count: u32,
    listed: bool,
}

thread_local! {
    /// Reused vote-slot and candidate-list buffers: `order` runs once per
    /// delivered message, and a fresh `vec![Slot; N]` per call was a
    /// measurable slice of the per-event cost at N = 1000.
    static ORDER_SCRATCH: std::cell::RefCell<(Vec<Slot>, Vec<u32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The ordering loop with incremental vote maintenance: one full vote scan
/// seeds per-node counts, and each round's removal sweep reports exactly
/// which rows changed their front (only those rows' votes can change), so
/// later rounds re-rank over the candidate set instead of re-scanning the
/// whole table. Falls back to the reference rank-per-round loop the
/// moment two voting tuples share a node (corrupt states only); the
/// reference recomputes everything from the current SI each round, so
/// switching mid-call is seamless.
fn order_loop(si: &mut Si, home: ReqTuple, out: &mut OrderOutcome) {
    ORDER_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let (slots, candidates) = (&mut scratch.0, &mut scratch.1);
        order_loop_inner(si, home, out, slots, candidates);
    });
}

/// The loop body, over caller-provided scratch buffers.
fn order_loop_inner(
    si: &mut Si,
    home: ReqTuple,
    out: &mut OrderOutcome,
    slots: &mut Vec<Slot>,
    candidates: &mut Vec<u32>,
) {
    let n = si.nsit.n();
    slots.clear();
    slots.resize(
        n,
        Slot {
            ts: 0,
            count: 0,
            listed: false,
        },
    );
    candidates.clear();
    let mut votes_total: usize = 0;
    let mut degraded = false;
    for vote in si.nsit.votes() {
        votes_total += 1;
        let slot = &mut slots[vote.node.index()];
        if slot.count == 0 {
            slot.ts = vote.ts;
            slot.count = 1;
            slot.listed = true;
            candidates.push(vote.node.index() as u32);
        } else if slot.ts == vote.ts {
            slot.count += 1;
        } else {
            degraded = true;
            break;
        }
    }
    if degraded {
        return order_loop_reference(si, home, out);
    }
    loop {
        // Top-2 by (votes desc, node asc) — a total comparator, so scan
        // order over the candidate set cannot change the outcome.
        let mut best: Option<(u32, u64, u32)> = None;
        let mut second: Option<(u32, u32)> = None;
        for &j in candidates.iter() {
            let s = slots[j as usize];
            if s.count == 0 {
                continue;
            }
            match best {
                None => best = Some((j, s.ts, s.count)),
                Some(b) if s.count > b.2 || (s.count == b.2 && j < b.0) => {
                    second = Some((b.0, b.2));
                    best = Some((j, s.ts, s.count));
                }
                _ => match second {
                    Some(r) if s.count < r.1 || (s.count == r.1 && j > r.0) => {}
                    _ => second = Some((j, s.count)),
                },
            }
        }
        let Some((bj, bts, s1)) = best else { break };
        let r = Ranking {
            leader: ReqTuple::new(rcv_simnet::NodeId::new(bj), bts),
            s1: s1 as usize,
            s2: second.map_or(0, |x| x.1 as usize),
            runner_id: second.map(|x| rcv_simnet::NodeId::new(x.0)),
            votes_total,
        };
        if !orderable(&r, n - votes_total) {
            break;
        }
        si.nonl.append(r.leader);
        out.newly_ordered.push(r.leader);
        slots[bj as usize].count = 0;
        // Remove the leader from every row — semantically exactly
        // `si.nsit.delete_everywhere(&r.leader)` — while updating the vote
        // counts of rows whose front changed.
        for row in si.nsit.rows_mut() {
            // Mask filter: a clear bit proves the row cannot hold the
            // leader's tuple, skipping the row without a deref.
            if !row.mnl.may_contain_node(r.leader.node) {
                continue;
            }
            let was_front = row.mnl.top() == Some(r.leader);
            if !row.mnl.remove(&r.leader) || !was_front {
                continue;
            }
            match row.mnl.top() {
                None => votes_total -= 1,
                Some(f) => {
                    let slot = &mut slots[f.node.index()];
                    if slot.count == 0 {
                        slot.ts = f.ts;
                        slot.count = 1;
                        if !slot.listed {
                            slot.listed = true;
                            candidates.push(f.node.index() as u32);
                        }
                    } else if slot.ts == f.ts {
                        slot.count += 1;
                    } else {
                        degraded = true;
                    }
                }
            }
        }
        if r.leader == home {
            out.home_ordered = true;
            break; // paper line 17: Continue = false
        }
        if degraded {
            return order_loop_reference(si, home, out);
        }
    }
}

/// The reference ordering loop: re-rank from the live SI every round.
fn order_loop_reference(si: &mut Si, home: ReqTuple, out: &mut OrderOutcome) {
    let n = si.nsit.n();
    while let Some(r) = rank_slow(si) {
        // Every non-empty row casts exactly one vote, so the unknown
        // count (rows with empty MNLs) falls out of the rank pass.
        let unknowns = n - r.votes_total;
        if !orderable(&r, unknowns) {
            break;
        }
        si.nonl.append(r.leader);
        si.nsit.delete_everywhere(&r.leader);
        out.newly_ordered.push(r.leader);
        if r.leader == home {
            out.home_ordered = true;
            break; // paper line 17: Continue = false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_simnet::NodeId;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    fn nid(n: u32) -> NodeId {
        NodeId::new(n)
    }

    /// Builds an SI whose row `r` has the given MNL contents.
    fn si_with_rows(n: usize, rows: &[(u32, &[ReqTuple])]) -> Si {
        let mut si = Si::new(n);
        for &(r, tuples) in rows {
            for &tp in tuples {
                si.nsit.row_mut(nid(r)).mnl.push(tp);
            }
            si.nsit.row_mut(nid(r)).ts = 1;
        }
        si
    }

    #[test]
    fn sole_candidate_needs_strict_majority_of_rows() {
        // N = 4; home tops 2 rows, 2 rows empty: 2 > 2 fails ⇒ not ordered.
        let home = t(3, 1);
        let mut si = si_with_rows(4, &[(0, &[home]), (1, &[home])]);
        let out = order(&mut si, home);
        assert!(!out.home_ordered);
        // Third row fills in: 3 > 1 ⇒ ordered with highest priority.
        si.nsit.row_mut(nid(2)).mnl.push(home);
        let out = order(&mut si, home);
        assert!(out.home_ordered);
        assert!(out.highest_priority);
        assert_eq!(out.newly_ordered, vec![home]);
        assert!(!si.nsit.contains_anywhere(&home));
    }

    #[test]
    fn lead_must_strictly_exceed_unknowns() {
        // N = 5: A tops 3 rows, B tops 1, one row empty.
        // lead = 2 > 1 unknown ⇒ A ordered; B then has 1 vote vs
        // 1 unknown + empty rows... B: S1=1, unknowns=4 ⇒ not ordered.
        let a = t(0, 1);
        let b = t(1, 1);
        let mut si = si_with_rows(5, &[(0, &[a, b]), (1, &[a]), (2, &[a]), (3, &[b])]);
        let out = order(&mut si, a);
        assert!(out.home_ordered);
        assert_eq!(out.newly_ordered, vec![a]);
        assert!(!si.nonl.contains(&b));
        assert!(
            si.nsit.contains_anywhere(&b),
            "loser keeps its pending votes"
        );
    }

    #[test]
    fn tie_breaks_by_smaller_node_id() {
        // N = 4: A (node 0) tops 2 rows, B (node 1) tops 2 rows, no empties.
        // lead = 0 == unknowns = 0 and 0 < 1 ⇒ A ordered.
        let a = t(0, 1);
        let b = t(1, 1);
        let mut si = si_with_rows(4, &[(0, &[a, b]), (1, &[a, b]), (2, &[b, a]), (3, &[b, a])]);
        let out = order(&mut si, a);
        assert!(out.home_ordered);
        assert_eq!(si.nonl.head(), Some(a));
    }

    #[test]
    fn tie_with_larger_id_is_not_ordered() {
        // Same votes, but home is the *larger* id: B cannot be ordered while
        // A ties it... and A also can't be ordered as home=B stops nothing:
        // the loop orders A first, then B's lead becomes unassailable.
        let a = t(0, 1);
        let b = t(1, 1);
        let mut si = si_with_rows(4, &[(0, &[a, b]), (1, &[a, b]), (2, &[b, a]), (3, &[b, a])]);
        let out = order(&mut si, b);
        // A ordered first (side effect), then B tops all 4 rows: ordered.
        assert!(out.home_ordered);
        assert_eq!(out.newly_ordered, vec![a, b]);
        assert_eq!(si.nonl.head(), Some(a));
        assert!(!out.highest_priority);
    }

    #[test]
    fn cascade_orders_several_then_stops_at_home() {
        // A unassailable, then B, then home C; D must stay unordered even if
        // orderable, because the loop stops at home (paper line 17).
        let a = t(0, 1);
        let b = t(1, 1);
        let c = t(2, 1);
        let d = t(3, 1);
        let mut si = si_with_rows(
            4,
            &[
                (0, &[a, b, c, d]),
                (1, &[a, b, c, d]),
                (2, &[a, b, c, d]),
                (3, &[a, b, c, d]),
            ],
        );
        let out = order(&mut si, c);
        assert_eq!(out.newly_ordered, vec![a, b, c]);
        assert!(out.home_ordered);
        assert!(!out.highest_priority);
        assert!(
            si.nsit.contains_anywhere(&d),
            "loop must stop once home is ordered"
        );
        assert_eq!(si.nonl.predecessor_of(&c), Some(b));
    }

    #[test]
    fn already_ordered_home_short_circuits() {
        let home = t(2, 1);
        let mut si = Si::new(3);
        si.nonl.append(t(0, 1));
        si.nonl.append(home);
        // A stale vote for home somewhere must be normalized away.
        si.nsit.row_mut(nid(1)).mnl.push(home);
        let out = order(&mut si, home);
        assert!(out.home_ordered);
        assert!(out.newly_ordered.is_empty());
        assert!(!out.highest_priority, "a predecessor is still pending");
        assert!(!si.nsit.contains_anywhere(&home));
    }

    #[test]
    fn empty_table_orders_nothing() {
        let mut si = Si::new(3);
        let out = order(&mut si, t(0, 1));
        assert!(!out.home_ordered);
        assert!(out.newly_ordered.is_empty());
    }

    #[test]
    fn full_knowledge_always_orders() {
        // Lemma 2/3 core: when no row is empty, the loop can always order,
        // so the home request ordered after at most |tuples| rounds.
        let reqs: Vec<ReqTuple> = (0..6).map(|i| t(i, 1)).collect();
        let mut si = Si::new(6);
        // Every row contains every tuple, each row rotated differently.
        for r in 0..6u32 {
            for k in 0..6usize {
                let tp = reqs[(k + r as usize) % 6];
                si.nsit.row_mut(nid(r)).mnl.push(tp);
            }
            si.nsit.row_mut(nid(r)).ts = 1;
        }
        let home = reqs[5];
        let out = order(&mut si, home);
        assert!(
            out.home_ordered,
            "no-unknowns table must order the home request"
        );
    }

    #[test]
    fn third_candidate_cannot_overtake() {
        // N = 6: A=3 votes (node 2), B=2 votes (node 0), C=1 vote (node 1),
        // no empties. lead(A over B) = 1 > 0 ⇒ A ordered even though C has
        // the smallest id — only TP2 matters, C's potential is below A.
        let a = t(2, 1);
        let b = t(0, 1);
        let c = t(1, 1);
        let mut si = si_with_rows(
            6,
            &[
                (0, &[a]),
                (1, &[a]),
                (2, &[a]),
                (3, &[b]),
                (4, &[b]),
                (5, &[c]),
            ],
        );
        let out = order(&mut si, a);
        assert!(out.home_ordered);
        assert_eq!(out.newly_ordered, vec![a]);
    }
}
