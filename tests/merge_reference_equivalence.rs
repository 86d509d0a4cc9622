//! Property test: the shipped Exchange/normalize pipeline (epoch-stamped
//! scratch maps, batched suffix scrub, finished-tuple overlay, the dense
//! facts-then-decisions normalization, receive-side body skips) is
//! **observably identical** to a retained reference that runs the paper's
//! merge the slow way — exact linear membership probes and an
//! unconditional full-table scrub + purge after every merge.
//!
//! The reference below is a line-for-line port of the pre-optimization
//! `exchange` (public API only, no scratch state). For arbitrary generated
//! SI states and message bodies — including chained deliveries, so the
//! second merge starts from a state the first one normalized — we require:
//!
//! * identical post-`Si` (value equality; sharing structure is excluded
//!   from `Eq` by design),
//! * identical [`ExchangeOutcome`] (prune counts, adoption flags, zombie
//!   count, Lemma-6 anomaly flag).
//!
//! The reference also refreshes the message body, as the paper's
//! bidirectional procedure does; the shipped `exchange` is receive-side
//! only (every handler drops the message after the call), so the bodies
//! are not compared.
//!
//! Generated states satisfy the invariants the shipped algorithms maintain
//! (Lemma 1: one tuple per node per MNL; one NONL entry per node) — the
//! documented regime of the optimized probes. Ordered-list *order* is
//! unconstrained, so Lemma-6 fallback paths are exercised too. The
//! normalization alone is checked on larger and invariant-breaking states
//! by `tests/normalize_reference_equivalence.rs`.

use proptest::prelude::*;
use rcv_core::{exchange, ExchangeOutcome, MsgBody, ReqTuple, Si};
use rcv_simnet::NodeId;

/// Upper bound on the generated system size; actual `n` is drawn below it
/// and oversized shapes are clamped in the test body (the offline proptest
/// stub has no `prop_flat_map`, so shapes can't depend on a drawn `n`).
const MAX_N: usize = 7;

/// The pre-optimization Exchange, retained verbatim as the oracle.
fn exchange_reference(
    si: &mut Si,
    body: &mut MsgBody,
    em_for: Option<&ReqTuple>,
) -> ExchangeOutcome {
    let mut out = ExchangeOutcome::default();

    if body.monl != si.nonl {
        // Lines 1-2: prune from MONL requests the receiver knows completed.
        if let Some(last) = body
            .monl
            .iter()
            .rev()
            .find(|a| !si.nonl.contains(a) && si.knows_completed(a))
            .copied()
        {
            out.monl_pruned = body.monl.remove_through(&last);
        }
        // Lines 3-4: symmetric prune of the local NONL.
        if let Some(last) = si
            .nonl
            .iter()
            .rev()
            .find(|b| {
                let row = body.msit.row(b.node);
                !body.monl.contains(b) && row.ts >= b.ts && !row.mnl.contains(b)
            })
            .copied()
        {
            out.nonl_pruned = si.nonl.remove_through(&last);
        }
    }

    // EM cleanup: the granted request's predecessors have all finished.
    if let Some(t) = em_for {
        body.monl.remove_predecessors_of(t);
        si.nonl.remove_predecessors_of(t);
    }

    // Lines 5-12: merge the ordered lists; the longer one wins.
    if !body.monl.prefix_consistent_with(&si.nonl) {
        out.lemma6_violation = true;
        let missing: Vec<ReqTuple> = body.monl.difference(&si.nonl).copied().collect();
        for t in missing {
            si.nsit.delete_everywhere(&t);
            si.nonl.append(t);
        }
    } else if body.monl.len() > si.nonl.len() {
        for t in body.monl.iter().skip(si.nonl.len()) {
            si.nsit.delete_everywhere(t);
        }
        si.nonl.assign_from(&body.monl);
        out.adopted_monl = true;
    } else if si.nonl.len() > body.monl.len() {
        for t in si.nonl.iter().skip(body.monl.len()) {
            body.msit.delete_everywhere(t);
        }
        body.monl.assign_from(&si.nonl);
    }

    // Lines 13-22: row-wise NSIT reconciliation.
    let n = si.n();
    for k in NodeId::all(n) {
        let local_ts = si.nsit.row(k).ts;
        let msg_ts = body.msit.row(k).ts;
        if local_ts == msg_ts {
            // Equal version => same append-set; apply both deletion sets.
            if si.nsit.row(k).mnl != body.msit.row(k).mnl {
                let other = body.msit.row(k).mnl.clone();
                si.nsit.row_mut(k).mnl.intersect(&other);
                let mine = si.nsit.row(k).mnl.clone();
                body.msit.row_mut(k).mnl.assign_from(&mine);
            }
        } else if local_ts < msg_ts {
            // Lines 15-16: the fresher copy dropped k's own request.
            if let Some(own) = si.nsit.row(k).mnl.tuple_of(k) {
                if !body.msit.row(k).mnl.contains(&own) {
                    si.nsit.delete_everywhere(&own);
                }
            }
            // Lines 19-20: adopt the fresher row wholesale.
            let src = body.msit.row(k).mnl.clone();
            let dst = si.nsit.row_mut(k);
            dst.ts = msg_ts;
            dst.mnl.assign_from(&src);
            out.rows_adopted += 1;
        } else {
            // Mirror of lines 17-18 + 19-20 in the other direction.
            if let Some(own) = body.msit.row(k).mnl.tuple_of(k) {
                if !si.nsit.row(k).mnl.contains(&own) {
                    body.msit.delete_everywhere(&own);
                }
            }
            let src = si.nsit.row(k).mnl.clone();
            let monl = body.monl.clone();
            let dst = body.msit.row_mut(k);
            dst.ts = local_ts;
            dst.mnl.assign_from(&src);
            dst.mnl.remove_where(|t| monl.contains(t));
        }
    }

    // Normalization, the slow way: unconditional full-table scrub of NONL
    // members, then the exact completion-evidence purge.
    si.scrub_ordered_from_mnls();
    out.zombies_purged = si.purge_completed().len();
    out
}

fn tuple(node: u32, ts: u64) -> ReqTuple {
    ReqTuple::new(NodeId::new(node), ts)
}

/// A list of tuples with at most one entry per node, arbitrary order and
/// arbitrary (small) timestamps. Small ranges force collisions: equal-ts
/// rows, shared tuples, stale echoes.
fn arb_tuples(n: usize, max_len: usize) -> impl Strategy<Value = Vec<ReqTuple>> {
    proptest::collection::vec((0..n as u32, 1u64..6), 0..=max_len).prop_map(|raw| {
        let mut seen: Vec<u32> = Vec::new();
        let mut out: Vec<ReqTuple> = Vec::new();
        for (node, ts) in raw {
            if !seen.contains(&node) {
                seen.push(node);
                out.push(tuple(node, ts));
            }
        }
        out
    })
}

/// An arbitrary SI-shaped (nonl, nsit) pair sized for [`MAX_N`] nodes;
/// the test clamps it down to the drawn system size.
fn arb_state() -> impl Strategy<Value = (Vec<ReqTuple>, Vec<(u64, Vec<ReqTuple>)>)> {
    (
        arb_tuples(MAX_N, 4),
        proptest::collection::vec((0u64..6, arb_tuples(MAX_N, 4)), MAX_N..=MAX_N),
    )
}

fn build_si(n: usize, nonl: &[ReqTuple], rows: &[(u64, Vec<ReqTuple>)]) -> Si {
    let mut si = Si::new(n);
    for t in nonl {
        si.nonl.append(*t);
    }
    for (k, (ts, mnl)) in rows.iter().enumerate() {
        let row = si.nsit.row_mut(NodeId::new(k as u32));
        row.ts = *ts;
        for t in mnl {
            row.mnl.push(*t);
        }
    }
    si
}

fn build_body(n: usize, monl: &[ReqTuple], rows: &[(u64, Vec<ReqTuple>)]) -> MsgBody {
    let si = build_si(n, monl, rows);
    MsgBody {
        monl: si.nonl,
        msit: si.nsit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Two chained deliveries against arbitrary states: the optimized
    /// pipeline and the reference must agree on everything observable
    /// after each merge. The second delivery runs against the state the
    /// first one left behind, not a freshly built one.
    #[test]
    fn incremental_merge_matches_reference(
        n in 2usize..7,
        state in arb_state(),
        msg1 in arb_state(),
        msg2 in arb_state(),
        // (index, which-message); an out-of-range index means "no EM grant".
        em_pick in (0usize..8usize, 0usize..2usize),
    ) {
        // Clamp generated shapes to the common system size.
        let clamp = |v: &[ReqTuple]| -> Vec<ReqTuple> {
            v.iter().filter(|t| t.node.index() < n).copied().collect()
        };
        let clamp_rows = |rows: &[(u64, Vec<ReqTuple>)]| -> Vec<(u64, Vec<ReqTuple>)> {
            (0..n)
                .map(|k| {
                    rows.get(k)
                        .map(|(ts, mnl)| (*ts, clamp(mnl)))
                        .unwrap_or((0, Vec::new()))
                })
                .collect()
        };
        let si0 = build_si(n, &clamp(&state.0), &clamp_rows(&state.1));
        let bodies = [
            build_body(n, &clamp(&msg1.0), &clamp_rows(&msg1.1)),
            build_body(n, &clamp(&msg2.0), &clamp_rows(&msg2.1)),
        ];
        // An EM grant for a tuple drawn from one of the message MONLs (the
        // only place the protocol produces one from).
        let (em_i, em_which) = em_pick;
        let em: Option<ReqTuple> = bodies[em_which].monl.iter().nth(em_i).copied();

        let mut si_fast = si0.clone();
        let mut si_ref = si0;

        for (step, body) in bodies.iter().enumerate() {
            let em_for = if step == 0 { em.as_ref() } else { None };

            let out_fast = exchange(&mut si_fast, &mut body.clone(), em_for);
            let out_ref = exchange_reference(&mut si_ref, &mut body.clone(), em_for);

            prop_assert_eq!(&out_fast, &out_ref, "outcome diverged at step {}", step);
            prop_assert_eq!(&si_fast, &si_ref, "post-SI diverged at step {}", step);
        }
    }
}
