//! Property-based tests (proptest) for the RCV data structures and the
//! Order/Exchange procedures.

use proptest::collection::vec;
use proptest::prelude::*;
use rcv_core::{exchange, order, Mnl, MsgBody, Nonl, Nsit, ReqTuple, Si};
use rcv_simnet::NodeId;

fn arb_tuple(max_nodes: u32) -> impl Strategy<Value = ReqTuple> {
    (0..max_nodes, 1u64..6).prop_map(|(n, ts)| ReqTuple::new(NodeId::new(n), ts))
}

proptest! {
    /// Lemma 1 by construction: no matter what sequence of pushes and
    /// removals, an MNL never holds two tuples of one node.
    #[test]
    fn mnl_one_tuple_per_node(ops in vec((arb_tuple(6), any::<bool>()), 0..60)) {
        let mut mnl = Mnl::new();
        for (t, push) in ops {
            if push {
                mnl.push(t);
            } else {
                mnl.remove_node(t.node);
            }
            prop_assert!(mnl.invariant_one_per_node());
            prop_assert!(mnl.len() <= 6);
        }
    }

    /// A push is visible unless an equal-or-newer tuple of the same node
    /// was already present.
    #[test]
    fn mnl_push_semantics(existing in arb_tuple(4), incoming in arb_tuple(4)) {
        let mut mnl = Mnl::new();
        mnl.push(existing);
        let accepted = mnl.push(incoming);
        if existing.node == incoming.node {
            prop_assert_eq!(accepted, incoming.ts > existing.ts);
            let kept = mnl.tuple_of(existing.node).unwrap();
            prop_assert_eq!(kept.ts, existing.ts.max(incoming.ts));
        } else {
            prop_assert!(accepted);
            prop_assert_eq!(mnl.len(), 2);
        }
    }

    /// Intersection is commutative on contents and only ever removes.
    #[test]
    fn mnl_intersection_shrinks(a in vec(arb_tuple(8), 0..12), b in vec(arb_tuple(8), 0..12)) {
        let ma: Mnl = a.iter().copied().collect();
        let mb: Mnl = b.iter().copied().collect();
        let mut x = ma.clone();
        x.intersect(&mb);
        let mut y = mb.clone();
        y.intersect(&ma);
        prop_assert!(x.len() <= ma.len());
        for t in x.iter() {
            prop_assert!(ma.contains(&t) && mb.contains(&t));
            prop_assert!(y.contains(&t));
        }
        for t in y.iter() {
            prop_assert!(x.contains(&t));
        }
    }

    /// `remove_through` drops exactly the prefix ending at the target.
    #[test]
    fn nonl_remove_through_is_prefix(tuples in vec(arb_tuple(10), 1..10), pick in 0usize..10) {
        let nonl: Nonl = tuples.iter().copied().collect();
        let items: Vec<ReqTuple> = nonl.iter().copied().collect();
        prop_assume!(!items.is_empty());
        let target = items[pick % items.len()];
        let idx = nonl.position(&target).unwrap();
        let mut cut = nonl.clone();
        let removed = cut.remove_through(&target);
        prop_assert_eq!(removed, idx + 1);
        prop_assert_eq!(cut.len(), nonl.len() - idx - 1);
        prop_assert!(!cut.contains(&target));
        // Remaining order unchanged.
        let rest: Vec<ReqTuple> = cut.iter().copied().collect();
        prop_assert_eq!(&rest[..], &items[idx + 1..]);
    }

    /// Prefix consistency is symmetric and reflexive.
    #[test]
    fn nonl_prefix_consistency_laws(a in vec(arb_tuple(6), 0..8)) {
        let na: Nonl = a.iter().copied().collect();
        prop_assert!(na.prefix_consistent_with(&na));
        let mut longer = na.clone();
        longer.append(ReqTuple::new(NodeId::new(99), 1));
        prop_assert!(na.prefix_consistent_with(&longer));
        prop_assert!(longer.prefix_consistent_with(&na));
    }

    /// The Order procedure never orders more tuples than exist, never
    /// leaves an ordered tuple in an MNL, and its NONL appends preserve
    /// all previously ordered entries.
    ///
    /// The system model allows one outstanding request per node, so the
    /// generator draws a single timestamp per node and rows reference that
    /// consistent request set (arbitrary subsets in arbitrary orders).
    #[test]
    fn order_structural_invariants(
        req_ts in vec(1u64..6, 5),
        rows in vec(vec((0u32..5, any::<bool>()), 0..5), 5),
        home_node in 0u32..5,
    ) {
        let home = ReqTuple::new(NodeId::new(home_node), req_ts[home_node as usize]);
        let mut si = Si::new(5);
        for (r, picks) in rows.iter().enumerate() {
            let row = si.nsit.row_mut(NodeId::new(r as u32));
            row.ts = 1;
            for &(node, include) in picks {
                if include {
                    row.mnl.push(ReqTuple::new(NodeId::new(node), req_ts[node as usize]));
                }
            }
        }
        let before: Vec<ReqTuple> = si.nonl.iter().copied().collect();
        let distinct = si.nsit.distinct_tuples().len();
        let out = order(&mut si, home);

        prop_assert!(out.newly_ordered.len() <= distinct);
        for t in si.nonl.iter() {
            prop_assert!(!si.nsit.contains_anywhere(t), "ordered tuple still voting");
        }
        for t in &before {
            prop_assert!(si.nonl.contains(t), "previously ordered tuple lost");
        }
        if out.home_ordered && !si.nonl.is_empty() {
            prop_assert!(si.nonl.contains(&home) || !out.newly_ordered.contains(&home));
        }
        prop_assert!(si.invariants_ok(NodeId::new(0)).is_ok());
    }

    /// Exchange with an empty body is a no-op on a fresh SI, and exchange
    /// never breaks the per-node structural invariants regardless of the
    /// (arbitrary, even non-protocol-reachable) message contents.
    #[test]
    fn exchange_preserves_structural_invariants(
        monl in vec(arb_tuple(4), 0..4),
        row_ts in vec(0u64..5, 4),
        row_tuples in vec(vec(arb_tuple(4), 0..4), 4),
    ) {
        let mut si = Si::new(4);
        si.nsit.row_mut(NodeId::new(0)).ts = 2;
        si.nsit.row_mut(NodeId::new(0)).mnl.push(ReqTuple::new(NodeId::new(0), 2));

        let mut body = MsgBody { monl: Nonl::new(), msit: Nsit::new(4) };
        for t in monl {
            body.monl.append(t);
        }
        for (i, (&ts, tuples)) in row_ts.iter().zip(&row_tuples).enumerate() {
            let row = body.msit.row_mut(NodeId::new(i as u32));
            row.ts = ts;
            for &t in tuples {
                row.mnl.push(t);
            }
        }

        let _ = exchange(&mut si, &mut body, None);
        prop_assert!(si.nsit.invariant_lemma1());
        for t in si.nonl.iter() {
            prop_assert!(!si.nsit.contains_anywhere(t));
        }
        // Idempotence: re-applying the same message (the first pass only
        // pruned its MONL) changes nothing further.
        let si_after = si.clone();
        let mut body2 = body.clone();
        let _ = exchange(&mut si, &mut body2, None);
        prop_assert_eq!(si, si_after);
    }
}
