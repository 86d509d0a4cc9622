//! Message-level scenario tests: drive individual `RcvNode` state machines
//! by hand through the IM/EM corner paths that full-system runs only hit
//! probabilistically.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rcv_core::{RcvConfig, RcvMessage, RcvNode, ReqState};
use rcv_simnet::{Ctx, MutexProtocol, NodeId, RetryPolicy, SimDuration, SimTime};

fn nid(n: u32) -> NodeId {
    NodeId::new(n)
}

/// Hand-cranked dispatcher for a set of nodes.
struct Bench {
    rng: SmallRng,
    outbox: Vec<(NodeId, RcvMessage)>,
    enter: bool,
    timers: Vec<(SimDuration, u64)>,
}

impl Bench {
    fn new() -> Self {
        Bench {
            // With the workspace's xoshiro-based SmallRng this seed makes
            // node 0's Random forwarding pick node 1 (see `ordered_pair`).
            rng: SmallRng::seed_from_u64(8),
            outbox: Vec::new(),
            enter: false,
            timers: Vec::new(),
        }
    }

    /// Runs `f` on `node`, returning (sent messages, entered?).
    fn step(
        &mut self,
        node: &mut RcvNode,
        f: impl FnOnce(&mut RcvNode, &mut Ctx<'_, RcvMessage>),
    ) -> (Vec<(NodeId, RcvMessage)>, bool) {
        self.outbox.clear();
        self.enter = false;
        self.timers.clear();
        let mut ctx = Ctx::new(
            node.id(),
            SimTime::ZERO,
            &mut self.rng,
            &mut self.outbox,
            &mut self.enter,
            &mut self.timers,
        );
        f(node, &mut ctx);
        (self.outbox.clone(), self.enter)
    }
}

/// Builds a 3-node system where node 0's and node 2's requests both reach
/// node 1, which orders both: [<0,1>, <2,1>]. Returns the nodes plus the
/// messages node 1 emitted (an EM for node 0 and an IM for node 0 as the
/// predecessor of node 2).
fn ordered_pair() -> (Vec<RcvNode>, Vec<(NodeId, RcvMessage)>) {
    let mut bench = Bench::new();
    let mut nodes: Vec<RcvNode> = (0..3).map(|i| RcvNode::new(nid(i), 3)).collect();

    // Node 0 requests; capture its RM and deliver to node 1.
    let (out0, _) = bench.step(&mut nodes[0], |n, ctx| n.on_request(ctx));
    let (to, rm_for_1) = out0
        .into_iter()
        .find(|(_, m)| matches!(m, RcvMessage::Rm { .. }))
        .expect("request emits an RM");
    // Random forwarding with the fixed bench seed lands on node 1; the
    // assertion keeps the scenario honest if the RNG stream ever changes.
    assert_eq!(to, nid(1), "bench seed changed: rebuild the scenario");

    // Before node 1 processes node 0's RM, node 2 also requests, and its
    // RM is what node 1 processes *second*, ordering both requests.
    let (out2, _) = bench.step(&mut nodes[2], |n, ctx| n.on_request(ctx));
    let (_, rm2) = out2
        .into_iter()
        .find(|(_, m)| matches!(m, RcvMessage::Rm { .. }))
        .expect("request emits an RM");

    let (out_a, _) = bench.step(&mut nodes[1], |n, ctx| n.on_message(nid(0), rm_for_1, ctx));
    // Node 0's lone request orders immediately: EM to node 0.
    assert!(
        out_a
            .iter()
            .any(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Em { .. })),
        "{out_a:?}"
    );
    let (out_b, _) = bench.step(&mut nodes[1], |n, ctx| n.on_message(nid(2), rm2, ctx));
    let mut emitted = out_a;
    emitted.extend(out_b);
    (nodes, emitted)
}

#[test]
fn im_to_waiting_predecessor_sets_next_and_release_hands_over() {
    let (mut nodes, emitted) = ordered_pair();
    let mut bench = Bench::new();

    // Node 1 must have sent an IM to node 0 (predecessor of node 2).
    let im = emitted
        .iter()
        .find(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Im { .. }))
        .cloned();
    let em = emitted
        .iter()
        .find(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Em { .. }))
        .cloned();
    let (_, im) = im.expect("IM to the predecessor");
    let (_, em) = em.expect("EM to the head");

    // Non-FIFO: deliver the IM *before* the EM.
    let (out, entered) = bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), im, ctx));
    assert!(
        out.is_empty(),
        "IM while waiting must only set Next: {out:?}"
    );
    assert!(!entered);
    assert_eq!(nodes[0].si().next.map(|t| t.node), Some(nid(2)));
    assert_eq!(nodes[0].stats().ims_applied, 1);

    // Now the EM arrives: node 0 enters.
    let (_, entered) = bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), em, ctx));
    assert!(entered);
    assert!(matches!(nodes[0].state(), ReqState::InCs(_)));

    // Release: node 0 must forward the CS to node 2 with a single EM.
    let (out, _) = bench.step(&mut nodes[0], |n, ctx| n.on_cs_released(ctx));
    assert_eq!(out.len(), 1);
    let (to, m) = &out[0];
    assert_eq!(*to, nid(2));
    assert!(matches!(m, RcvMessage::Em { .. }));
    assert_eq!(nodes[0].state(), ReqState::Idle);
    assert!(nodes[0].si().next.is_none());

    // Node 2 enters on that EM.
    let (_, entered) = {
        let (to_msg, m) = out.into_iter().next().unwrap();
        assert_eq!(to_msg, nid(2));
        bench.step(&mut nodes[2], |n, ctx| n.on_message(nid(0), m, ctx))
    };
    assert!(entered);
}

#[test]
fn late_im_after_release_triggers_immediate_em() {
    let (mut nodes, emitted) = ordered_pair();
    let mut bench = Bench::new();

    let (_, im) = emitted
        .iter()
        .find(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Im { .. }))
        .cloned()
        .expect("IM to the predecessor");
    let (_, em) = emitted
        .iter()
        .find(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Em { .. }))
        .cloned()
        .expect("EM to the head");

    // EM first: node 0 enters and releases *before* the IM shows up.
    let (_, entered) = bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), em, ctx));
    assert!(entered);
    let (out, _) = bench.step(&mut nodes[0], |n, ctx| n.on_cs_released(ctx));
    assert!(
        out.is_empty(),
        "no Next recorded yet ⇒ release sends nothing"
    );

    // The IM arrives late (paper lines 26-29): node 0 already finished, so
    // it must answer with an immediate EM to the successor.
    let (out, _) = bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), im, ctx));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, nid(2));
    assert!(matches!(out[0].1, RcvMessage::Em { .. }));
    assert_eq!(nodes[0].stats().late_ims, 1);

    // And node 2 enters on it.
    let (to, m) = out.into_iter().next().unwrap();
    assert_eq!(to, nid(2));
    let (_, entered) = bench.step(&mut nodes[2], |n, ctx| n.on_message(nid(0), m, ctx));
    assert!(entered);
}

#[test]
fn duplicate_im_is_idempotent() {
    let (mut nodes, emitted) = ordered_pair();
    let mut bench = Bench::new();
    let (_, im) = emitted
        .iter()
        .find(|(to, m)| *to == nid(0) && matches!(m, RcvMessage::Im { .. }))
        .cloned()
        .expect("IM");
    let im2 = im.clone();
    bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), im, ctx));
    // Second, identical IM: same successor, must not panic or change state.
    bench.step(&mut nodes[0], |n, ctx| n.on_message(nid(1), im2, ctx));
    assert_eq!(nodes[0].si().next.map(|t| t.node), Some(nid(2)));
    assert_eq!(nodes[0].stats().ims_applied, 2);
}

#[test]
fn retransmit_timer_reissues_only_while_waiting() {
    let mut bench = Bench::new();
    let mut node = RcvNode::with_config(nid(0), 4, RcvConfig::with_retry(RetryPolicy::fixed(100)));

    let (out, _) = bench.step(&mut node, |n, ctx| n.on_request(ctx));
    assert_eq!(out.len(), 1, "initial RM");
    let armed = bench.timers.clone();
    assert_eq!(armed.len(), 1, "retransmit timer armed");
    let (_, tag) = armed[0];

    // Timer fires while still waiting: a fresh RM goes out and re-arms.
    let (out, _) = bench.step(&mut node, |n, ctx| n.on_timer(tag, ctx));
    assert_eq!(out.len(), 1, "re-issued RM");
    assert!(matches!(out[0].1, RcvMessage::Rm { .. }));
    assert_eq!(node.stats().retransmissions, 1);
    assert_eq!(bench.timers.len(), 1, "timer re-armed");

    // A stale tag (older request) is ignored.
    let (out, _) = bench.step(&mut node, |n, ctx| n.on_timer(tag + 999, ctx));
    assert!(out.is_empty());
    assert_eq!(node.stats().retransmissions, 1);
}

#[test]
fn paper_config_never_arms_timers() {
    let mut bench = Bench::new();
    let mut node = RcvNode::new(nid(0), 4);
    bench.step(&mut node, |n, ctx| n.on_request(ctx));
    assert!(
        bench.timers.is_empty(),
        "paper configuration must not use timers"
    );
}
