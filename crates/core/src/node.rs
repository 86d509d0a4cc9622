//! The MPM (Message Processing Model) — the per-node state machine of the
//! RCV algorithm (paper §4.1), implemented against the sans-io
//! [`MutexProtocol`] interface so it runs identically under the
//! discrete-event simulator and the real-thread runtime.

use rcv_simnet::{Ctx, MutexProtocol, NodeId, RestartOutcome, RetryPolicy, SimDuration};

use crate::config::RcvConfig;
use crate::exchange::exchange;
use crate::message::{MsgBody, RcvMessage};
use crate::order::order;
use crate::si::Si;
use crate::stats::RcvNodeStats;
use crate::tuple::ReqTuple;

/// Where this node stands with respect to its own CS request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqState {
    /// No outstanding request.
    Idle,
    /// Request issued, RM roaming, waiting for the EM.
    Waiting(ReqTuple),
    /// Executing the critical section.
    InCs(ReqTuple),
}

/// One node running the RCV distributed mutual exclusion algorithm.
///
/// `Clone` + `Debug` exist for the exhaustive model checker (the
/// `rcv-mc` crate), which snapshots and fingerprints whole-system states
/// while exploring every message interleaving.
#[derive(Clone, Debug)]
pub struct RcvNode {
    me: NodeId,
    n: usize,
    si: Si,
    state: ReqState,
    config: RcvConfig,
    stats: RcvNodeStats,
    /// Retransmissions already performed for the current request; feeds the
    /// [`rcv_simnet::RetryPolicy`] backoff schedule. Reset at every fresh
    /// request and at restart.
    retry_attempt: u32,
}

impl RcvNode {
    /// Creates a node `me` in an `n`-node system with default (paper)
    /// configuration.
    pub fn new(me: NodeId, n: usize) -> Self {
        Self::with_config(me, n, RcvConfig::paper())
    }

    /// Creates a node with an explicit configuration.
    pub fn with_config(me: NodeId, n: usize, config: RcvConfig) -> Self {
        assert!(n >= 1, "system must have at least one node");
        assert!(me.index() < n, "node id {me:?} out of range for N={n}");
        RcvNode {
            me,
            n,
            si: Si::new(n),
            state: ReqState::Idle,
            config,
            stats: RcvNodeStats::default(),
            retry_attempt: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Current request state.
    pub fn state(&self) -> ReqState {
        self.state
    }

    /// Mutable SI access for in-crate test construction of specific
    /// cross-node states.
    #[cfg(test)]
    pub(crate) fn si_mut(&mut self) -> &mut Si {
        &mut self.si
    }

    /// The node's replicated system information (white-box inspection).
    pub fn si(&self) -> &Si {
        &self.si
    }

    /// Protocol counters.
    pub fn stats(&self) -> &RcvNodeStats {
        &self.stats
    }

    /// Feeds the node's **protocol-relevant** state into `h`: everything
    /// that determines future behavior (id, system size, SI, request
    /// state, configuration). The observer counters in [`RcvNode::stats`]
    /// are deliberately excluded — two nodes differing only in how many
    /// messages they have counted behave identically, and the exhaustive
    /// model checker (`rcv-mc`) must merge such states or equivalent
    /// interleavings never converge.
    pub fn state_digest<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.me.hash(h);
        self.n.hash(h);
        self.si.hash(h);
        self.state.hash(h);
        self.config.hash(h);
        // Part of future behavior under a budgeted retry policy (decides
        // whether another retransmission may fire), so the model checker
        // must distinguish attempt counts or a bounded retry never bounds
        // the state space.
        self.retry_attempt.hash(h);
    }

    /// Fresh snapshot body for an outgoing message.
    fn snapshot(&self) -> MsgBody {
        let _p = rcv_simnet::profile::probe(rcv_simnet::profile::ProbePhase::SnapshotTake);
        MsgBody::snapshot(&self.si.nonl, &self.si.nsit)
    }

    /// Sends a fresh RM for `tuple` to a first hop chosen by the policy
    /// (initial issue and retransmissions share this path).
    fn issue_rm(&mut self, tuple: ReqTuple, ctx: &mut Ctx<'_, RcvMessage>) {
        let mut ul: Vec<NodeId> = NodeId::all(self.n).filter(|&x| x != self.me).collect();
        let hop = self.config.forward.choose(&ul, &self.si, ctx.rng());
        ul.retain(|&h| h != hop);
        ctx.send(
            hop,
            RcvMessage::Rm {
                home: tuple,
                ul,
                body: self.snapshot(),
            },
        );
    }

    /// The node's current outstanding request tuple, if any.
    fn current_req(&self) -> Option<ReqTuple> {
        match self.state {
            ReqState::Idle => None,
            ReqState::Waiting(t) | ReqState::InCs(t) => Some(t),
        }
    }

    /// Arms the retransmission timer for the request timestamped
    /// `tuple_ts`, honoring the configured [`rcv_simnet::RetryPolicy`]'s
    /// backoff and budget ([`Self::retry_attempt`] retransmissions done so
    /// far). No-op without a policy or once the budget is spent.
    fn arm_retry(&mut self, tuple_ts: u64, ctx: &mut Ctx<'_, RcvMessage>) {
        if let Some(policy) = self.config.retry {
            if let Some(delay) = policy.backoff_delay(self.retry_attempt) {
                ctx.set_timer(delay, tuple_ts);
            }
        }
    }

    /// Moves into the CS for request `t`.
    fn enter(&mut self, t: ReqTuple, ctx: &mut Ctx<'_, RcvMessage>) {
        debug_assert_eq!(
            self.state,
            ReqState::Waiting(t),
            "CS entry from a non-waiting state"
        );
        debug_assert_eq!(
            self.si.nonl.head(),
            Some(t),
            "Lemma 8: an entering node's tuple must head its own NONL"
        );
        self.state = ReqState::InCs(t);
        self.stats.cs_entries += 1;
        ctx.enter_cs();
    }

    /// Signals the freshly ordered `home` request: EM straight to the
    /// requester when it heads the NONL, IM to its immediate predecessor
    /// otherwise (paper lines 38-45).
    fn signal_ordered(&mut self, home: ReqTuple, ctx: &mut Ctx<'_, RcvMessage>) {
        if self.si.nonl.head() == Some(home) {
            self.stats.ems_sent += 1;
            ctx.send(
                home.node,
                RcvMessage::Em {
                    for_req: home,
                    body: self.snapshot(),
                },
            );
            return;
        }
        let pred = self
            .si
            .nonl
            .predecessor_of(&home)
            .expect("a non-head ordered tuple has a predecessor");
        if pred.node == self.me {
            // I am the predecessor myself; apply the IM locally.
            self.apply_inform(pred, home, ctx);
        } else {
            self.stats.ims_sent += 1;
            ctx.send(
                pred.node,
                RcvMessage::Im {
                    pred,
                    next: home,
                    body: self.snapshot(),
                },
            );
        }
    }

    /// Core of the IM handler (paper lines 25-32), shared with the local
    /// short-circuit when the orderer is itself the predecessor.
    fn apply_inform(&mut self, pred: ReqTuple, next: ReqTuple, ctx: &mut Ctx<'_, RcvMessage>) {
        debug_assert_eq!(pred.node, self.me, "IM delivered to the wrong node");
        if self.current_req() == Some(pred) {
            // Still waiting or executing for `pred`: remember the successor.
            debug_assert!(
                self.si.next.is_none() || self.si.next == Some(next),
                "two different successors claimed for one request"
            );
            self.si.next = Some(next);
            self.stats.ims_applied += 1;
        } else {
            // That request of mine already finished; the successor missed
            // its EM at my release — send it now (paper lines 26-29).
            self.stats.late_ims += 1;
            self.send_or_self_enter_em(next, ctx);
        }
    }

    /// Sends an EM for `next`, handling the corner case where the successor
    /// is this very node (its own re-issued request ordered right behind a
    /// finished one).
    fn send_or_self_enter_em(&mut self, next: ReqTuple, ctx: &mut Ctx<'_, RcvMessage>) {
        if next.node == self.me {
            if self.state == ReqState::Waiting(next) {
                self.si.nonl.remove_predecessors_of(&next);
                self.enter(next, ctx);
            }
        } else {
            self.stats.ems_sent += 1;
            ctx.send(
                next.node,
                RcvMessage::Em {
                    for_req: next,
                    body: self.snapshot(),
                },
            );
        }
    }

    fn handle_rm(
        &mut self,
        home: ReqTuple,
        mut ul: Vec<NodeId>,
        mut body: MsgBody,
        ctx: &mut Ctx<'_, RcvMessage>,
    ) {
        self.stats.rms_received += 1;
        // Being visited is what takes a node off the unvisited list; a
        // sender does that before forwarding, decoded input may not have.
        ul.retain(|&h| h != self.me);
        let x = exchange(&mut self.si, &mut body, None);
        self.stats.lemma6_violations += u64::from(x.lemma6_violation);

        if self.si.knows_completed(&home) {
            // A roaming RM for a finished request has no work left.
            self.stats.zombie_rms += 1;
            return;
        }

        // Register the request with this node (paper lines 35-36) unless it
        // is already ordered — then it must not vote again.
        if !self.si.nonl.contains(&home) {
            self.si.nsit.row_mut(self.me).mnl.push(home);
        }
        self.si.nsit.row_mut(self.me).ts = self.si.nsit.max_ts() + 1;

        let outcome = order(&mut self.si, home);
        self.stats.orderings += outcome.newly_ordered.len() as u64;

        if outcome.home_ordered {
            self.signal_ordered(home, ctx);
        } else if ul.is_empty() {
            // Lemma 3 proves this unreachable under reliable delivery, and
            // the fault-free battery asserts it stays that way (it is part
            // of `RcvNodeStats::anomalies`). Under crash-*recovery* faults
            // it is genuinely reachable: a restart rebuilds the crashed
            // node's own row without the votes other requests had
            // registered there, so an RM already in flight can run out of
            // unvisited nodes without its lead ever becoming unassailable.
            // The request is not lost — its retransmission re-campaigns
            // with a fresh UL. Counted, not assumed.
            self.stats.ul_exhausted += 1;
        } else {
            let hop = self.config.forward.choose(&ul, &self.si, ctx.rng());
            ul.retain(|&h| h != hop);
            self.stats.rms_forwarded += 1;
            ctx.send(
                hop,
                RcvMessage::Rm {
                    home,
                    ul,
                    body: self.snapshot(),
                },
            );
        }
    }

    fn handle_em(&mut self, for_req: ReqTuple, mut body: MsgBody, ctx: &mut Ctx<'_, RcvMessage>) {
        let x = exchange(&mut self.si, &mut body, Some(&for_req));
        self.stats.lemma6_violations += u64::from(x.lemma6_violation);
        if self.state == ReqState::Waiting(for_req) {
            self.enter(for_req, ctx);
        } else {
            // Stale or duplicate EM: safety guard #7 — never enter twice.
            self.stats.stale_ems += 1;
        }
    }

    fn handle_im(
        &mut self,
        pred: ReqTuple,
        next: ReqTuple,
        mut body: MsgBody,
        ctx: &mut Ctx<'_, RcvMessage>,
    ) {
        let x = exchange(&mut self.si, &mut body, None);
        self.stats.lemma6_violations += u64::from(x.lemma6_violation);
        self.apply_inform(pred, next, ctx);
    }

    /// Revival Message from a restarted peer (recovery extension). The
    /// carried snapshot goes through the ordinary Exchange; afterwards the
    /// NONL head is re-signalled, because the restarted peer may have been
    /// exactly the node that owed the head its EM (as orderer or releasing
    /// predecessor) — an EM that, if it was ever sent, died in the outage.
    ///
    /// Re-signalling the head is always safe: every request globally
    /// ordered before this node's NONL head is known completed (prefix
    /// consistency, Lemma 6/7), and with resume-style recovery completion
    /// evidence is never forged for an interrupted request — so the head
    /// genuinely is next in line. A head that already entered (or already
    /// finished) absorbs the duplicate through the stale-EM guard; the
    /// worst case is one redundant EM per peer on a rare recovery path.
    fn handle_rv(&mut self, mut body: MsgBody, ctx: &mut Ctx<'_, RcvMessage>) {
        self.stats.rvs_received += 1;
        let x = exchange(&mut self.si, &mut body, None);
        self.stats.lemma6_violations += u64::from(x.lemma6_violation);
        if let Some(head) = self.si.nonl.head() {
            self.send_or_self_enter_em(head, ctx);
        }
    }
}

impl MutexProtocol for RcvNode {
    type Message = RcvMessage;

    fn name(&self) -> &'static str {
        "rcv"
    }

    fn min_timer_delay(&self) -> Option<SimDuration> {
        self.config.retry.as_ref().map(RetryPolicy::min_delay)
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, RcvMessage>) {
        debug_assert_eq!(
            self.state,
            ReqState::Idle,
            "request while one is outstanding"
        );
        self.stats.requests += 1;

        // Paper lines 4-5: bump own row version, register own tuple.
        let row = self.si.nsit.row_mut(self.me);
        row.ts += 1;
        let tuple = ReqTuple::new(self.me, row.ts);
        row.mnl.push(tuple);
        self.state = ReqState::Waiting(tuple);

        if self.n == 1 {
            // Degenerate system: no peers to confer with; the vote is 1 of 1.
            let outcome = order(&mut self.si, tuple);
            debug_assert!(outcome.home_ordered && outcome.highest_priority);
            self.enter(tuple, ctx);
            return;
        }

        // Paper lines 6-13: initialize the RM and send it roaming.
        self.issue_rm(tuple, ctx);
        self.retry_attempt = 0;
        self.arm_retry(tuple.ts, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, RcvMessage>) {
        // Retransmission extension: the tag is the request's timestamp, so
        // timers armed for earlier (finished) requests are inert.
        let ReqState::Waiting(t) = self.state else {
            return;
        };
        if t.ts != tag {
            return;
        }
        self.stats.retransmissions += 1;
        self.issue_rm(t, ctx);
        self.retry_attempt = self.retry_attempt.saturating_add(1);
        self.arm_retry(t.ts, ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: RcvMessage, ctx: &mut Ctx<'_, RcvMessage>) {
        // Decoded input may be well-formed yet not for this node: a body
        // describing a system of another size (Exchange indexes both
        // tables by node id), an IM for another predecessor (acting on it
        // would grant `next` an EM nobody owes), this node's own RM (no
        // peer forwards it home). It stops here.
        let misdelivered = msg.body().msit.n() != self.n
            || match &msg {
                RcvMessage::Im { pred, .. } => pred.node != self.me,
                RcvMessage::Rm { home, .. } => home.node == self.me,
                RcvMessage::Em { .. } | RcvMessage::Rv { .. } => false,
            };
        if misdelivered {
            self.stats.misdelivered += 1;
            return;
        }
        match msg {
            RcvMessage::Rm { home, ul, body } => self.handle_rm(home, ul, body, ctx),
            RcvMessage::Em { for_req, body } => self.handle_em(for_req, body, ctx),
            RcvMessage::Im { pred, next, body } => self.handle_im(pred, next, body, ctx),
            RcvMessage::Rv { body } => self.handle_rv(body, ctx),
        }
    }

    fn on_cs_released(&mut self, ctx: &mut Ctx<'_, RcvMessage>) {
        let ReqState::InCs(t) = self.state else {
            panic!("{:?} released a CS it never entered", self.me);
        };
        // Paper lines 17-24: completion bump, drop own tuple from the NONL,
        // hand the CS to the recorded successor if any.
        self.si.nsit.row_mut(self.me).ts += 1;
        debug_assert_eq!(self.si.nonl.head(), Some(t), "Lemma 8 at release");
        self.si.nonl.remove(&t);
        self.state = ReqState::Idle;
        if let Some(next) = self.si.next.take() {
            self.send_or_self_enter_em(next, ctx);
        }
    }

    /// Crash recovery (**extension, not in the paper**). Stable-storage
    /// model: before sending its first RM a node persists its own NSIT row
    /// version and its outstanding request tuple (a write-ahead record);
    /// everything else — NONL, other rows, the `Next` pointer — is lost
    /// with the process.
    ///
    /// The interrupted request is **resumed, never abandoned**: the tuple
    /// is re-listed in the rebuilt own row at the persisted version, so no
    /// peer can ever derive completion evidence for a request that did not
    /// complete. That is load-bearing for safety: the Exchange procedure
    /// prunes a NONL *through* any tuple with completion evidence — sound
    /// only because genuine completion follows NONL order — and a falsely
    /// "completed" tuple would drag live predecessors (possibly the
    /// current CS holder) out of peers' NONLs.
    ///
    /// Rejoining is a broadcast Revival Message (peers re-sync and
    /// re-signal their NONL head, healing an EM that died in the outage)
    /// plus, when resuming, a fresh RM campaign for the interrupted
    /// request: if it was already ordered the campaign collapses into the
    /// usual already-ordered signalling, and every duplicate it can cause
    /// is absorbed by the stale-EM / duplicate-IM guards — the same
    /// argument as the retransmission extension. Losing the own row's
    /// registered votes (other requests' registrations at this node) only
    /// delays those requests; their retransmissions re-campaign.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, RcvMessage>) -> RestartOutcome {
        let resumed = self.current_req();
        let old_ts = self.si.nsit.row(self.me).ts;
        self.si = Si::new(self.n);
        self.state = ReqState::Idle;
        self.retry_attempt = 0;
        self.stats.restarts += 1;
        let row = self.si.nsit.row_mut(self.me);
        row.ts = old_ts;
        let Some(t) = resumed else {
            for peer in NodeId::all(self.n).filter(|&x| x != self.me) {
                let body = self.snapshot();
                ctx.send(peer, RcvMessage::Rv { body });
            }
            return RestartOutcome::Rejoined;
        };
        row.mnl.push(t);
        self.state = ReqState::Waiting(t);
        if self.n == 1 {
            // Degenerate system: nobody to rejoin; the resumed request
            // re-enters immediately, as in `on_request`.
            let outcome = order(&mut self.si, t);
            debug_assert!(outcome.home_ordered && outcome.highest_priority);
            self.enter(t, ctx);
            return RestartOutcome::Rejoined;
        }
        for peer in NodeId::all(self.n).filter(|&x| x != self.me) {
            let body = self.snapshot();
            ctx.send(peer, RcvMessage::Rv { body });
        }
        self.issue_rm(t, ctx);
        self.arm_retry(t.ts, ctx);
        RestartOutcome::Rejoined
    }
}

#[cfg(test)]
use rcv_simnet::ProtocolMessage;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rcv_simnet::SimTime;

    struct Harness {
        rng: SmallRng,
        outbox: Vec<(NodeId, RcvMessage)>,
        enter: bool,
        timers: Vec<(rcv_simnet::SimDuration, u64)>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                rng: SmallRng::seed_from_u64(1),
                outbox: Vec::new(),
                enter: false,
                timers: Vec::new(),
            }
        }

        fn drive<R>(&mut self, me: NodeId, f: impl FnOnce(&mut Ctx<'_, RcvMessage>) -> R) -> R {
            self.outbox.clear();
            self.enter = false;
            self.timers.clear();
            let mut ctx = Ctx::new(
                me,
                SimTime::ZERO,
                &mut self.rng,
                &mut self.outbox,
                &mut self.enter,
                &mut self.timers,
            );
            f(&mut ctx)
        }
    }

    #[test]
    fn request_emits_one_rm_with_full_ul() {
        let mut node = RcvNode::new(NodeId::new(0), 5);
        let mut h = Harness::new();
        h.drive(NodeId::new(0), |ctx| node.on_request(ctx));
        assert_eq!(h.outbox.len(), 1);
        let (to, msg) = &h.outbox[0];
        let RcvMessage::Rm { home, ul, .. } = msg else {
            panic!("expected RM")
        };
        assert_eq!(home.node, NodeId::new(0));
        assert_eq!(home.ts, 1);
        assert_eq!(ul.len(), 3, "UL = N-1 peers minus the first hop");
        assert!(!ul.contains(to));
        assert!(!ul.contains(&NodeId::new(0)));
        assert_eq!(node.state(), ReqState::Waiting(*home));
    }

    #[test]
    fn single_node_system_enters_immediately() {
        let mut node = RcvNode::new(NodeId::new(0), 1);
        let mut h = Harness::new();
        h.drive(NodeId::new(0), |ctx| node.on_request(ctx));
        assert!(h.enter);
        assert!(h.outbox.is_empty());
        assert!(matches!(node.state(), ReqState::InCs(_)));
    }

    #[test]
    fn release_clears_state_and_notifies_successor() {
        let mut node = RcvNode::new(NodeId::new(0), 1);
        let mut h = Harness::new();
        h.drive(NodeId::new(0), |ctx| node.on_request(ctx));
        // Simulate an IM having set a successor on node 1's request.
        // (In a 1-node system that cannot happen; we hand-inject to test the
        // release path in isolation.)
        let succ = ReqTuple::new(NodeId::new(0), 99); // self-successor corner
        node.si.next = Some(succ);
        h.drive(NodeId::new(0), |ctx| node.on_cs_released(ctx));
        assert_eq!(node.state(), ReqState::Idle);
        assert!(node.si.next.is_none());
        // Self-successor for a non-waiting tuple: nothing sent, no entry.
        assert!(h.outbox.is_empty());
        assert!(!h.enter);
    }

    #[test]
    fn stale_em_is_dropped() {
        let mut node = RcvNode::new(NodeId::new(0), 3);
        let mut h = Harness::new();
        let stale = ReqTuple::new(NodeId::new(0), 77);
        let body = MsgBody::snapshot(&node.si.nonl, &node.si.nsit);
        h.drive(NodeId::new(0), |ctx| {
            node.on_message(
                NodeId::new(1),
                RcvMessage::Em {
                    for_req: stale,
                    body,
                },
                ctx,
            )
        });
        assert!(!h.enter);
        assert_eq!(node.stats().stale_ems, 1);
    }

    #[test]
    fn two_node_roundtrip_grants_cs() {
        // Node 0 requests; its RM reaches node 1; node 1 must order it and
        // answer with an EM; the EM lets node 0 enter.
        let mut a = RcvNode::new(NodeId::new(0), 2);
        let mut b = RcvNode::new(NodeId::new(1), 2);
        let mut h = Harness::new();

        h.drive(NodeId::new(0), |ctx| a.on_request(ctx));
        let (to, rm) = h.outbox[0].clone();
        assert_eq!(to, NodeId::new(1));

        h.drive(NodeId::new(1), |ctx| b.on_message(NodeId::new(0), rm, ctx));
        assert_eq!(h.outbox.len(), 1, "node 1 must emit exactly the EM");
        let (to, em) = h.outbox[0].clone();
        assert_eq!(to, NodeId::new(0));
        assert_eq!(em.kind(), "EM");

        h.drive(NodeId::new(0), |ctx| a.on_message(NodeId::new(1), em, ctx));
        assert!(h.enter, "EM must admit node 0 into the CS");
        assert!(matches!(a.state(), ReqState::InCs(_)));

        // Release: no successor recorded, so nothing is sent.
        h.drive(NodeId::new(0), |ctx| a.on_cs_released(ctx));
        assert_eq!(a.state(), ReqState::Idle);
        assert!(h.outbox.is_empty());
        assert_eq!(a.stats().anomalies() + b.stats().anomalies(), 0);
    }

    #[test]
    fn rm_for_completed_request_is_dropped() {
        let mut b = RcvNode::new(NodeId::new(1), 3);
        // Node 1 knows node 0's request <0,1> completed: row 0 fresh at 2.
        b.si.nsit.row_mut(NodeId::new(0)).ts = 2;
        let zombie_home = ReqTuple::new(NodeId::new(0), 1);
        let body = MsgBody::snapshot(&b.si.nonl, &b.si.nsit);
        let mut h = Harness::new();
        h.drive(NodeId::new(1), |ctx| {
            b.on_message(
                NodeId::new(2),
                RcvMessage::Rm {
                    home: zombie_home,
                    ul: vec![NodeId::new(2)],
                    body,
                },
                ctx,
            )
        });
        assert!(h.outbox.is_empty(), "zombie RM must not be forwarded");
        assert_eq!(b.stats().zombie_rms, 1);
    }

    #[test]
    fn messages_not_meant_for_this_node_are_dropped_and_counted() {
        let mut h = Harness::new();
        let me = NodeId::new(0);
        let mut node = RcvNode::new(me, 3);
        let t = |n: u32, ts: u64| ReqTuple::new(NodeId::new(n), ts);
        let body = |n: usize| MsgBody::snapshot(&crate::Nonl::new(), &crate::Nsit::new(n));
        let untouched = node.si().clone();
        // A body sized for a 2-node system (Exchange would index past it),
        // an IM for another predecessor, this node's own RM coming back.
        let misdelivered = [
            RcvMessage::Rv { body: body(2) },
            RcvMessage::Im {
                pred: t(1, 1),
                next: t(2, 1),
                body: body(3),
            },
            RcvMessage::Rm {
                home: t(0, 1),
                ul: vec![NodeId::new(2)],
                body: body(3),
            },
        ];
        for (i, msg) in misdelivered.into_iter().enumerate() {
            h.drive(me, |ctx| node.on_message(NodeId::new(1), msg, ctx));
            assert_eq!(node.stats().misdelivered, i as u64 + 1);
        }
        assert_eq!(node.stats().anomalies_under(true), 3);
        assert_eq!(node.si(), &untouched);
        assert!(h.outbox.is_empty() && !h.enter);

        // An RM that still lists this node as unvisited is served, and
        // never forwarded back to it.
        let rm = RcvMessage::Rm {
            home: t(1, 1),
            ul: vec![me],
            body: body(3),
        };
        h.drive(me, |ctx| node.on_message(NodeId::new(1), rm, ctx));
        assert_eq!(node.stats().rms_received, 1);
        assert!(h.outbox.iter().all(|(to, _)| *to != me), "{:?}", h.outbox);
    }

    #[test]
    fn use_protocol_message_kind() {
        // `kind()` needs the ProtocolMessage trait in scope; also ensures
        // the node's name is stable for reports.
        let node = RcvNode::new(NodeId::new(0), 2);
        assert_eq!(node.name(), "rcv");
    }
}
