//! The discrete-event simulation engine.
//!
//! Drives `N` protocol state machines over a virtual network: pops events in
//! timestamp order, hands them to the owning node, and turns the node's
//! intents (sends, CS entry) back into future events. The engine is fully
//! deterministic for a given `(SimConfig, workload)` pair — delays and
//! protocol randomness come from seeded per-purpose RNG streams, and ties in
//! the event queue fire in insertion order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delay::DelayModel;
use crate::event::{EventKind, EventQueue};
use crate::faults::FaultPlan;
use crate::ids::NodeId;
use crate::metrics::SimMetrics;
use crate::monitor::{SafetyMonitor, Violation};
use crate::protocol::{Ctx, MutexProtocol, ProtocolMessage, RestartOutcome};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use crate::workload::{ArrivalSink, Workload};

/// Engine parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes, `N`.
    pub n: usize,
    /// Message propagation delay model (`Tn`).
    pub delay: DelayModel,
    /// CS execution time (`Tc`).
    pub cs_duration: SimDuration,
    /// Master seed; every stream (network delays, per-node protocol
    /// randomness, workload) is derived from it.
    pub seed: u64,
    /// Hard cap on processed events, to turn a livelock into a test failure
    /// instead of a hang.
    pub max_events: u64,
    /// Panic the moment mutual exclusion is violated (tests) instead of
    /// recording and continuing (surveys).
    pub panic_on_violation: bool,
    /// Failure injection (duplication, crash-stop). Defaults to none — the
    /// paper's reliable model.
    pub faults: FaultPlan,
    /// Keep a ring of the last this-many events for post-mortem narration
    /// (0 = off; tracing formats every message, so leave it off in
    /// experiments).
    pub trace_capacity: usize,
}

impl SimConfig {
    /// The paper's settings: `Tn = 5`, `Tc = 10`, constant delay.
    pub fn paper(n: usize, seed: u64) -> Self {
        SimConfig {
            n,
            delay: DelayModel::paper_constant(),
            cs_duration: SimDuration::from_ticks(10),
            seed,
            max_events: 200_000_000,
            panic_on_violation: true,
            faults: FaultPlan::none(),
            trace_capacity: 0,
        }
    }

    /// Paper settings but with jittered (non-FIFO) delivery.
    pub fn paper_non_fifo(n: usize, seed: u64) -> Self {
        SimConfig {
            delay: DelayModel::paper_jittered(),
            ..Self::paper(n, seed)
        }
    }
}

/// Outcome of one simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Clock value when the run ended.
    pub end_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// True if the event queue drained while requests were still
    /// outstanding — i.e. the system deadlocked/starved.
    pub deadlocked: bool,
    /// True if the run stopped because `max_events` was hit.
    pub truncated: bool,
    /// All request / message counters.
    pub metrics: SimMetrics,
    /// Mutual exclusion violations (empty ⇔ safe).
    pub violations: Vec<Violation>,
    /// Total CS entries observed by the monitor.
    pub cs_entries: u64,
    /// Execution trace (empty unless `trace_capacity` was set).
    pub trace: Trace,
}

impl SimReport {
    /// Whether mutual exclusion held.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether every issued request ran to completion.
    pub fn all_completed(&self) -> bool {
        !self.deadlocked && !self.truncated && self.metrics.outstanding() == 0
    }
}

/// The engine itself, generic over the protocol under test.
pub struct Engine<P: MutexProtocol, W: Workload> {
    cfg: SimConfig,
    nodes: Vec<P>,
    node_rngs: Vec<SmallRng>,
    queue: EventQueue<P::Message>,
    net_rng: SmallRng,
    wl_rng: SmallRng,
    monitor: SafetyMonitor,
    metrics: SimMetrics,
    workload: W,
    sink: ArrivalSink,
    in_cs: Vec<bool>,
    /// Per-node CS generation, bumped at every grant and at crash
    /// eviction; lets stale `CsExit` events (from a hold the crash killed)
    /// be recognized and dropped.
    cs_epoch: Vec<u64>,
    /// Per-node crash schedule, precomputed from the fault plan at
    /// construction: sorted `(down, up)` intervals (`up = u64::MAX` ticks
    /// encodes crash-stop). Fault-free and single-crash runs pay an O(1)
    /// emptiness/first-interval check on the hot paths instead of the
    /// fault plan's linear scan per event.
    crash_sched: Vec<Vec<(SimTime, SimTime)>>,
    /// Per-node flag: a request was outstanding when the node crashed and
    /// was abandoned; re-issued at restart if the protocol recovers.
    crash_aborted: Vec<bool>,
    events: u64,
    trace: Trace,
    /// Reusable dispatch scratch: a handler's outgoing messages. Drained
    /// before `dispatch` returns (or recurses into `grant_cs`), so the
    /// event loop allocates nothing per event in steady state.
    outbox: Vec<(NodeId, <P as MutexProtocol>::Message)>,
    /// Reusable dispatch scratch: a handler's armed timers.
    timers: Vec<(SimDuration, u64)>,
}

impl<P: MutexProtocol, W: Workload> Engine<P, W> {
    /// Builds an engine; `make_node(id, n)` constructs each protocol node.
    pub fn new(cfg: SimConfig, workload: W, mut make_node: impl FnMut(NodeId, usize) -> P) -> Self {
        assert!(cfg.n >= 1, "need at least one node");
        let mut seeder = SmallRng::seed_from_u64(cfg.seed);
        let node_rngs = (0..cfg.n)
            .map(|_| SmallRng::seed_from_u64(seeder.gen()))
            .collect::<Vec<_>>();
        let net_rng = SmallRng::seed_from_u64(seeder.gen());
        let wl_rng = SmallRng::seed_from_u64(seeder.gen());
        let nodes = NodeId::all(cfg.n).map(|id| make_node(id, cfg.n)).collect();
        // Size the calendar queue's O(1) window to the common scheduling
        // distances: message delays (≤ Tn_max) and CS exits (Tc). Timers
        // and far-future arrivals overflow to the heap, which is correct,
        // just not O(1).
        let horizon = cfg.delay.max_ticks().max(cfg.cs_duration.ticks());
        // Precompute the per-node crash schedule so the per-event down
        // check is O(intervals of that node) — O(1) for the typical zero-
        // or one-crash plans — instead of a scan over the whole fault list.
        let forever = SimTime::from_ticks(u64::MAX);
        let mut crash_sched: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); cfg.n];
        for &(node, at) in &cfg.faults.crashes {
            assert!(node.index() < cfg.n, "crash plan names unknown {node:?}");
            crash_sched[node.index()].push((at, forever));
        }
        for w in &cfg.faults.restarts {
            assert!(
                w.node.index() < cfg.n,
                "crash window names unknown {:?}",
                w.node
            );
            crash_sched[w.node.index()].push((w.down_at, w.up_at));
        }
        for sched in &mut crash_sched {
            sched.sort_unstable();
        }
        let mut queue = EventQueue::with_horizon(SimDuration::from_ticks(horizon));
        // Crash windows are driven by explicit events (eviction, restart
        // hook, request re-issue). Permanent crash-stops stay purely
        // passive — exactly the pre-window engine behavior, so legacy
        // fault plans keep bit-identical event counts and RNG streams.
        for w in &cfg.faults.restarts {
            queue.schedule(w.down_at, EventKind::Crash { node: w.node });
            queue.schedule(w.up_at, EventKind::Restart { node: w.node });
        }
        Engine {
            trace: Trace::with_capacity(cfg.trace_capacity),
            in_cs: vec![false; cfg.n],
            cs_epoch: vec![0; cfg.n],
            crash_sched,
            crash_aborted: vec![false; cfg.n],
            nodes,
            node_rngs,
            queue,
            net_rng,
            wl_rng,
            monitor: SafetyMonitor::new(),
            metrics: SimMetrics::new(),
            workload,
            sink: ArrivalSink::new(),
            events: 0,
            cfg,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Whether `node` is inside a crash interval at `now` (precomputed
    /// schedule; O(1) for fault-free and single-crash plans).
    #[inline]
    fn node_down(&self, node: NodeId, now: SimTime) -> bool {
        self.crash_sched[node.index()]
            .iter()
            .any(|&(down, up)| now >= down && now < up)
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> SimReport {
        self.run_collecting().0
    }

    /// Runs the simulation and also hands back the final protocol states,
    /// for white-box invariant checks.
    pub fn run_collecting(mut self) -> (SimReport, Vec<P>) {
        self.workload
            .init(self.cfg.n, &mut self.wl_rng, &mut self.sink);
        self.flush_arrivals();

        let mut truncated = false;
        while let Some(ev) = self.queue.pop() {
            self.events += 1;
            if self.events > self.cfg.max_events {
                truncated = true;
                break;
            }
            let now = ev.at;
            match ev.kind {
                EventKind::Arrival { node } => self.handle_arrival(node, now),
                EventKind::Deliver { from, to, msg } => self.handle_deliver(from, to, msg, now),
                EventKind::CsExit { node, epoch } => self.handle_cs_exit(node, epoch, now),
                EventKind::Timer { node, tag } => self.handle_timer(node, tag, now),
                EventKind::Crash { node } => self.handle_crash(node, now),
                EventKind::Restart { node } => self.handle_restart(node, now),
            }
        }

        let deadlocked = !truncated && self.metrics.outstanding() > 0;
        let end_time = self.queue.now();
        // Move (not clone) the monitor's accumulated vectors into the report.
        let parts = self.monitor.into_parts();
        let report = SimReport {
            end_time,
            events: self.events,
            deadlocked,
            truncated,
            violations: parts.violations,
            cs_entries: parts.entries,
            metrics: self.metrics,
            trace: self.trace,
        };
        (report, self.nodes)
    }

    fn flush_arrivals(&mut self) {
        // The sink and the queue are disjoint fields, so the drain feeds
        // the queue directly — no intermediate collect.
        let n = self.cfg.n;
        for (at, node) in self.sink.drain() {
            assert!(node.index() < n, "workload scheduled unknown node {node:?}");
            self.queue.schedule(at, EventKind::Arrival { node });
        }
    }

    fn handle_arrival(&mut self, node: NodeId, now: SimTime) {
        if self.node_down(node, now) {
            return; // a crashed node issues nothing
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Arrival { at: now, node });
        }
        assert!(
            !self.metrics.has_outstanding(node),
            "workload violated the one-outstanding-request rule for {node:?}"
        );
        self.metrics.request_issued(node, now);
        self.dispatch(node, now, |p, ctx| p.on_request(ctx));
    }

    fn handle_deliver(&mut self, from: NodeId, to: NodeId, msg: P::Message, now: SimTime) {
        if self.node_down(to, now) {
            self.metrics.message_dropped();
            if self.trace.enabled() {
                self.trace.record(TraceEvent::Dropped { at: now, to });
            }
            return;
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Deliver {
                at: now,
                from,
                to,
                kind: msg.kind(),
            });
        }
        self.dispatch(to, now, |p, ctx| p.on_message(from, msg, ctx));
    }

    fn handle_cs_exit(&mut self, node: NodeId, epoch: u64, now: SimTime) {
        if self.node_down(node, now) {
            // Crashed while holding the CS (crash-stop): the node never
            // releases; the monitor keeps it as occupant and successors
            // starve — the honest consequence, surfaced via `deadlocked`.
            // (Crash *windows* instead evict the holder at `down_at`.)
            return;
        }
        if epoch != self.cs_epoch[node.index()] {
            // The hold this exit belonged to was killed by a crash
            // eviction; the node may even be back inside the CS for a
            // fresh request by now. Either way this exit is stale.
            return;
        }
        debug_assert!(self.in_cs[node.index()], "CsExit for a node not in the CS");
        if self.trace.enabled() {
            self.trace.record(TraceEvent::CsExit { at: now, node });
        }
        self.in_cs[node.index()] = false;
        self.monitor.exit(node, now);
        self.check_safety();
        self.metrics.cs_exited(node, now);
        self.dispatch(node, now, |p, ctx| p.on_cs_released(ctx));
        self.workload
            .on_complete(node, now, &mut self.wl_rng, &mut self.sink);
        self.flush_arrivals();
    }

    fn handle_timer(&mut self, node: NodeId, tag: u64, now: SimTime) {
        if self.node_down(node, now) {
            return;
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Timer { at: now, node, tag });
        }
        self.dispatch(node, now, |p, ctx| p.on_timer(tag, ctx));
    }

    /// Start of a crash window: the node dies *now*. If it held the CS it
    /// is evicted (a dead process occupies nothing) and its pending exit is
    /// invalidated; an outstanding request is abandoned and remembered for
    /// re-issue at restart.
    fn handle_crash(&mut self, node: NodeId, now: SimTime) {
        self.metrics.node_crashed();
        let held = self.in_cs[node.index()];
        if held {
            self.in_cs[node.index()] = false;
            self.cs_epoch[node.index()] += 1;
            self.monitor.evict(node);
        }
        self.crash_aborted[node.index()] = self.metrics.request_aborted(node);
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Crashed {
                at: now,
                node,
                held_cs: held,
            });
        }
    }

    /// End of a crash window: run the protocol's restart hook and act on
    /// its outcome — re-issue the interrupted request for a node that
    /// rejoined idle, or just re-open the request bookkeeping for one that
    /// resumed the request internally (write-ahead recovery).
    fn handle_restart(&mut self, node: NodeId, now: SimTime) {
        self.metrics.node_restarted();
        let mut outcome = RestartOutcome::KeptState;
        self.dispatch(node, now, |p, ctx| outcome = p.on_restart(ctx));
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Restarted {
                at: now,
                node,
                recovered: outcome.recovered(),
            });
        }
        let interrupted = std::mem::take(&mut self.crash_aborted[node.index()]);
        match outcome {
            RestartOutcome::KeptState => {}
            RestartOutcome::RejoinedIdle => {
                if interrupted {
                    self.queue.schedule(now, EventKind::Arrival { node });
                }
            }
            RestartOutcome::ResumedRequest => {
                // The protocol re-adopted its interrupted request; track it
                // as a fresh lifecycle starting now (down time is recovery,
                // not protocol wait, so it must not pollute response times).
                if interrupted {
                    self.metrics.request_resumed(node, now);
                }
            }
        }
    }

    /// Runs one protocol handler and materializes its intents.
    ///
    /// The handler's sends/timers land in the engine-owned scratch buffers
    /// (`self.outbox`/`self.timers`), which are fully drained before this
    /// returns — so the only recursion (`grant_cs` → `on_cs_granted`) sees
    /// them empty and can reuse them, and steady-state dispatch performs no
    /// allocation at all.
    fn dispatch(
        &mut self,
        node: NodeId,
        now: SimTime,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>),
    ) {
        debug_assert!(
            self.outbox.is_empty() && self.timers.is_empty(),
            "dispatch re-entered with undrained scratch buffers"
        );
        let mut enter = false;
        {
            let idx = node.index();
            let mut ctx = Ctx::new(
                node,
                now,
                &mut self.node_rngs[idx],
                &mut self.outbox,
                &mut enter,
                &mut self.timers,
            );
            f(&mut self.nodes[idx], &mut ctx);
        }
        for (delay, tag) in self.timers.drain(..) {
            self.queue
                .schedule(now + delay, EventKind::Timer { node, tag });
        }
        for (to, msg) in self.outbox.drain(..) {
            assert!(
                to.index() < self.cfg.n,
                "{node:?} sent to unknown node {to:?}"
            );
            if self.trace.enabled() {
                self.trace.record(TraceEvent::Send {
                    at: now,
                    from: node,
                    to,
                    kind: msg.kind(),
                    detail: format!("{msg:?}"),
                });
            }
            {
                let _p = crate::profile::probe(crate::profile::ProbePhase::Metrics);
                self.metrics.message_sent(msg.kind(), msg.wire_size());
            }
            // Loss first, before any delay is sampled: a lost message (and
            // its would-be duplicate) consumes no network randomness, so a
            // lossless plan leaves the RNG streams bit-identical to the
            // pre-loss engine.
            if self.cfg.faults.drops(self.metrics.messages_sent()) {
                self.metrics.message_lost();
                if self.trace.enabled() {
                    self.trace.record(TraceEvent::Lost {
                        at: now,
                        from: node,
                        to,
                    });
                }
                continue;
            }
            // Straggler endpoints stretch the sampled delay by a constant
            // factor (1 = inert), preserving per-channel FIFO under the
            // constant model.
            let factor = self.cfg.faults.delay_factor(node, to);
            let stretch = |d: SimDuration| SimDuration::from_ticks(d.ticks() * factor);
            let d = stretch(self.cfg.delay.sample(&mut self.net_rng));
            if self.cfg.faults.duplicates(self.metrics.messages_sent()) {
                let d2 = stretch(self.cfg.delay.sample(&mut self.net_rng));
                self.queue.schedule(
                    now + d2,
                    EventKind::Deliver {
                        from: node,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            self.queue.schedule(
                now + d,
                EventKind::Deliver {
                    from: node,
                    to,
                    msg,
                },
            );
        }
        if enter {
            self.grant_cs(node, now);
        }
    }

    fn grant_cs(&mut self, node: NodeId, now: SimTime) {
        assert!(
            !self.in_cs[node.index()],
            "{node:?} entered the CS it already holds"
        );
        self.monitor.enter(node, now);
        self.check_safety();
        if self.trace.enabled() {
            self.trace.record(TraceEvent::CsEnter { at: now, node });
        }
        self.in_cs[node.index()] = true;
        self.metrics.cs_entered(node, now);
        let exit_at = now + self.cfg.cs_duration;
        self.cs_epoch[node.index()] += 1;
        let epoch = self.cs_epoch[node.index()];
        self.queue
            .schedule(exit_at, EventKind::CsExit { node, epoch });
        self.dispatch(node, now, |p, ctx| p.on_cs_granted(ctx));
    }

    /// With `panic_on_violation`, panics at the first violation the
    /// monitor records, naming it.
    fn check_safety(&self) {
        if let Some(v) = self.monitor.violations().first() {
            if self.cfg.panic_on_violation {
                panic!("MUTUAL EXCLUSION VIOLATED: {v:?}");
            }
        }
    }

    /// Read-only access to a node, for white-box assertions in tests.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }
}

#[cfg(test)]
mod tests {
    //! Engine-level tests use a deliberately trivial "centralized permission"
    //! protocol: node 0 is the coordinator holding a queue. This exercises
    //! every engine path without depending on the real algorithms.

    use super::*;
    use crate::protocol::ProtocolMessage;
    use crate::workload::{BurstOnce, FixedTrace};
    use std::collections::VecDeque;

    #[derive(Clone, Debug)]
    enum CMsg {
        Ask,
        Grant,
        Done,
    }

    impl ProtocolMessage for CMsg {
        fn kind(&self) -> &'static str {
            match self {
                CMsg::Ask => "ASK",
                CMsg::Grant => "GRANT",
                CMsg::Done => "DONE",
            }
        }
    }

    /// Minimal centralized mutex: everyone asks node 0; node 0 serializes.
    struct Central {
        me: NodeId,
        queue: VecDeque<NodeId>,
        busy: bool,
    }

    impl Central {
        fn new(me: NodeId) -> Self {
            Central {
                me,
                queue: VecDeque::new(),
                busy: false,
            }
        }

        fn coordinator(&self) -> bool {
            self.me == NodeId::new(0)
        }

        fn pump(&mut self, ctx: &mut Ctx<'_, CMsg>) {
            if !self.busy {
                if let Some(next) = self.queue.pop_front() {
                    self.busy = true;
                    if next == self.me {
                        ctx.enter_cs();
                    } else {
                        ctx.send(next, CMsg::Grant);
                    }
                }
            }
        }
    }

    impl MutexProtocol for Central {
        type Message = CMsg;

        fn name(&self) -> &'static str {
            "central-test"
        }

        fn on_request(&mut self, ctx: &mut Ctx<'_, CMsg>) {
            if self.coordinator() {
                let me = self.me;
                self.queue.push_back(me);
                self.pump(ctx);
            } else {
                ctx.send(NodeId::new(0), CMsg::Ask);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: CMsg, ctx: &mut Ctx<'_, CMsg>) {
            match msg {
                CMsg::Ask => {
                    self.queue.push_back(from);
                    self.pump(ctx);
                }
                CMsg::Grant => ctx.enter_cs(),
                CMsg::Done => {
                    self.busy = false;
                    self.pump(ctx);
                }
            }
        }

        fn on_cs_released(&mut self, ctx: &mut Ctx<'_, CMsg>) {
            if self.coordinator() {
                self.busy = false;
                self.pump(ctx);
            } else {
                ctx.send(NodeId::new(0), CMsg::Done);
            }
        }
    }

    fn run_burst(n: usize, seed: u64, delay: DelayModel) -> SimReport {
        let mut cfg = SimConfig::paper(n, seed);
        cfg.delay = delay;
        Engine::new(cfg, BurstOnce, |id, _n| Central::new(id)).run()
    }

    #[test]
    fn burst_completes_all_requests() {
        let r = run_burst(8, 42, DelayModel::paper_constant());
        assert!(r.is_safe());
        assert!(r.all_completed());
        assert_eq!(r.metrics.completed(), 8);
        assert_eq!(r.cs_entries, 8);
        assert!(!r.deadlocked);
    }

    #[test]
    fn non_fifo_delivery_still_completes() {
        let r = run_burst(8, 7, DelayModel::paper_jittered());
        assert!(r.is_safe());
        assert_eq!(r.metrics.completed(), 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_burst(10, 123, DelayModel::paper_jittered());
        let b = run_burst(10, 123, DelayModel::paper_jittered());
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics.messages_sent(), b.metrics.messages_sent());
        assert_eq!(a.metrics.response_time(), b.metrics.response_time());
    }

    #[test]
    fn different_seeds_diverge_under_jitter() {
        let a = run_burst(10, 1, DelayModel::paper_jittered());
        let b = run_burst(10, 2, DelayModel::paper_jittered());
        // With 10 competing nodes and jittered delays some observable
        // quantity differs with overwhelming probability. The central test
        // protocol sends a fixed message count and end times quantize to
        // ticks, so the per-request response-time distribution is the
        // discriminating observable.
        assert!(
            a.end_time != b.end_time
                || a.metrics.messages_sent() != b.metrics.messages_sent()
                || a.metrics.response_time().mean != b.metrics.response_time().mean,
            "two different seeds produced identical runs"
        );
    }

    #[test]
    fn single_node_system() {
        let r = run_burst(1, 0, DelayModel::paper_constant());
        assert!(r.all_completed());
        assert_eq!(r.metrics.completed(), 1);
        assert_eq!(r.metrics.messages_sent(), 0);
        // Coordinator enters at t=0 and leaves at Tc.
        assert_eq!(r.end_time.ticks(), 10);
    }

    #[test]
    fn fixed_trace_sequencing() {
        let trace = FixedTrace::new(vec![
            (SimTime::from_ticks(0), NodeId::new(1)),
            (SimTime::from_ticks(100), NodeId::new(2)),
        ]);
        let cfg = SimConfig::paper(3, 9);
        let r = Engine::new(cfg, trace, |id, _| Central::new(id)).run();
        assert!(r.all_completed());
        assert_eq!(r.metrics.completed(), 2);
        // Light load: second request waited for nobody.
        let rt = r.metrics.response_time();
        assert_eq!(rt.count, 2);
        assert_eq!(rt.mean, 10.0); // Ask(5) + Grant(5) each
    }

    #[test]
    fn sync_gap_under_saturation_is_positive() {
        let r = run_burst(6, 3, DelayModel::paper_constant());
        let gaps = r.metrics.sync_gaps();
        assert!(!gaps.is_empty());
        // Central protocol: exit -> Done(5) -> Grant(5) = 10tu gaps for
        // non-coordinator handoffs.
        assert!(gaps.iter().all(|g| g.ticks() <= 10));
    }

    #[test]
    fn nme_matches_hand_count() {
        // 2 nodes: node1 asks (1), grant (1), done (1); node0 requests
        // locally (0 messages). Total 3 messages / 2 CS executions.
        let r = run_burst(2, 5, DelayModel::paper_constant());
        assert_eq!(r.metrics.messages_sent(), 3);
        assert_eq!(r.metrics.nme(), Some(1.5));
    }

    #[test]
    fn message_loss_is_counted_and_stays_safe() {
        // Central protocol with lost messages: the protocol wedges (no
        // retransmission), but the run terminates, reports the stall
        // honestly and never violates mutual exclusion.
        let mut cfg = SimConfig::paper(8, 42);
        cfg.faults = FaultPlan::losing(3);
        let r = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert!(r.is_safe());
        assert!(r.metrics.messages_lost() > 0);
        assert!(!r.truncated);
        assert!(
            r.deadlocked || r.metrics.completed() == 8,
            "loss must either stall (honestly reported) or be survived"
        );
    }

    #[test]
    fn straggler_slows_but_never_starves() {
        let fast = run_burst(8, 42, DelayModel::paper_constant());
        let mut cfg = SimConfig::paper(8, 42);
        cfg.faults = FaultPlan::straggler(NodeId::new(0), 10);
        let slow = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert!(slow.is_safe());
        assert!(slow.all_completed(), "a slow node is not a dead node");
        assert_eq!(slow.metrics.completed(), 8);
        assert!(
            slow.end_time > fast.end_time,
            "a 10x straggler coordinator must stretch the run ({} vs {})",
            slow.end_time,
            fast.end_time
        );
    }

    #[test]
    fn unit_straggler_factor_is_bit_identical() {
        let plain = run_burst(10, 7, DelayModel::paper_jittered());
        let mut cfg = SimConfig::paper(10, 7);
        cfg.delay = DelayModel::paper_jittered();
        cfg.faults = FaultPlan::straggler(NodeId::new(3), 1);
        let with = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert_eq!(plain.end_time, with.end_time);
        assert_eq!(plain.events, with.events);
        assert_eq!(plain.metrics.messages_sent(), with.metrics.messages_sent());
    }

    #[test]
    fn stacked_faults_compose_without_panic() {
        // No duplication here: the toy Central protocol has no idempotence
        // guards (a doubled Grant would re-enter the CS); duplication
        // stacking on the real algorithms is covered by the fault battery
        // and the scenario-matrix proptest.
        let mut cfg = SimConfig::paper(10, 3);
        cfg.delay = DelayModel::paper_jittered();
        cfg.faults = FaultPlan::losing(11)
            .with_straggler(NodeId::new(1), 4)
            .with_crash(NodeId::new(9), SimTime::from_ticks(500));
        let r = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert!(r.is_safe());
        assert!(!r.truncated, "stacked faults must still drain the queue");
    }

    #[test]
    fn crash_window_after_the_run_changes_nothing_but_the_clock() {
        // A window entirely beyond the workload's natural end: the run's
        // protocol behavior (messages, completions) must be bit-identical
        // to the fault-free run; only the clock runs on to the restart
        // event and the two window events are counted.
        let plain = run_burst(8, 42, DelayModel::paper_jittered());
        let mut cfg = SimConfig::paper(8, 42);
        cfg.delay = DelayModel::paper_jittered();
        cfg.faults = FaultPlan::crash_restart(
            NodeId::new(3),
            SimTime::from_ticks(1_000_000),
            SimTime::from_ticks(1_000_100),
        );
        let windowed = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert_eq!(windowed.metrics.completed(), plain.metrics.completed());
        assert_eq!(
            windowed.metrics.messages_sent(),
            plain.metrics.messages_sent()
        );
        assert_eq!(windowed.events, plain.events + 2);
        assert_eq!(windowed.metrics.crashes(), 1);
        assert_eq!(windowed.metrics.restarts(), 1);
        assert!(windowed.is_safe());
    }

    #[test]
    fn crashed_holder_in_window_is_evicted_not_an_occupant() {
        // Crash the coordinator inside its own CS hold. Central has no
        // recovery (`on_restart` default), so the system wedges — but the
        // monitor must not keep a dead process as occupant, the hold's
        // pending CsExit must not fire after the restart, and the crashed
        // node's own request must be retired as aborted.
        let mut cfg = SimConfig::paper(4, 5);
        cfg.trace_capacity = 256;
        // Coordinator (node 0) enters at t=0, exits at Tc=10: crash at 4.
        cfg.faults = FaultPlan::crash_restart(
            NodeId::new(0),
            SimTime::from_ticks(4),
            SimTime::from_ticks(40),
        );
        let r = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert!(r.is_safe());
        assert!(r.deadlocked, "no recovery: the stall is reported honestly");
        assert_eq!(r.metrics.requests_aborted(), 1);
        assert_eq!(r.metrics.completed(), 0);
        let text = r.trace.render();
        assert!(text.contains("N0 CRASHES while holding the CS"), "{text}");
        assert!(text.contains("N0 RESTARTS with pre-crash state"), "{text}");
    }

    #[test]
    fn report_flags_truncation() {
        let mut cfg = SimConfig::paper(8, 11);
        cfg.max_events = 3;
        let r = Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).run();
        assert!(r.truncated);
        assert!(!r.all_completed());
    }
}
