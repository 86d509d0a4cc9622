//! The discrete-event simulation engine.
//!
//! Drives `N` protocol state machines over a virtual network: pops events in
//! timestamp order, hands them to the owning node, and turns the node's
//! intents (sends, CS entry) back into future events. The engine is fully
//! deterministic for a given `(SimConfig, workload)` pair — delays and
//! protocol randomness come from seeded per-purpose RNG streams, and ties in
//! the event queue fire in insertion order.
//!
//! ## Windows
//!
//! A message takes at least [`DelayModel::min_ticks`] to arrive, a CS
//! lasts `Tc` and no timer is shorter than the shortest
//! [`MutexProtocol::min_timer_delay`] any node declares, so with `L` the
//! least of the three — fixed when the engine is built — nothing a node
//! does at time `t` takes effect before `t + L` (the conservative
//! lookahead of Chandy–Misra–Bryant parallel simulation). The loop
//! therefore takes a *window* at a time: the head event at `T` and every
//! later event before `T + L`, ending early in front of a `CsExit`,
//! `Crash` or `Restart` — those touch the workload or engine-wide state
//! and run as windows of their own. Most windows run *inline*: each event is popped, handled and
//! applied in turn, the one-event-at-a-time loop itself. A window whose
//! kind has measured enough handler time to pay for a second thread is
//! *split* into *lanes*, one per node holding events in it. The caller and
//! one helper thread take events from one shared scheduler: each pops the
//! lane whose next event comes first in window order, runs that one
//! handler with the lock released and puts the lane back. Events therefore
//! run in near-global window order whichever thread is free, and the
//! caller waits only for the helper's last event in flight. The caller
//! then *commits* the window: it walks the events in the exact
//! `(time, seq)` order of the sequential loop and applies each handler's
//! recorded intents — queue sequence numbers, network delay and fault
//! draws, metrics, the safety monitor, the trace, CS grants and exits. So
//! every report, trace and node state is bit-identical to the sequential
//! loop, whichever thread ran an event. With `L = 0` (exponential delay,
//! `Tc = 0`) every window is one event.
//!
//! No message, CS exit or timer lands inside the window that produced it,
//! so a lane runs all of its node's events and the commit only replays
//! them; a window holds at most the events left before `max_events`, so
//! the cut always falls between windows. A timer shorter than its node
//! declared would break that, and panics where the engine schedules it.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delay::DelayModel;
use crate::event::{Event, EventKind, EventQueue};
use crate::faults::FaultPlan;
use crate::ids::NodeId;
use crate::metrics::SimMetrics;
use crate::monitor::{SafetyMonitor, Violation};
use crate::profile::{self, PhaseCost, ProbePhase, PROBE_PHASES};
use crate::protocol::{Ctx, MutexProtocol, ProtocolMessage, RestartOutcome};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use crate::workload::{ArrivalSink, Workload};

/// Estimated handler time a window must hold before its lanes are split
/// across two threads. The helper joins a posted window tens of
/// microseconds late, every event takes the scheduler's lock twice, and
/// the caller may wait at the window's tail for the helper's last event:
/// only windows several times that long pay.
const SPLIT_NS: u64 = 200_000;

/// Average handler time per event below which a window is not split
/// whatever its size: scheduling an event on the shared queue and
/// committing what it produced costs more than a cheap handler saves.
const MIN_SPLIT_EVENT_NS: u64 = 2_000;

/// `lane_of` entry of a node without a lane in the current window.
const NO_LANE: u32 = u32::MAX;

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

/// A node's protocol state and its private randomness.
struct NodeState<P> {
    proto: P,
    rng: SmallRng,
}

/// One handler call a lane ran, as the commit replays it.
struct Call {
    /// The event time it ran at.
    at: SimTime,
    /// Messages it sent: the next entries of the lane's `outbox`.
    sends: u32,
    /// Timers it armed: the next entries of the lane's `timers`.
    timers: u32,
    /// It asked to enter the CS.
    enter: bool,
    /// What `on_restart` returned (`KeptState` for every other handler).
    restart: RestartOutcome,
}

/// What a lane's handlers asked for.
struct Intents<M> {
    /// Handler calls, and the messages and timers they produced, each in
    /// the order they happened — reversed once the lane has run, so the
    /// commit pops them from the back.
    calls: Vec<Call>,
    outbox: Vec<(NodeId, M)>,
    /// Each message's `wire_size`, measured where it was sent.
    sizes: Vec<usize>,
    timers: Vec<(SimDuration, u64)>,
}

impl<M> Default for Intents<M> {
    fn default() -> Self {
        Intents {
            calls: Vec::new(),
            outbox: Vec::new(),
            sizes: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl<M: ProtocolMessage> Intents<M> {
    fn clear(&mut self) {
        self.calls.clear();
        self.outbox.clear();
        self.sizes.clear();
        self.timers.clear();
    }

    /// Reverses what the handlers recorded, for the commit to pop.
    fn ready(&mut self) {
        self.calls.reverse();
        self.outbox.reverse();
        self.sizes.reverse();
        self.timers.reverse();
    }

    /// Runs the handler `ev` calls for, unless `faults` has the node down
    /// — the commit skips exactly the same events.
    fn handle<P: MutexProtocol<Message = M>>(
        &mut self,
        node: &mut NodeState<P>,
        ev: Event<M>,
        faults: &FaultPlan,
    ) {
        use RestartOutcome::KeptState;
        let id = ev.kind.node();
        let at = ev.at;
        match ev.kind {
            EventKind::Arrival { .. } | EventKind::Deliver { .. } | EventKind::Timer { .. }
                if faults.is_crashed(id, at) => {}
            EventKind::Arrival { .. } => self.call(node, id, at, |p, ctx| {
                p.on_request(ctx);
                KeptState
            }),
            EventKind::Deliver { from, msg, .. } => self.call(node, id, at, |p, ctx| {
                p.on_message(from, msg, ctx);
                KeptState
            }),
            EventKind::Timer { tag, .. } => self.call(node, id, at, |p, ctx| {
                p.on_timer(tag, ctx);
                KeptState
            }),
            EventKind::CsExit { .. } | EventKind::Crash { .. } | EventKind::Restart { .. } => {
                unreachable!("barriers run in windows of their own, inline")
            }
        }
    }

    /// Runs one handler and, if it asked to enter the CS, `on_cs_granted`
    /// right after, as the commit's grant will. Should that ask to enter
    /// again, the commit panics on the double grant before a third call.
    fn call<P: MutexProtocol<Message = M>>(
        &mut self,
        node: &mut NodeState<P>,
        id: NodeId,
        at: SimTime,
        f: impl FnOnce(&mut P, &mut Ctx<'_, M>) -> RestartOutcome,
    ) {
        if self.record(node, id, at, f) {
            self.record(node, id, at, |p, ctx| {
                p.on_cs_granted(ctx);
                RestartOutcome::KeptState
            });
        }
    }

    /// Runs `f` on the node, records the call and the size of each
    /// message it sent, and returns its CS intent.
    fn record<P: MutexProtocol<Message = M>>(
        &mut self,
        node: &mut NodeState<P>,
        id: NodeId,
        at: SimTime,
        f: impl FnOnce(&mut P, &mut Ctx<'_, M>) -> RestartOutcome,
    ) -> bool {
        let (sends, timers) = (self.outbox.len(), self.timers.len());
        let mut enter = false;
        let restart = {
            let mut ctx = Ctx::new(
                id,
                at,
                &mut node.rng,
                &mut self.outbox,
                &mut enter,
                &mut self.timers,
            );
            f(&mut node.proto, &mut ctx)
        };
        // Measured here, on the thread whose cache holds the message.
        for (_, msg) in &self.outbox[sends..] {
            let _p = profile::probe(ProbePhase::Metrics);
            self.sizes.push(msg.wire_size());
        }
        self.calls.push(Call {
            at,
            sends: (self.outbox.len() - sends) as u32,
            timers: (self.timers.len() - timers) as u32,
            enter,
            restart,
        });
        enter
    }
}

/// A delivery's message as the window loop applies it: the message itself
/// in an inline window, its class label once a lane has run it.
enum Carried<M> {
    Here(M),
    Ran(&'static str),
}

/// `kind`, its message (if any) carried to the handler.
fn carried<M>(kind: EventKind<M>) -> EventKind<Carried<M>> {
    match kind {
        EventKind::Deliver { from, to, msg } => EventKind::Deliver {
            from,
            to,
            msg: Carried::Here(msg),
        },
        kind => kind.map_msg(|_| unreachable!("only a delivery carries a message")),
    }
}

/// An event and its place in the window.
type Placed<M> = (u32, Event<M>);

/// A closed lane's buffers, kept for the next lane.
type Buffers<M> = (Vec<Placed<M>>, Intents<M>);

/// A node's share of a window: its state, moved to whichever thread runs
/// the lane, its events of the window, and what its handlers asked for.
struct Lane<P: MutexProtocol> {
    id: NodeId,
    node: NodeState<P>,
    /// Its events of the window, each with its place in the window; once
    /// the lane runs, reversed so the next one is last.
    events: Vec<Placed<P::Message>>,
    out: Intents<P::Message>,
}

impl<P: MutexProtocol> Lane<P> {
    /// Where the lane's next event falls in the window's `(time, seq)`
    /// order: by time, then by place in the window. `None` once the lane
    /// is done.
    fn next(&self) -> Option<(SimTime, u32)> {
        self.events.last().map(|&(i, ref e)| (e.at, i))
    }

    /// Runs the lane's next event under `faults`.
    fn step(&mut self, faults: &FaultPlan) {
        let (_, ev) = self.events.pop().expect("stepped a finished lane");
        self.out.handle(&mut self.node, ev, faults);
    }
}

/// Lane `i` of a window whose lanes are home.
fn home<P: MutexProtocol>(lanes: &mut [Option<Lane<P>>], i: u32) -> &mut Lane<P> {
    lanes[i as usize]
        .as_mut()
        .expect("lanes are home outside the scheduler")
}

/// The engine itself, generic over the protocol under test.
pub struct Engine<P: MutexProtocol, W: Workload> {
    cfg: SimConfig,
    /// Each node's state; out (`None`) only while a lane of the current
    /// window holds it.
    nodes: Vec<Option<NodeState<P>>>,
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
    /// Per-node flag: a request was outstanding when the node crashed; its
    /// bookkeeping re-opens at restart if the protocol resumes it.
    crash_aborted: Vec<bool>,
    events: u64,
    trace: Trace,
    /// The lookahead `L` in ticks: the least of the delay lower bound,
    /// `Tc` and every node's [`MutexProtocol::min_timer_delay`].
    lookahead: u64,
    /// Time of the last event processed: the report's end time.
    clock: SimTime,
    /// A split window as the commit sees it: its queued events in order,
    /// each message replaced by its class label (the message went to its
    /// lane).
    window: Vec<Event<&'static str>>,
    /// The intents of a handler an inline window runs, applied at once.
    scratch: Intents<P::Message>,
    /// End of the window: nothing its events produce lands before it.
    end: SimTime,
    /// The window's lanes, each home (`Some`) but while the scheduler
    /// holds them, and the index of each node's (or `NO_LANE`).
    lanes: Vec<Option<Lane<P>>>,
    lane_of: Vec<u32>,
    /// Buffers of past lanes, for reuse: the loop allocates nothing per
    /// event in steady state.
    spare: Vec<Buffers<P::Message>>,
    /// Estimated handler time a window must hold to be split.
    split_ns: u64,
    /// Measured handler cost of windows, by the kind of their head event
    /// (`Cost::slot`): a request can cost a hundred deliveries.
    costs: [Cost; 3],
}

impl<P: MutexProtocol + Send, W: Workload> Engine<P, W> {
    /// Builds an engine; `make_node(id, n)` constructs each protocol node.
    pub fn new(cfg: SimConfig, workload: W, mut make_node: impl FnMut(NodeId, usize) -> P) -> Self {
        assert!(cfg.n >= 1, "need at least one node");
        let mut seeder = SmallRng::seed_from_u64(cfg.seed);
        let node_rngs = (0..cfg.n)
            .map(|_| SmallRng::seed_from_u64(seeder.gen()))
            .collect::<Vec<_>>();
        let net_rng = SmallRng::seed_from_u64(seeder.gen());
        let wl_rng = SmallRng::seed_from_u64(seeder.gen());
        let nodes = NodeId::all(cfg.n)
            .zip(node_rngs)
            .map(|(id, rng)| {
                Some(NodeState {
                    proto: make_node(id, cfg.n),
                    rng,
                })
            })
            .collect::<Vec<_>>();
        let shortest_timer = nodes
            .iter()
            .filter_map(|n| n.as_ref()?.proto.min_timer_delay())
            .map(SimDuration::ticks)
            .min()
            .unwrap_or(u64::MAX);
        // Size the calendar queue's O(1) window to the common scheduling
        // distances: message delays (≤ Tn_max) and CS exits (Tc). Timers
        // and far-future arrivals overflow to the heap, which is correct,
        // just not O(1).
        let horizon = cfg.delay.max_ticks().max(cfg.cs_duration.ticks());
        if let Some(node) = cfg.faults.unknown_node(cfg.n) {
            panic!("fault plan names unknown {node:?}");
        }
        let mut queue = EventQueue::with_horizon(SimDuration::from_ticks(horizon));
        // Crash windows are driven by explicit events (eviction, restart
        // hook). Permanent crash-stops stay purely passive — exactly the
        // pre-window engine behavior, so legacy fault plans keep
        // bit-identical event counts and RNG streams.
        for w in &cfg.faults.restarts {
            queue.schedule(w.down_at, EventKind::Crash { node: w.node });
            queue.schedule(w.up_at, EventKind::Restart { node: w.node });
        }
        Engine {
            trace: Trace::with_capacity(cfg.trace_capacity),
            in_cs: vec![false; cfg.n],
            cs_epoch: vec![0; cfg.n],
            crash_aborted: vec![false; cfg.n],
            nodes,
            queue,
            net_rng,
            wl_rng,
            monitor: SafetyMonitor::new(),
            metrics: SimMetrics::new(),
            workload,
            sink: ArrivalSink::new(),
            events: 0,
            lookahead: cfg
                .delay
                .min_ticks()
                .min(cfg.cs_duration.ticks())
                .min(shortest_timer),
            clock: SimTime::ZERO,
            window: Vec::new(),
            scratch: Intents::default(),
            end: SimTime::ZERO,
            lanes: Vec::new(),
            lane_of: vec![NO_LANE; cfg.n],
            spare: Vec::new(),
            split_ns: SPLIT_NS,
            costs: [Cost::default(); 3],
            cfg,
        }
    }

    /// Sets the measured handler time (ns) a window must hold before the
    /// next one like it is split across two threads. `0` splits every
    /// window but a barrier into lanes from the first one — those with two
    /// or more lanes run on both threads, even on a one-CPU host;
    /// `u64::MAX` never splits. Results do not depend on it: this exists so
    /// tests can drive both paths.
    #[doc(hidden)]
    pub fn split_threshold(mut self, ns: u64) -> Self {
        self.split_ns = ns;
        self
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
        let (truncated, _windows) = self.run_windows();

        let deadlocked = !truncated && self.metrics.outstanding() > 0;
        // Move (not clone) the monitor's accumulated vectors into the report.
        let parts = self.monitor.into_parts();
        let report = SimReport {
            end_time: self.clock,
            events: self.events,
            deadlocked,
            truncated,
            violations: parts.violations,
            cs_entries: parts.entries,
            metrics: self.metrics,
            trace: self.trace,
        };
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| n.expect("every lane returned its node").proto)
            .collect();
        (report, nodes)
    }

    /// The event loop, one window at a time. Returns whether `max_events`
    /// cut the run, and how many windows it took.
    fn run_windows(&mut self) -> (bool, u64) {
        let _busy = Busy::enter();
        let shared = Shared::new(self.cfg.faults.clone());
        std::thread::scope(|scope| {
            let mut helper = Helper {
                scope,
                shared: &shared,
                link: Link::Unasked,
            };
            let mut windows = 0;
            let truncated = loop {
                let remaining = self.cfg.max_events - self.events;
                let Some((_, head)) = self.queue.peek() else {
                    break false;
                };
                if remaining == 0 {
                    // The event past the cap is popped and counted, and
                    // the run stops there.
                    let ev = self.queue.pop().expect("peeked");
                    self.count(ev.at);
                    break true;
                }
                let slot = Cost::slot(head);
                windows += 1;
                let split = (slot.is_some_and(|k| self.heavy(k)) && helper.up(self.split_ns == 0))
                    .then_some(&shared);
                self.run_window(slot, split, remaining);
            };
            helper.finish();
            (truncated, windows)
        })
    }

    /// Whether the next window, headed by an event of cost slot `slot`,
    /// should be split: the last measured window so headed held enough
    /// handler time to pay for a second thread, at a per-event cost the
    /// shared queue does not eat. (A threshold of 0 splits every window.)
    fn heavy(&self, slot: usize) -> bool {
        let cost = self.costs[slot];
        self.split_ns == 0
            || (cost.last_ns >= self.split_ns && cost.ns_per_event >= MIN_SPLIT_EVENT_NS)
    }

    /// Pops the window's next queued event, `taken` being popped so far:
    /// the head event at `T`, then every later one before `T + L` — cut
    /// early in front of a barrier or after `remaining` events. `None` at
    /// the window's end.
    fn pop_in_window(&mut self, taken: u64, remaining: u64) -> Option<Event<P::Message>> {
        if taken == 0 {
            let first = self.queue.pop()?;
            // A barrier runs alone: what it schedules, the workload's
            // arrivals included, may fire at once.
            self.end = if is_barrier(&first.kind) {
                first.at
            } else {
                SimTime::from_ticks(first.at.ticks().saturating_add(self.lookahead))
            };
            return Some(first);
        }
        let end = self.end;
        let mut cut = None;
        let ev = self.queue.pop_if(|at, kind| {
            if at < end && (is_barrier(kind) || taken == remaining) {
                cut = Some(at);
            }
            at < end && cut.is_none()
        });
        if let Some(at) = cut {
            self.end = at;
        }
        ev
    }

    /// Runs the next window, which holds at most `remaining` events:
    /// `split`, its lanes run from that scheduler on both threads and then
    /// committed; otherwise inline, each event popped and applied in turn
    /// exactly as a one-event-at-a-time loop would.
    fn run_window(&mut self, slot: Option<usize>, split: Option<&Shared<P>>, remaining: u64) {
        let mut taken = 0;
        let ns = if let Some(shared) = split {
            while let Some(ev) = self.pop_in_window(taken, remaining) {
                self.take(ev);
                taken += 1;
            }
            let ns = self.run_lanes(shared);
            {
                let _p = profile::probe(ProbePhase::Commit);
                self.commit();
            }
            self.close_window();
            ns
        } else {
            let mut t0 = None;
            while let Some(ev) = self.pop_in_window(taken, remaining) {
                taken += 1;
                if taken == 2 {
                    // Timed from the second event on, so one-event windows
                    // read no clock; the first event's share is
                    // extrapolated below.
                    t0 = Some(Instant::now());
                }
                self.count(ev.at);
                self.fire(ev.at, carried(ev.kind));
            }
            t0.map_or(0, |t| t.elapsed().as_nanos() as u64 * taken / (taken - 1))
        };
        if let (Some(slot), 2..) = (slot, taken) {
            self.costs[slot].measured(ns, taken);
        }
    }

    /// Takes an event of a split window: its label to `window`, the event
    /// itself to its node's lane. (A barrier is a window of its own, which
    /// never splits.)
    fn take(&mut self, ev: Event<P::Message>) {
        debug_assert!(!is_barrier(&ev.kind), "a barrier in a split window");
        self.window.push(Event {
            at: ev.at,
            kind: ev.kind.map_msg(ProtocolMessage::kind),
        });
        let place = self.window.len() as u32 - 1;
        self.lane(ev.kind.node()).events.push((place, ev));
    }

    /// `node`'s lane in this window, opened on first use.
    fn lane(&mut self, node: NodeId) -> &mut Lane<P> {
        let i = node.index();
        if self.lane_of[i] == NO_LANE {
            self.lane_of[i] = self.lanes.len() as u32;
            let (events, out) = self.spare.pop().unwrap_or_default();
            self.lanes.push(Some(Lane {
                id: node,
                node: self.nodes[i].take().expect("one lane per node"),
                events,
                out,
            }));
        }
        home(&mut self.lanes, self.lane_of[i])
    }

    /// Runs a split window's lanes from `shared`, on the caller and — if
    /// there are two or more — the helper, and returns the handler time
    /// measured. Re-raises a handler's panic.
    fn run_lanes(&mut self, shared: &Shared<P>) -> u64 {
        let mut sched = shared.lock();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let lane = lane.as_mut().expect("lanes are home until posted");
            lane.events.reverse();
            let head = lane.next().expect("a lane holds an event");
            sched.heads.push(Reverse((head, i)));
        }
        std::mem::swap(&mut sched.lanes, &mut self.lanes);
        sched.ns = 0;
        if sched.heads.len() > 1 && sched.helper_idle {
            sched.helper_idle = false;
            shared.wake.notify_one();
        }
        sched = shared.work(sched);
        let _idle = (sched.running > 0).then(|| profile::probe(ProbePhase::Wait));
        while sched.running > 0 {
            sched.caller_waits = true;
            sched = shared.wait(sched);
        }
        if let Some(payload) = sched.panic.take() {
            drop(sched);
            panic::resume_unwind(payload);
        }
        std::mem::swap(&mut sched.lanes, &mut self.lanes);
        sched.ns
    }

    /// Applies the window's events in `(time, seq)` order, each replaying
    /// the handler call its lane ran.
    fn commit(&mut self) {
        let window = std::mem::take(&mut self.window);
        for e in &window {
            self.count(e.at);
            self.fire(e.at, e.kind.map_msg(|&kind| Carried::Ran(kind)));
        }
        self.window = window;
        debug_assert!(
            self.events <= self.cfg.max_events,
            "a window ran past max_events"
        );
        debug_assert!(
            self.lanes.iter().flatten().all(|l| l.out.calls.is_empty()),
            "a lane ran a handler the commit did not replay"
        );
    }

    /// Counts an event about to run at `at` — or, past `max_events`, the
    /// one the run stops at (counted, as the cut event always was).
    fn count(&mut self, at: SimTime) {
        self.events += 1;
        self.clock = at;
    }

    /// Applies one event: the bookkeeping around its handler, and the
    /// handler's intents.
    fn fire(&mut self, now: SimTime, kind: EventKind<Carried<P::Message>>) {
        match kind {
            EventKind::Arrival { node } => self.handle_arrival(node, now),
            EventKind::Deliver { from, to, msg } => self.handle_deliver(from, to, msg, now),
            EventKind::CsExit { node, epoch } => self.handle_cs_exit(node, epoch, now),
            EventKind::Timer { node, tag } => self.handle_timer(node, tag, now),
            EventKind::Crash { node } => self.handle_crash(node, now),
            EventKind::Restart { node } => self.handle_restart(node, now),
        }
    }

    /// Returns every lane's node home and keeps its buffers.
    fn close_window(&mut self) {
        for lane in self.lanes.drain(..) {
            let mut lane = lane.expect("lanes are home for the close");
            let i = lane.id.index();
            self.lane_of[i] = NO_LANE;
            self.nodes[i] = Some(lane.node);
            lane.events.clear();
            lane.out.clear();
            self.spare.push((lane.events, lane.out));
        }
        self.window.clear();
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
        if self.cfg.faults.is_crashed(node, now) {
            return; // a crashed node issues nothing
        }
        self.trace.record(TraceEvent::Arrival { at: now, node });
        assert!(
            !self.metrics.has_outstanding(node),
            "workload violated the one-outstanding-request rule for {node:?}"
        );
        self.metrics.request_issued(node, now);
        self.dispatch(node, now, |p, ctx| {
            p.on_request(ctx);
            RestartOutcome::KeptState
        });
    }

    fn handle_deliver(&mut self, from: NodeId, to: NodeId, msg: Carried<P::Message>, now: SimTime) {
        let kind = match &msg {
            Carried::Here(msg) => msg.kind(),
            Carried::Ran(kind) => kind,
        };
        if self.cfg.faults.is_crashed(to, now) {
            self.metrics.message_dropped();
            self.trace.record(TraceEvent::Dropped { at: now, to });
            return;
        }
        self.trace.record(TraceEvent::Deliver {
            at: now,
            from,
            to,
            kind,
        });
        self.dispatch(to, now, |p, ctx| {
            let Carried::Here(msg) = msg else {
                unreachable!("a lane ran this delivery")
            };
            p.on_message(from, msg, ctx);
            RestartOutcome::KeptState
        });
    }

    fn handle_cs_exit(&mut self, node: NodeId, epoch: u64, now: SimTime) {
        if self.cfg.faults.is_crashed(node, now) {
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
        self.trace.record(TraceEvent::CsExit { at: now, node });
        self.in_cs[node.index()] = false;
        self.monitor.exit(node, now);
        self.check_safety();
        self.metrics.cs_exited(node, now);
        self.dispatch(node, now, |p, ctx| {
            p.on_cs_released(ctx);
            RestartOutcome::KeptState
        });
        self.workload
            .on_complete(node, now, &mut self.wl_rng, &mut self.sink);
        self.flush_arrivals();
    }

    fn handle_timer(&mut self, node: NodeId, tag: u64, now: SimTime) {
        if self.cfg.faults.is_crashed(node, now) {
            return;
        }
        self.trace.record(TraceEvent::Timer { at: now, node, tag });
        self.dispatch(node, now, |p, ctx| {
            p.on_timer(tag, ctx);
            RestartOutcome::KeptState
        });
    }

    /// Start of a crash window: the node dies *now*. If it held the CS it
    /// is evicted (a dead process occupies nothing) and its pending exit is
    /// invalidated; an outstanding request is retired from the metrics and
    /// remembered, for the protocol to resume at restart.
    fn handle_crash(&mut self, node: NodeId, now: SimTime) {
        self.metrics.node_crashed();
        let held = self.in_cs[node.index()];
        if held {
            self.in_cs[node.index()] = false;
            self.cs_epoch[node.index()] += 1;
            self.monitor.evict(node);
        }
        self.crash_aborted[node.index()] = self.metrics.request_aborted(node);
        self.trace.record(TraceEvent::Crashed {
            at: now,
            node,
            held_cs: held,
        });
    }

    /// End of a crash window: run the protocol's restart hook; if it
    /// rejoined with the request the crash interrupted, re-open that
    /// request's bookkeeping.
    fn handle_restart(&mut self, node: NodeId, now: SimTime) {
        self.metrics.node_restarted();
        let outcome = self.dispatch(node, now, |p, ctx| p.on_restart(ctx));
        self.trace.record(TraceEvent::Restarted {
            at: now,
            node,
            recovered: outcome.recovered(),
        });
        let interrupted = std::mem::take(&mut self.crash_aborted[node.index()]);
        if outcome.recovered() && interrupted {
            // The protocol resumed its interrupted request; track it as a
            // fresh lifecycle starting now (down time is recovery, not
            // protocol wait, so it must not pollute response times).
            self.metrics.request_resumed(node, now);
        }
    }

    /// Materializes a handler call — run now by `f` in an inline window,
    /// or the next call `node`'s lane ran in a split one: its timers, then
    /// its messages, then its CS entry. Returns what `on_restart` said, if
    /// that was the handler.
    fn dispatch(
        &mut self,
        node: NodeId,
        now: SimTime,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>) -> RestartOutcome,
    ) -> RestartOutcome {
        let lane = self.lane_of[node.index()];
        let out = match lane {
            NO_LANE => {
                let state = self.nodes[node.index()]
                    .as_mut()
                    .expect("a node without a lane is home");
                self.scratch.record(state, node, now, f);
                self.scratch.ready();
                &mut self.scratch
            }
            _ => &mut home(&mut self.lanes, lane).out,
        };
        let call = out
            .calls
            .pop()
            .expect("the lane ran every handler the commit replays");
        debug_assert_eq!(call.at, now, "{node:?} replays a call out of order");
        for _ in 0..call.timers {
            let (delay, tag) = out.timers.pop().expect("recorded timer");
            // Inline or split alike: a shorter timer could fire inside the
            // window that armed it, before events a lane already ran.
            assert!(
                delay.ticks() >= self.lookahead,
                "{node:?} armed a {}-tick timer, shorter than its min_timer_delay",
                delay.ticks()
            );
            self.queue
                .schedule(now + delay, EventKind::Timer { node, tag });
        }
        for _ in 0..call.sends {
            let (to, msg) = out.outbox.pop().expect("recorded message");
            let size = out.sizes.pop().expect("measured message");
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
            self.metrics.message_sent(msg.kind(), size);
            // Loss first, before any delay is sampled: a lost message (and
            // its would-be duplicate) consumes no network randomness, so a
            // lossless plan leaves the RNG streams bit-identical to the
            // pre-loss engine.
            if self.cfg.faults.drops(self.metrics.messages_sent()) {
                self.metrics.message_lost();
                self.trace.record(TraceEvent::Lost {
                    at: now,
                    from: node,
                    to,
                });
                continue;
            }
            // Straggler endpoints stretch the sampled delay by a constant
            // factor (1 = inert), preserving per-channel FIFO under the
            // constant model — and never below the lookahead.
            let factor = self.cfg.faults.delay_factor(node, to);
            let stretch = |d: SimDuration| SimDuration::from_ticks(d.ticks() * factor);
            let d = stretch(self.cfg.delay.sample(&mut self.net_rng));
            if self.cfg.faults.duplicates(self.metrics.messages_sent()) {
                let d2 = stretch(self.cfg.delay.sample(&mut self.net_rng));
                debug_assert!(now + d2 >= self.end, "a copy landed inside its window");
                self.queue.schedule(
                    now + d2,
                    EventKind::Deliver {
                        from: node,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            debug_assert!(now + d >= self.end, "a message landed inside its window");
            self.queue.schedule(
                now + d,
                EventKind::Deliver {
                    from: node,
                    to,
                    msg,
                },
            );
        }
        if call.enter {
            self.grant_cs(node, now);
        }
        call.restart
    }

    fn grant_cs(&mut self, node: NodeId, now: SimTime) {
        assert!(
            !self.in_cs[node.index()],
            "{node:?} entered the CS it already holds"
        );
        self.monitor.enter(node, now);
        self.check_safety();
        self.trace.record(TraceEvent::CsEnter { at: now, node });
        self.in_cs[node.index()] = true;
        self.metrics.cs_entered(node, now);
        let exit_at = now + self.cfg.cs_duration;
        self.cs_epoch[node.index()] += 1;
        let epoch = self.cs_epoch[node.index()];
        self.queue
            .schedule(exit_at, EventKind::CsExit { node, epoch });
        self.dispatch(node, now, |p, ctx| {
            p.on_cs_granted(ctx);
            RestartOutcome::KeptState
        });
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
            .as_ref()
            .expect("nodes are home between windows")
            .proto
    }
}

/// Measured handler cost of the windows headed by one kind of event.
#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    /// Exponential average of handler time per queued event (0 until the
    /// first measured window).
    ns_per_event: u64,
    /// Handler time of the last measured window.
    last_ns: u64,
}

impl Cost {
    /// The cost slot of windows headed by `kind`; barriers run inline and
    /// have none.
    fn slot<M>(kind: &EventKind<M>) -> Option<usize> {
        match kind {
            EventKind::Arrival { .. } => Some(0),
            EventKind::Deliver { .. } => Some(1),
            EventKind::Timer { .. } => Some(2),
            EventKind::CsExit { .. } | EventKind::Crash { .. } | EventKind::Restart { .. } => None,
        }
    }

    /// Folds in a window of `events` queued events that took `ns`. A
    /// sample counts for at most twice the estimate, so one window the
    /// host preempted cannot start the helper for a cheap protocol.
    fn measured(&mut self, ns: u64, events: u64) {
        let sample = match self.ns_per_event {
            0 => ns / events,
            est => (ns / events).min(2 * est),
        };
        self.last_ns = sample * events;
        // Exponential average, weight 1/4.
        self.ns_per_event = match self.ns_per_event {
            0 => sample,
            est => est - est / 4 + sample / 4,
        };
    }
}

/// Whether an event runs as a window of its own.
fn is_barrier<M>(kind: &EventKind<M>) -> bool {
    matches!(
        kind,
        EventKind::CsExit { .. } | EventKind::Crash { .. } | EventKind::Restart { .. }
    )
}

/// Threads of this process running engine work: every running engine's
/// caller and every helper. A helper starts only while fewer are busy than
/// there are CPUs, so a sweep that already runs an engine per CPU gets no
/// helpers to crowd it.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One busy thread, counted in [`BUSY`] until dropped.
struct Busy;

impl Busy {
    fn enter() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy
    }

    /// A slot for one more thread, if a CPU is free (`forced`: regardless).
    fn spare(forced: bool) -> Option<Busy> {
        // Asked once per process: the answer reads cgroup files.
        static CPUS: OnceLock<usize> = OnceLock::new();
        let cpus =
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let slot = Busy::enter();
        (forced || BUSY.load(Ordering::Relaxed) <= cpus).then_some(slot)
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A split window's lanes as both threads take them.
struct Shared<P: MutexProtocol> {
    sched: Mutex<Sched<P>>,
    /// Wakes the idle helper when a window is posted or the run ends, and
    /// the waiting caller when the helper's last event in flight is back.
    wake: Condvar,
    /// The run's fault plan, which says when a lane's node is down.
    faults: FaultPlan,
}

struct Sched<P: MutexProtocol> {
    /// The posted window's lanes; out (`None`) while a thread runs one.
    lanes: Vec<Option<Lane<P>>>,
    /// The next event of every lane that is in and not done, keyed by its
    /// place in the window's `(time, seq)` order.
    heads: BinaryHeap<Reverse<((SimTime, u32), usize)>>,
    /// Events running with the lock released.
    running: u32,
    /// Handler time the window has measured so far.
    ns: u64,
    /// The first handler panic, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// The helper is blocked waiting for a window.
    helper_idle: bool,
    /// The caller is blocked waiting for the last event in flight.
    caller_waits: bool,
    /// The run is over (or unwinding): the helper returns.
    quit: bool,
}

impl<P: MutexProtocol> Shared<P> {
    fn new(faults: FaultPlan) -> Self {
        Shared {
            sched: Mutex::new(Sched {
                lanes: Vec::new(),
                heads: BinaryHeap::new(),
                running: 0,
                ns: 0,
                panic: None,
                helper_idle: false,
                caller_waits: false,
                quit: false,
            }),
            wake: Condvar::new(),
            faults,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Sched<P>> {
        // Handler panics are caught outside the lock; an unwinding caller
        // must still reach the helper to stop it.
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tells the helper to return once it is between events.
    fn quit(&self) {
        self.lock().quit = true;
        self.wake.notify_one();
    }

    fn wait<'a>(&self, sched: MutexGuard<'a, Sched<P>>) -> MutexGuard<'a, Sched<P>> {
        self.wake
            .wait(sched)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The loop both threads run: take the lane whose next event comes
    /// first, run that event with the lock released (so a node copies a
    /// table it shares with a message in flight as rarely as the
    /// sequential loop does), put the lane back — until no lane is left to
    /// take.
    fn work<'a>(&'a self, mut sched: MutexGuard<'a, Sched<P>>) -> MutexGuard<'a, Sched<P>> {
        while let Some(Reverse((_, i))) = sched.heads.pop() {
            let mut lane = sched.lanes[i].take().expect("a lane with a head is in");
            sched.running += 1;
            drop(sched);
            let t0 = Instant::now();
            let ran = panic::catch_unwind(AssertUnwindSafe(|| lane.step(&self.faults)));
            let ns = t0.elapsed().as_nanos() as u64;
            sched = self.lock();
            sched.running -= 1;
            sched.ns += ns;
            match ran {
                Err(payload) => {
                    sched.heads.clear();
                    sched.panic.get_or_insert(payload);
                }
                Ok(()) => match lane.next() {
                    Some(head) => sched.heads.push(Reverse((head, i))),
                    None => lane.out.ready(),
                },
            }
            sched.lanes[i] = Some(lane);
        }
        if sched.running == 0 && sched.caller_waits {
            sched.caller_waits = false;
            self.wake.notify_one();
        }
        sched
    }
}

/// The second thread. Spawned the first time a window pays for it; runs
/// the scheduler's loop whenever it is awake, blocks between windows, and
/// returns its profile accumulators when told to quit.
struct Helper<'scope, 'env, P: MutexProtocol> {
    scope: &'scope Scope<'scope, 'env>,
    shared: &'scope Shared<P>,
    link: Link<'scope>,
}

enum Link<'scope> {
    /// No window has paid for a second thread yet.
    Unasked,
    /// No CPU was free when one did.
    Absent,
    Up(ScopedJoinHandle<'scope, [PhaseCost; PROBE_PHASES]>),
}

impl<'scope, 'env, P: MutexProtocol + Send + 'scope> Helper<'scope, 'env, P> {
    /// Whether the helper runs, spawning it on first use if a CPU is free
    /// (`forced`: regardless).
    fn up(&mut self, forced: bool) -> bool {
        if let Link::Unasked = self.link {
            let Some(slot) = Busy::spare(forced) else {
                self.link = Link::Absent;
                return false;
            };
            let shared = self.shared;
            self.link = Link::Up(self.scope.spawn(move || {
                let _slot = slot;
                let mut sched = shared.lock();
                loop {
                    sched = shared.work(sched);
                    if sched.quit {
                        break;
                    }
                    sched.helper_idle = true;
                    sched = shared.wait(sched);
                }
                drop(sched);
                profile::take()
            }));
        }
        matches!(self.link, Link::Up(_))
    }

    /// Stops the helper, if it ran, and adds its profile accumulators to
    /// the caller's.
    fn finish(mut self) {
        if let Link::Up(thread) = std::mem::replace(&mut self.link, Link::Absent) {
            self.shared.quit();
            profile::absorb(thread.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
    }
}

impl<P: MutexProtocol> Drop for Helper<'_, '_, P> {
    /// A caller unwinding past a live helper stops it, or the scope's join
    /// would wait for it forever.
    fn drop(&mut self) {
        if let Link::Up(_) = self.link {
            self.shared.quit();
        }
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

    /// Test protocol with no coordination at all: a request enters the CS
    /// at once and sends one note to the next node, which ignores it. Runs
    /// with `panic_on_violation` off; it exists to push messages through
    /// the network under faults no real algorithm here tolerates.
    #[derive(Debug)]
    struct Chatter {
        me: NodeId,
        n: usize,
        heard: u64,
    }

    impl MutexProtocol for Chatter {
        type Message = CMsg;

        fn name(&self) -> &'static str {
            "chatter-test"
        }

        fn on_request(&mut self, ctx: &mut Ctx<'_, CMsg>) {
            let next = NodeId::new(((self.me.index() + 1) % self.n) as u32);
            ctx.send(next, CMsg::Ask);
            ctx.enter_cs();
        }

        fn on_message(&mut self, _from: NodeId, _msg: CMsg, _ctx: &mut Ctx<'_, CMsg>) {
            self.heard += 1;
        }

        fn on_cs_released(&mut self, _ctx: &mut Ctx<'_, CMsg>) {}
    }

    /// Every node of an `n`-node system requests every 20 ticks, nodes a
    /// tick apart, for `rounds` rounds.
    fn staggered(n: usize, rounds: u64) -> FixedTrace {
        FixedTrace::new(
            (0..rounds)
                .flat_map(|k| {
                    (0..n).map(move |i| {
                        (
                            SimTime::from_ticks(20 * k + i as u64),
                            NodeId::new(i as u32),
                        )
                    })
                })
                .collect(),
        )
    }

    /// Arms an `armed`-tick timer at every request and declares `declared`
    /// as its shortest; never enters the CS.
    struct Timed {
        declared: Option<u64>,
        armed: u64,
    }

    impl MutexProtocol for Timed {
        type Message = CMsg;

        fn name(&self) -> &'static str {
            "timed-test"
        }

        fn on_request(&mut self, ctx: &mut Ctx<'_, CMsg>) {
            ctx.set_timer(SimDuration::from_ticks(self.armed), 0);
        }

        fn on_message(&mut self, _from: NodeId, _msg: CMsg, _ctx: &mut Ctx<'_, CMsg>) {}

        fn on_cs_released(&mut self, _ctx: &mut Ctx<'_, CMsg>) {}

        fn min_timer_delay(&self) -> Option<SimDuration> {
            self.declared.map(SimDuration::from_ticks)
        }
    }

    #[test]
    fn lookahead_is_the_delay_bound_capped_by_tc() {
        let lookahead = |delay: DelayModel, tc: u64, declared: Option<u64>| {
            let mut cfg = SimConfig::paper(3, 1);
            cfg.delay = delay;
            cfg.cs_duration = SimDuration::from_ticks(tc);
            Engine::new(cfg, BurstOnce, |_, _| Timed { declared, armed: 9 }).lookahead
        };
        assert_eq!(lookahead(DelayModel::paper_constant(), 10, None), 5);
        assert_eq!(lookahead(DelayModel::paper_jittered(), 10, None), 1);
        assert_eq!(
            lookahead(DelayModel::Exponential { mean: 5.0, cap: 20 }, 10, None),
            0
        );
        assert_eq!(lookahead(DelayModel::paper_constant(), 3, None), 3);
        assert_eq!(lookahead(DelayModel::paper_constant(), 0, None), 0);
        // A declared timer bound caps it too, and only when shorter.
        assert_eq!(lookahead(DelayModel::paper_constant(), 10, Some(2)), 2);
        assert_eq!(lookahead(DelayModel::paper_constant(), 10, Some(7)), 5);
    }

    /// Declares 3-tick timers, arms 1-tick ones: fails where the timer is
    /// scheduled, whichever way the window runs.
    fn arm_under_the_declared_bound(split_ns: u64) {
        Engine::new(SimConfig::paper(4, 0), BurstOnce, |_, _| Timed {
            declared: Some(3),
            armed: 1,
        })
        .split_threshold(split_ns)
        .run();
    }

    #[test]
    #[should_panic(expected = "armed a 1-tick timer, shorter than its min_timer_delay")]
    fn an_undeclared_short_timer_panics_split() {
        arm_under_the_declared_bound(0);
    }

    #[test]
    #[should_panic(expected = "armed a 1-tick timer, shorter than its min_timer_delay")]
    fn an_undeclared_short_timer_panics_inline() {
        arm_under_the_declared_bound(u64::MAX);
    }

    #[test]
    fn no_lookahead_means_one_event_windows() {
        let windows = |delay: DelayModel, tc: u64| {
            let mut cfg = SimConfig::paper(8, 3);
            cfg.delay = delay;
            cfg.cs_duration = SimDuration::from_ticks(tc);
            let mut e = Engine::new(cfg, BurstOnce, |id, _| Central::new(id));
            e.workload.init(e.cfg.n, &mut e.wl_rng, &mut e.sink);
            e.flush_arrivals();
            let (truncated, windows) = e.run_windows();
            assert!(!truncated && e.metrics.outstanding() == 0);
            (windows, e.events)
        };
        let (w, events) = windows(DelayModel::Exponential { mean: 5.0, cap: 20 }, 10);
        assert_eq!(w, events, "exponential delay");
        let (w, events) = windows(DelayModel::paper_constant(), 0);
        assert_eq!(w, events, "Tc = 0");
        // The paper's model does batch: the opening burst is one window.
        let (w, events) = windows(DelayModel::paper_constant(), 10);
        assert!(w < events, "{w} windows for {events} events");
    }

    #[test]
    fn stretched_and_copied_messages_land_past_their_window() {
        // The commit asserts (in debug builds) that every message, copy or
        // not, lands at or after the end of the window it was sent from;
        // stragglers and duplicates must not break it, split or inline.
        for delay in [DelayModel::paper_constant(), DelayModel::paper_jittered()] {
            let run = |split_ns: u64| {
                let mut cfg = SimConfig::paper(9, 4);
                cfg.delay = delay.clone();
                cfg.panic_on_violation = false;
                cfg.trace_capacity = 1 << 12;
                cfg.faults = FaultPlan::none()
                    .with_duplication(2)
                    .with_straggler(NodeId::new(1), 3)
                    .with_straggler(NodeId::new(6), 7);
                let (r, nodes) = Engine::new(cfg, staggered(9, 6), |id, n| Chatter {
                    me: id,
                    n,
                    heard: 0,
                })
                .split_threshold(split_ns)
                .run_collecting();
                assert!(r.metrics.messages_sent() > 0 && !r.truncated);
                format!("{r:?} {nodes:?}")
            };
            assert_eq!(run(0), run(u64::MAX), "{delay:?}");
        }
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
