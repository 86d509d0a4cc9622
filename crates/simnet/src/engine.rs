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
//! A message takes at least [`DelayModel::min_ticks`] to arrive and a CS
//! lasts `Tc`, so with `L = min(that, Tc)` nothing a node does at time `t`
//! reaches another node before `t + L` (the conservative lookahead of
//! Chandy–Misra–Bryant parallel simulation). The loop therefore takes a
//! *window* at a time: the head event at `T` and every later event before
//! `T + L`, ending early in front of a `CsExit`, `Crash` or `Restart` —
//! those touch the workload or engine-wide state and run as windows of
//! their own. Most windows run *inline*: each event is popped, handled and
//! applied in turn, the one-event-at-a-time loop itself. A window whose
//! kind has measured enough handler time to pay for a hand-off is *split*:
//! each node's share of it, its *lane*, runs the node's handlers on the
//! calling thread or on one helper thread. The caller then *commits* the
//! window: it walks the events in the exact `(time, seq)` order of the
//! sequential loop and applies each handler's recorded intents — queue
//! sequence numbers, network delay and fault draws, metrics, the safety
//! monitor, the trace, CS grants and exits. So every report, trace and
//! node state is bit-identical to the sequential loop, whichever thread
//! ran a lane. With `L = 0` (exponential delay, `Tc = 0`) every window is
//! one event.
//!
//! A timer can fire inside the window that arms it, so `L` also drops to
//! the shortest timer delay armed so far. A lane stops at a handler that
//! arms a shorter one, and the commit runs that timer and the node's later
//! events itself. The first such timer is the one case where a
//! `max_events` cut inside the window could fall before an event another
//! lane already ran.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;
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
use crate::profile::{self, PhaseCost, PROBE_PHASES};
use crate::protocol::{Ctx, MutexProtocol, ProtocolMessage, RestartOutcome};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use crate::workload::{ArrivalSink, Workload};

/// Estimated handler time a window must hold before its lanes are split
/// across two threads. A hand-off costs tens of microseconds of wake-up
/// latency each way, so only windows several times that long pay.
const SPLIT_NS: u64 = 200_000;

/// Average handler time per event below which a window is not split
/// whatever its size: dealing an event to the other thread and committing
/// what it produced there costs more than a cheap handler saves.
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
    timers: Vec<(SimDuration, u64)>,
    /// A handler armed a timer that fires inside the window.
    inside: bool,
}

impl<M> Default for Intents<M> {
    fn default() -> Self {
        Intents {
            calls: Vec::new(),
            outbox: Vec::new(),
            timers: Vec::new(),
            inside: false,
        }
    }
}

impl<M: ProtocolMessage> Intents<M> {
    fn clear(&mut self) {
        self.calls.clear();
        self.outbox.clear();
        self.timers.clear();
        self.inside = false;
    }

    /// Runs the handler `ev` calls for, unless the node is down (`down` is
    /// its crash schedule) — the commit skips exactly the same events.
    fn handle<P: MutexProtocol<Message = M>>(
        &mut self,
        node: &mut NodeState<P>,
        ev: Event<M>,
        down: &[(SimTime, SimTime)],
        end: SimTime,
    ) {
        use RestartOutcome::KeptState;
        let id = ev.kind.node();
        let at = ev.at;
        match ev.kind {
            EventKind::Arrival { .. } | EventKind::Deliver { .. } | EventKind::Timer { .. }
                if is_down(down, at) => {}
            EventKind::Arrival { .. } => self.call(node, id, at, end, |p, ctx| {
                p.on_request(ctx);
                KeptState
            }),
            EventKind::Deliver { from, msg, .. } => self.call(node, id, at, end, |p, ctx| {
                p.on_message(from, msg, ctx);
                KeptState
            }),
            EventKind::Timer { tag, .. } => self.call(node, id, at, end, |p, ctx| {
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
        end: SimTime,
        f: impl FnOnce(&mut P, &mut Ctx<'_, M>) -> RestartOutcome,
    ) {
        if self.record(node, id, at, end, f) {
            self.record(node, id, at, end, |p, ctx| {
                p.on_cs_granted(ctx);
                RestartOutcome::KeptState
            });
        }
    }

    /// Runs `f` on the node, records the call and returns its CS intent;
    /// notes a timer armed to fire before `end`.
    fn record<P: MutexProtocol<Message = M>>(
        &mut self,
        node: &mut NodeState<P>,
        id: NodeId,
        at: SimTime,
        end: SimTime,
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
        self.inside |= self.timers[timers..]
            .iter()
            .any(|&(delay, _)| at + delay < end);
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
/// A lane stops after a handler arms a timer that fires inside the window:
/// the commit runs the timer and the node's later events itself, in order.
struct Lane<P: MutexProtocol> {
    id: NodeId,
    node: NodeState<P>,
    /// Its events of the window, each with its place in the window; once
    /// the lane runs, reversed so the next one is last.
    events: Vec<Placed<P::Message>>,
    /// Events the lane ran, and events the commit has reached so far.
    ran: u32,
    seen: u32,
    out: Intents<P::Message>,
}

impl<P: MutexProtocol> Lane<P> {
    /// Where the lane's next event falls in the window's `(time, seq)`
    /// order: by time, then by place in the window. `None` once the lane
    /// is done or stopped.
    fn next(&self) -> Option<(SimTime, u32)> {
        match self.events.last() {
            Some(&(i, ref e)) if !self.out.inside => Some((e.at, i)),
            _ => None,
        }
    }

    /// Runs the lane's next event; `down` is the node's crash schedule.
    fn step(&mut self, down: &[(SimTime, SimTime)], end: SimTime) {
        let (_, ev) = self.events.pop().expect("stepped a finished lane");
        self.ran += 1;
        self.out.handle(&mut self.node, ev, down, end);
    }
}

/// Runs one thread's lanes of a window, interleaving their events in
/// window order as the sequential loop would (so a node copies a table it
/// shares with a message in flight as rarely as there).
fn run_share<P: MutexProtocol>(
    lanes: &mut [Lane<P>],
    crash_sched: &[Vec<(SimTime, SimTime)>],
    end: SimTime,
) {
    for lane in lanes.iter_mut() {
        lane.events.reverse();
    }
    let mut heads: BinaryHeap<_> = lanes
        .iter()
        .enumerate()
        .filter_map(|(i, l)| Some(Reverse((l.next()?, i))))
        .collect();
    while let Some(Reverse((_, i))) = heads.pop() {
        let lane = &mut lanes[i];
        lane.step(&crash_sched[lane.id.index()], end);
        if let Some(key) = lane.next() {
            heads.push(Reverse((key, i)));
        }
    }
    for lane in lanes {
        lane.out.calls.reverse();
        lane.out.outbox.reverse();
        lane.out.timers.reverse();
    }
}

/// Index and time of the earliest of `times`, the first one on ties.
fn first_due(times: impl Iterator<Item = SimTime>) -> Option<(usize, SimTime)> {
    times.enumerate().min_by_key(|&(_, at)| at)
}

/// Whether a node with crash schedule `sched` is down at `now`.
#[inline]
fn is_down(sched: &[(SimTime, SimTime)], now: SimTime) -> bool {
    sched.iter().any(|&(down, up)| now >= down && now < up)
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
    /// The lookahead `L` in ticks: `min(delay lower bound, Tc)`, lowered
    /// to the shortest timer delay any handler has armed so far.
    lookahead: u64,
    /// Time of the last event processed: the report's end time.
    clock: SimTime,
    /// A split window as the commit sees it: its queued events in order,
    /// each message replaced by its class label (the message went to its
    /// lane).
    window: Vec<Event<&'static str>>,
    /// The intents of a handler an inline window runs, applied at once.
    scratch: Intents<P::Message>,
    /// End of the window: a timer armed for before it fires inside it.
    end: SimTime,
    /// In-window timers of the split window, in arming order.
    due: Vec<(SimTime, NodeId, u64)>,
    /// The window's lanes, and the index of each node's (or `NO_LANE`).
    lanes: Vec<Lane<P>>,
    lane_of: Vec<u32>,
    /// Buffers of past lanes, for reuse: the loop allocates nothing per
    /// event in steady state.
    spare: Vec<Buffers<P::Message>>,
    /// Scratch for dealing lanes to the two threads.
    dealt: Vec<Lane<P>>,
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
            .collect();
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
            queue,
            net_rng,
            wl_rng,
            monitor: SafetyMonitor::new(),
            metrics: SimMetrics::new(),
            workload,
            sink: ArrivalSink::new(),
            events: 0,
            lookahead: cfg.delay.min_ticks().min(cfg.cs_duration.ticks()),
            clock: SimTime::ZERO,
            window: Vec::new(),
            scratch: Intents::default(),
            end: SimTime::ZERO,
            due: Vec::new(),
            lanes: Vec::new(),
            lane_of: vec![NO_LANE; cfg.n],
            spare: Vec::new(),
            dealt: Vec::new(),
            split_ns: SPLIT_NS,
            costs: [Cost::default(); 3],
            cfg,
        }
    }

    /// Sets the measured handler time (ns) a window must hold before the
    /// next one like it is split across two threads. `0` deals every window
    /// but a barrier to lanes from the first one — those with two or more
    /// lanes to both threads, even on a one-CPU host; `u64::MAX` never
    /// splits. Results do not depend on it: this exists so tests can drive
    /// both paths.
    #[doc(hidden)]
    pub fn split_threshold(mut self, ns: u64) -> Self {
        self.split_ns = ns;
        self
    }

    /// Whether `node` is inside a crash interval at `now` (precomputed
    /// schedule; O(1) for fault-free and single-crash plans).
    #[inline]
    fn node_down(&self, node: NodeId, now: SimTime) -> bool {
        is_down(&self.crash_sched[node.index()], now)
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
        std::thread::scope(|scope| {
            let mut helper = Helper::new(scope);
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
                let split = slot.is_some_and(|k| self.heavy(k))
                    && helper.up(self.split_ns == 0, &self.crash_sched);
                if !self.run_window(slot, split, &mut helper, remaining) {
                    break true;
                }
            };
            if let Some(costs) = helper.finish() {
                profile::absorb(costs);
            }
            (truncated, windows)
        })
    }

    /// Whether the next window, headed by an event of cost slot `slot`,
    /// should be split: the last measured window so headed held a
    /// hand-off's worth of handler time, at a per-event cost the transfer
    /// does not eat. (A threshold of 0 splits every window.)
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
            // A barrier runs alone, and arms no timer inside its window:
            // what it schedules, the workload's arrivals included, may fire
            // at once.
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

    /// Runs the next window: `split`, dealt to lanes on both threads and
    /// then committed; otherwise inline, each event popped and applied in
    /// turn exactly as a one-event-at-a-time loop would (its in-window
    /// timers join the queue and pop in order). The window holds at most
    /// `remaining` queued events. False if the run hit `max_events` inside
    /// the window.
    fn run_window<'s>(
        &mut self,
        slot: Option<usize>,
        split: bool,
        helper: &mut Helper<'s, '_, P>,
        remaining: u64,
    ) -> bool
    where
        P: 's,
    {
        let mut taken = 0;
        let (whole, ns) = if split {
            while let Some(ev) = self.pop_in_window(taken, remaining) {
                self.take(ev);
                taken += 1;
            }
            let ns = self.run_lanes(helper);
            let whole = self.commit();
            self.close_window();
            (whole, ns)
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
            let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64 * taken / (taken - 1));
            (true, ns)
        };
        if let (Some(slot), 2..) = (slot, taken) {
            self.costs[slot].measured(ns, taken);
        }
        whole
    }

    /// Deals an event of a split window: its label to `window`, the event
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
            self.lanes.push(Lane {
                id: node,
                node: self.nodes[i].take().expect("one lane per node"),
                events,
                ran: 0,
                seen: 0,
                out,
            });
        }
        &mut self.lanes[self.lane_of[i] as usize]
    }

    /// Runs a split window's lanes — on both threads if two or more — and
    /// returns the handler time measured.
    fn run_lanes<'s>(&mut self, helper: &mut Helper<'s, '_, P>) -> u64
    where
        P: 's,
    {
        let end = self.end;
        if self.lanes.len() < 2 {
            let t0 = Instant::now();
            run_share(&mut self.lanes, &self.crash_sched, end);
            return t0.elapsed().as_nanos() as u64;
        }
        self.split(helper, end)
    }

    /// Deals the lanes to the two threads — heaviest first, each to the
    /// side with fewer events so far, ties to the caller — runs them and
    /// returns the handler time both sides measured.
    fn split<'s>(&mut self, helper: &mut Helper<'s, '_, P>, end: SimTime) -> u64
    where
        P: 's,
    {
        self.lanes.sort_by_key(|l| Reverse(l.events.len()));
        std::mem::swap(&mut self.lanes, &mut self.dealt);
        let mut theirs = helper.lanes();
        let mut load = [0; 2];
        for lane in self.dealt.drain(..) {
            let side = usize::from(load[1] < load[0]);
            load[side] += lane.events.len();
            if side == 0 {
                self.lanes.push(lane);
            } else {
                theirs.push(lane);
            }
        }
        helper.send(Batch {
            lanes: theirs,
            end,
            ns: 0,
        });
        let t0 = Instant::now();
        run_share(&mut self.lanes, &self.crash_sched, end);
        let mine = t0.elapsed().as_nanos() as u64;
        let mut batch = helper.recv();
        self.lanes.append(&mut batch.lanes);
        helper.keep(batch.lanes);
        for (i, lane) in self.lanes.iter().enumerate() {
            self.lane_of[lane.id.index()] = i as u32;
        }
        mine + batch.ns
    }

    /// Applies the window's events in `(time, seq)` order: a queued event
    /// precedes an in-window timer of its own tick (the timer was scheduled
    /// later), and such timers fire in arming order. An event its lane ran
    /// is replayed; one it did not (the lane stopped) runs here. False if
    /// the run hit `max_events` inside the window.
    fn commit(&mut self) -> bool {
        let mut next = 0;
        loop {
            let timer = first_due(self.due.iter().map(|d| d.0));
            let ev = match (self.window.get(next), timer) {
                (Some(e), Some((i, at))) if at < e.at => self.take_due(i),
                (Some(e), _) => {
                    next += 1;
                    let lane = &mut self.lanes[self.lane_of[e.kind.node().index()] as usize];
                    lane.seen += 1;
                    let kind = if lane.seen > lane.ran {
                        let (_, ev) = lane
                            .events
                            .pop()
                            .expect("the lane kept what it did not run");
                        carried(ev.kind)
                    } else {
                        e.kind.map_msg(|&kind| Carried::Ran(kind))
                    };
                    Event { at: e.at, kind }
                }
                (None, Some((i, _))) => self.take_due(i),
                (None, None) => break,
            };
            if !self.count(ev.at) {
                debug_assert!(
                    self.lanes.iter().all(|l| l.seen >= l.ran),
                    "a lane ran an event past the max_events cut"
                );
                return false;
            }
            self.fire(ev.at, ev.kind);
        }
        debug_assert!(
            self.lanes.iter().all(|l| l.out.calls.is_empty()),
            "a lane ran a handler the commit did not replay"
        );
        true
    }

    /// Counts an event about to run at `at`; false if it is the one past
    /// `max_events` (counted, as the cut event always was, but not run).
    fn count(&mut self, at: SimTime) -> bool {
        self.events += 1;
        self.clock = at;
        self.events <= self.cfg.max_events
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

    fn take_due<M>(&mut self, i: usize) -> Event<M> {
        let (at, node, tag) = self.due.remove(i);
        Event {
            at,
            kind: EventKind::Timer { node, tag },
        }
    }

    /// Returns every lane's node home and keeps its buffers.
    fn close_window(&mut self) {
        for mut lane in self.lanes.drain(..) {
            let i = lane.id.index();
            self.lane_of[i] = NO_LANE;
            self.nodes[i] = Some(lane.node);
            lane.events.clear();
            lane.out.clear();
            self.spare.push((lane.events, lane.out));
        }
        self.window.clear();
        self.due.clear();
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
                kind,
            });
        }
        self.dispatch(to, now, |p, ctx| {
            let Carried::Here(msg) = msg else {
                unreachable!("a lane ran this delivery")
            };
            p.on_message(from, msg, ctx);
            RestartOutcome::KeptState
        });
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
        self.dispatch(node, now, |p, ctx| {
            p.on_cs_released(ctx);
            RestartOutcome::KeptState
        });
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
        self.dispatch(node, now, |p, ctx| {
            p.on_timer(tag, ctx);
            RestartOutcome::KeptState
        });
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
        let outcome = self.dispatch(node, now, |p, ctx| p.on_restart(ctx));
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
                // `end = now`: an inline window's timers all join the queue.
                self.scratch.record(state, node, now, now, f);
                self.scratch.outbox.reverse();
                self.scratch.timers.reverse();
                &mut self.scratch
            }
            _ => {
                let Lane {
                    node: state, out, ..
                } = &mut self.lanes[lane as usize];
                if out.calls.is_empty() {
                    // The lane stopped before this call: it runs here.
                    out.record(state, node, now, self.end, f);
                    out.outbox.reverse();
                    out.timers.reverse();
                }
                out
            }
        };
        let call = out
            .calls
            .pop()
            .expect("the lane ran every handler the commit replays");
        debug_assert_eq!(call.at, now, "{node:?} replays a call out of order");
        for _ in 0..call.timers {
            let (delay, tag) = out.timers.pop().expect("recorded timer");
            // Later windows end before a timer this short can fire in
            // them, so their lanes never stop for one.
            self.lookahead = self.lookahead.min(delay.ticks());
            let at = now + delay;
            if lane != NO_LANE && at < self.end {
                // It fires inside this split window; the commit runs it.
                self.due.push((at, node, tag));
            } else {
                self.queue.schedule(at, EventKind::Timer { node, tag });
            }
        }
        for _ in 0..call.sends {
            let (to, msg) = out.outbox.pop().expect("recorded message");
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

/// Lanes for the helper thread, and on the way back its handler time.
struct Batch<P: MutexProtocol> {
    lanes: Vec<Lane<P>>,
    end: SimTime,
    ns: u64,
}

/// The second thread. Spawned the first time a window pays for a
/// hand-off; blocks on its job channel between windows; returns its
/// profile accumulators when the channel closes.
struct Helper<'scope, 'env, P: MutexProtocol> {
    scope: &'scope Scope<'scope, 'env>,
    link: Link<'scope, P>,
    /// The lane vector of the last batch, for reuse.
    spare: Vec<Lane<P>>,
}

enum Link<'scope, P: MutexProtocol> {
    /// No window has paid for a hand-off yet.
    Unasked,
    /// No CPU was free when one did.
    Absent,
    Up {
        jobs: Sender<Batch<P>>,
        done: Receiver<Batch<P>>,
        thread: ScopedJoinHandle<'scope, [PhaseCost; PROBE_PHASES]>,
    },
}

impl<'scope, 'env, P: MutexProtocol + Send + 'scope> Helper<'scope, 'env, P> {
    fn new(scope: &'scope Scope<'scope, 'env>) -> Self {
        Helper {
            scope,
            link: Link::Unasked,
            spare: Vec::new(),
        }
    }

    /// Whether the helper runs, spawning it on first use if a CPU is free
    /// (`forced`: regardless).
    fn up(&mut self, forced: bool, crash_sched: &[Vec<(SimTime, SimTime)>]) -> bool {
        if let Link::Unasked = self.link {
            self.link = match Busy::spare(forced) {
                Some(slot) => self.spawn(crash_sched.to_vec(), slot),
                None => Link::Absent,
            };
        }
        matches!(self.link, Link::Up { .. })
    }

    fn spawn(&self, crash_sched: Vec<Vec<(SimTime, SimTime)>>, slot: Busy) -> Link<'scope, P> {
        let (jobs, inbox) = channel::<Batch<P>>();
        let (outbox, done) = channel();
        let thread = self.scope.spawn(move || {
            let _slot = slot;
            for mut batch in inbox {
                let t0 = Instant::now();
                run_share(&mut batch.lanes, &crash_sched, batch.end);
                batch.ns = t0.elapsed().as_nanos() as u64;
                if outbox.send(batch).is_err() {
                    break;
                }
            }
            profile::take()
        });
        Link::Up { jobs, done, thread }
    }

    /// An empty lane vector for the next batch.
    fn lanes(&mut self) -> Vec<Lane<P>> {
        std::mem::take(&mut self.spare)
    }

    fn keep(&mut self, lanes: Vec<Lane<P>>) {
        self.spare = lanes;
    }

    fn send(&mut self, batch: Batch<P>) {
        let Link::Up { jobs, .. } = &self.link else {
            unreachable!("send needs the helper up")
        };
        // A closed channel means the helper died; `recv` re-raises why.
        let _ = jobs.send(batch);
    }

    /// The batch back from the helper; re-raises its panic if a handler
    /// panicked there.
    fn recv(&mut self) -> Batch<P> {
        let Link::Up { done, .. } = &self.link else {
            unreachable!("recv needs the helper up")
        };
        if let Ok(batch) = done.recv() {
            return batch;
        }
        let Link::Up { thread, .. } = std::mem::replace(&mut self.link, Link::Absent) else {
            unreachable!()
        };
        match thread.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the helper stops only when its job channel closes"),
        }
    }

    /// Stops the helper, if it ran, and returns its profile accumulators.
    fn finish(self) -> Option<[PhaseCost; PROBE_PHASES]> {
        let Link::Up { jobs, thread, .. } = self.link else {
            return None;
        };
        drop(jobs);
        Some(
            thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        )
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

    #[test]
    fn lookahead_is_the_delay_bound_capped_by_tc() {
        let lookahead = |delay: DelayModel, tc: u64| {
            let mut cfg = SimConfig::paper(3, 1);
            cfg.delay = delay;
            cfg.cs_duration = SimDuration::from_ticks(tc);
            Engine::new(cfg, BurstOnce, |id, _| Central::new(id)).lookahead
        };
        assert_eq!(lookahead(DelayModel::paper_constant(), 10), 5);
        assert_eq!(lookahead(DelayModel::paper_jittered(), 10), 1);
        assert_eq!(
            lookahead(DelayModel::Exponential { mean: 5.0, cap: 20 }, 10),
            0
        );
        assert_eq!(lookahead(DelayModel::paper_constant(), 3), 3);
        assert_eq!(lookahead(DelayModel::paper_constant(), 0), 0);
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
