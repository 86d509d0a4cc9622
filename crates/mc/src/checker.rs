//! The [`ModelChecker`]: one exhaustive search over delivery orders and
//! bounded fault choices, and counterexample reconstruction.
//!
//! The search runs depth-first, the cheaper order to exhaust in. Only
//! when it finds a violation does it search again, breadth-first and
//! bounded by that violation's depth, to shrink the counterexample to a
//! shortest one.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rcv_simnet::{
    Ctx, NodeId, ProtocolMessage, RestartOutcome, SimDuration, SimTime, Trace, TraceEvent,
};

use crate::adapters::McProtocol;
use crate::state::{fingerprint, Decision, McEvent, SystemState};

/// Index of a visited state in the checker's arena.
type StateId = u32;

/// A violating execution: the decision sequence from the initial state,
/// plus its rendering through the simnet trace machinery (one virtual
/// tick per step).
pub struct Counterexample<M> {
    /// What went wrong at the final state.
    pub description: String,
    /// The decision sequence reaching the violation.
    pub steps: Vec<Decision<M>>,
    /// Whether no shorter sequence reaches a violation. False only when
    /// the minimizing search hit the state cap; `steps` is then the
    /// depth-first search's path.
    pub minimal: bool,
    /// Human-readable narrated replay ([`Trace::render`] format).
    pub trace: String,
}

impl<M> fmt::Display for Counterexample<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "VIOLATION: {}", self.description)?;
        let kind = if self.minimal {
            "minimal counterexample"
        } else {
            "counterexample (NOT minimal: the minimizing search hit the state cap)"
        };
        writeln!(f, "{kind}, {} steps; narrated replay:", self.steps.len())?;
        write!(f, "{}", self.trace)
    }
}

/// What the exhaustive search covered: the one set of counters that
/// [`McReport`] and every protocol-agnostic consumer hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Unique states visited (after canonicalization).
    pub visited: u64,
    /// Transitions applied (edges, including those reaching known states).
    pub transitions: u64,
    /// Terminal states (nothing in flight) reached.
    pub terminals: u64,
    /// Transitions that landed on an already-visited state.
    pub revisits: u64,
    /// States left unexpanded because of the depth bound.
    pub truncated: u64,
    /// Deepest state expanded.
    pub max_depth_seen: u32,
    /// Set when the state cap stopped the search early.
    pub aborted: Option<String>,
}

impl McStats {
    /// True when the whole reachable state space was covered (no depth
    /// truncation, no state-cap abort).
    pub fn exhausted(&self) -> bool {
        self.aborted.is_none() && self.truncated == 0
    }

    /// One-line statistics summary.
    pub fn summary(&self) -> String {
        format!(
            "{} states, {} transitions, {} terminals, {} revisits, max depth {}{}{}",
            self.visited,
            self.transitions,
            self.terminals,
            self.revisits,
            self.max_depth_seen,
            if self.truncated > 0 {
                format!(", {} depth-truncated", self.truncated)
            } else {
                String::new()
            },
            match &self.aborted {
                Some(a) => format!(", ABORTED: {a}"),
                None => String::new(),
            },
        )
    }
}

/// Exploration outcome: the depth-first search's counters (the
/// minimizing search that follows a violation is not counted) and the
/// first violation, shrunk.
pub struct McReport<M> {
    /// What the search covered.
    pub stats: McStats,
    /// The violation found, if any.
    pub violation: Option<Counterexample<M>>,
}

impl<M> McReport<M> {
    /// Asserts the search exhausted the state space violation-free;
    /// panics with the counterexample replay otherwise. Test ergonomics.
    #[track_caller]
    pub fn expect_clean_exhaustive(&self) -> &Self {
        if let Some(v) = &self.violation {
            panic!(
                "model checking found a violation ({})\n{v}",
                self.stats.summary()
            );
        }
        assert!(
            self.stats.exhausted(),
            "exploration did not exhaust the state space: {}",
            self.stats.summary()
        );
        self
    }
}

/// The order in which [`ModelChecker::search`] expands its frontier.
enum Order {
    /// A stack: the cheaper order to exhaust in (less memory, less time).
    DepthFirst,
    /// A queue: states are expanded in depth layers, so the first
    /// violation found lies on a shortest path.
    BreadthFirst,
}

/// A violation the search reached: the decisions leading to it and what
/// went wrong.
type Found<M> = (Vec<Decision<M>>, String);

struct ArenaNode<P: McProtocol>
where
    P::Message: PartialEq,
{
    parent: StateId,
    /// The decision that produced this state (`None` for the root).
    via: Option<Decision<P::Message>>,
    /// Present until the state is expanded (or abandoned).
    state: Option<SystemState<P>>,
    depth: u32,
}

/// Where a replay narrates its steps: the virtual instant of the step
/// being replayed and the events so far. The search narrates into a
/// [`Narration::silent`] one, which builds no [`TraceEvent`] at all.
struct Narration {
    at: SimTime,
    events: Option<Vec<TraceEvent>>,
}

impl Narration {
    fn silent() -> Self {
        Narration {
            at: SimTime::ZERO,
            events: None,
        }
    }

    /// Records the event `make` builds at the current instant; builds
    /// nothing when silent.
    fn note(&mut self, make: impl FnOnce(SimTime) -> TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(make(self.at));
        }
    }
}

/// Exhaustive explorer for one scenario: a fixed node set, a set of
/// requesters each performing `rounds` request/enter/exit cycles, and
/// bounded loss/duplication budgets. See the crate docs for the
/// semantics; see [`crate::rcv_checker`] and friends for ready-made
/// scenario builders.
pub struct ModelChecker<P: McProtocol>
where
    P::Message: PartialEq,
{
    nodes: Vec<P>,
    requesters: Vec<NodeId>,
    rounds: u32,
    fifo: bool,
    drops: u32,
    dups: u32,
    crashes: u32,
    max_depth: Option<u32>,
    max_states: u64,
    #[allow(clippy::type_complexity)]
    cross_invariant: Option<Box<dyn Fn(&[P]) -> Result<(), String>>>,
}

impl<P: McProtocol> ModelChecker<P>
where
    P::Message: PartialEq,
{
    /// A checker over `nodes` (indexed by id) where, by default, every
    /// node performs one request (the paper's synchronized burst), with
    /// reliable unordered delivery and no fault budgets.
    pub fn new(nodes: Vec<P>) -> Self {
        assert!(!nodes.is_empty(), "checker needs at least one node");
        let n = nodes.len();
        ModelChecker {
            nodes,
            requesters: NodeId::all(n).collect(),
            rounds: 1,
            fifo: false,
            drops: 0,
            dups: 0,
            crashes: 0,
            max_depth: None,
            max_states: 20_000_000,
            cross_invariant: None,
        }
    }

    /// Restricts which nodes issue requests (default: all).
    pub fn requesters(mut self, requesters: Vec<NodeId>) -> Self {
        let n = self.nodes.len();
        assert!(requesters.iter().all(|r| r.index() < n));
        self.requesters = requesters;
        self
    }

    /// Number of request/enter/exit cycles per requester (default 1).
    pub fn rounds(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1);
        self.rounds = rounds;
        self
    }

    /// Restricts delivery to per-channel FIFO order. Required for
    /// protocols whose correctness assumes ordered channels (Lamport).
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Loss budget: along any single path the checker may lose at most
    /// this many messages (each loss is branched at every in-flight
    /// message).
    pub fn drops(mut self, drops: u32) -> Self {
        self.drops = drops;
        self
    }

    /// Duplication budget, branched like the loss budget.
    pub fn dups(mut self, dups: u32) -> Self {
        self.dups = dups;
        self
    }

    /// Crash-restart budget: along any single path the checker may crash
    /// (and immediately restart) at most this many nodes, branched at
    /// **every** state over **every** node — any node, any instant. A
    /// crash drops everything in flight toward the victim plus its armed
    /// timers, evicts it from the CS if it was the holder (a dead process
    /// occupies nothing; the aborted hold does not count as a
    /// completion), then runs the protocol's `on_restart` hook, with the
    /// engine's environment semantics: a node that rejoined idle with a
    /// request interrupted gets it re-issued, one that resumed its
    /// request internally keeps the round open.
    pub fn crash_restarts(mut self, crashes: u32) -> Self {
        self.crashes = crashes;
        self
    }

    /// Bounds the search depth (decisions from the initial state); states
    /// at the bound are counted as `truncated` instead of expanded.
    pub fn max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Hard cap on stored states; the search aborts (reported, not
    /// panicking) when it is hit.
    pub fn max_states(mut self, max: u64) -> Self {
        self.max_states = max.max(1);
        self
    }

    /// Whole-system invariant checked in every visited state (e.g. the
    /// paper's Lemma 6/7 NONL prefix consistency for RCV).
    pub fn cross_invariant(mut self, f: impl Fn(&[P]) -> Result<(), String> + 'static) -> Self {
        self.cross_invariant = Some(Box::new(f));
        self
    }

    /// Checks the scenario: exhausts its state space depth-first and,
    /// if that finds a violation, shrinks it to a minimal counterexample
    /// with a breadth-first search bounded by the violation's depth.
    pub fn run(&self) -> McReport<P::Message> {
        let (stats, found) = self.search(Order::DepthFirst, self.max_depth);
        let violation = found.map(|(steps, description)| {
            // A shortest violation is no deeper than this one, and
            // breadth-first order reaches a shallowest violation first.
            match self.search(Order::BreadthFirst, Some(steps.len() as u32)) {
                (_, Some((shortest, description))) => {
                    self.counterexample(shortest, description, true)
                }
                _ => self.counterexample(steps, description, false),
            }
        });
        McReport { stats, violation }
    }

    /// One search in the given order, stopping at the first violation.
    fn search(&self, order: Order, max_depth: Option<u32>) -> (McStats, Option<Found<P::Message>>) {
        let mut stats = McStats {
            visited: 1,
            ..McStats::default()
        };
        let mut silent = Narration::silent();
        let (root, root_violation) = self.build_initial(&mut silent);
        if let Some(v) = root_violation.or_else(|| self.check_state(&root)) {
            return (stats, Some((Vec::new(), v)));
        }
        let mut visited: HashMap<u128, u32> = HashMap::new();
        visited.insert(fingerprint(&root, self.fifo), 0);
        let mut arena: Vec<ArenaNode<P>> = vec![ArenaNode {
            parent: 0,
            via: None,
            state: Some(root),
            depth: 0,
        }];
        let mut frontier: VecDeque<StateId> = VecDeque::from([0]);

        while let Some(id) = match order {
            Order::DepthFirst => frontier.pop_back(),
            Order::BreadthFirst => frontier.pop_front(),
        } {
            let state = arena[id as usize]
                .state
                .take()
                .expect("arena states are expanded exactly once");
            let depth = arena[id as usize].depth;
            stats.max_depth_seen = stats.max_depth_seen.max(depth);
            if state.pending.is_empty() && state.crashes_left == 0 {
                stats.terminals += 1;
                continue;
            }
            if max_depth.is_some_and(|d| depth >= d) {
                stats.truncated += 1;
                continue;
            }
            for decision in self.choices(&state) {
                stats.transitions += 1;
                let (next, violation) = self.apply(&state, &decision, &mut silent);
                if let Some(v) = violation.or_else(|| self.check_state(&next)) {
                    return (stats, Some((path(&arena, id, decision), v)));
                }
                let fp = fingerprint(&next, self.fifo);
                let child_depth = depth + 1;
                // With a depth bound, a known state rediscovered on a
                // shorter path must be re-expanded: the deeper visit may
                // have been truncated before covering its successors.
                let explore = match visited.get(&fp) {
                    None => true,
                    Some(&d0) => max_depth.is_some() && child_depth < d0,
                };
                if !explore {
                    stats.revisits += 1;
                    continue;
                }
                visited.insert(fp, child_depth);
                if arena.len() as u64 >= self.max_states {
                    stats.aborted = Some(format!("state cap {} reached", self.max_states));
                    return (stats, None);
                }
                arena.push(ArenaNode {
                    parent: id,
                    via: Some(decision),
                    state: Some(next),
                    depth: child_depth,
                });
                stats.visited += 1;
                frontier.push_back((arena.len() - 1) as StateId);
            }
        }
        (stats, None)
    }

    /// Builds the initial state: every requester issues its request
    /// before anything is delivered (requests do not interact at issue
    /// time, so issue order is irrelevant).
    fn build_initial(&self, log: &mut Narration) -> (SystemState<P>, Option<String>) {
        let n = self.nodes.len();
        let mut s = SystemState {
            nodes: self.nodes.clone(),
            pending: Vec::new(),
            occupant: None,
            completed: vec![0; n],
            drops_left: self.drops,
            dups_left: self.dups,
            crashes_left: self.crashes,
        };
        let mut violation = None;
        for &r in &self.requesters {
            log.note(|at| TraceEvent::Arrival { at, node: r });
            // The first violation wins; later requesters still issue.
            let v = self.handle(&mut s, r, log, |p, ctx| p.on_request(ctx));
            violation = violation.or(v);
        }
        (s, violation)
    }

    /// The distinct decisions available in `s`, pending events first,
    /// then — while the budget lasts — a crash-restart of every node: any
    /// node, any instant. Identical in-flight events are merged (either
    /// copy leads to the same successor); under FIFO only each channel's
    /// oldest message is deliverable.
    fn choices(&self, s: &SystemState<P>) -> Vec<Decision<P::Message>> {
        let mut out = Vec::new();
        let mut seen_channels: Vec<(u32, u32)> = Vec::new();
        for (i, ev) in s.pending.iter().enumerate() {
            let merged = match ev {
                McEvent::Deliver { from, to, .. } if self.fifo => {
                    let ch = (from.raw(), to.raw());
                    let behind = seen_channels.contains(&ch);
                    seen_channels.push(ch);
                    behind
                }
                _ => s.pending[..i].contains(ev),
            };
            if merged {
                continue;
            }
            out.push(Decision::Deliver(ev.clone()));
            if let McEvent::Deliver { .. } = ev {
                if s.drops_left > 0 {
                    out.push(Decision::Drop(ev.clone()));
                }
                if s.dups_left > 0 {
                    out.push(Decision::Duplicate(ev.clone()));
                }
            }
        }
        if s.crashes_left > 0 {
            out.extend(NodeId::all(self.nodes.len()).map(Decision::CrashRestart));
        }
        out
    }

    /// Applies one decision to a copy of `s`: the successor, and a safety
    /// violation detected *during* the step (mutual exclusion). The event
    /// is keyed by value (identical in-flight copies lead to the same
    /// successor, so which copy is removed is immaterial).
    fn apply(
        &self,
        s: &SystemState<P>,
        decision: &Decision<P::Message>,
        log: &mut Narration,
    ) -> (SystemState<P>, Option<String>) {
        let chosen = match decision {
            Decision::CrashRestart(node) => return self.apply_crash(s, *node, log),
            Decision::Deliver(ev) | Decision::Drop(ev) | Decision::Duplicate(ev) => ev,
        };
        let mut next = s.clone();
        let idx = next
            .pending
            .iter()
            .position(|p| p == chosen)
            .expect("applied event is in flight");
        // `remove` (not `swap_remove`): within-channel order is FIFO
        // order and must survive the deletion.
        let ev = next.pending.remove(idx);
        match decision {
            Decision::Drop(_) => {
                debug_assert!(next.drops_left > 0);
                next.drops_left -= 1;
                if let McEvent::Deliver { from, to, .. } = ev {
                    log.note(|at| TraceEvent::Lost { at, from, to });
                }
                return (next, None);
            }
            Decision::Duplicate(_) => {
                debug_assert!(next.dups_left > 0);
                next.dups_left -= 1;
                // The copy goes to the back of its channel: under FIFO a
                // duplicate arrives after the messages already in flight.
                next.pending.push(ev.clone());
            }
            Decision::Deliver(_) | Decision::CrashRestart(_) => {}
        }
        let violation = match ev {
            McEvent::Deliver { from, to, msg } => {
                log.note(|at| TraceEvent::Deliver {
                    at,
                    from,
                    to,
                    kind: msg.kind(),
                });
                self.handle(&mut next, to, log, |p, ctx| p.on_message(from, msg, ctx))
            }
            McEvent::CsExit { node } => {
                debug_assert_eq!(
                    next.occupant,
                    Some(node),
                    "CsExit pending only while its node holds the CS"
                );
                next.occupant = None;
                next.completed[node.index()] += 1;
                log.note(|at| TraceEvent::CsExit { at, node });
                let mut violation =
                    self.handle(&mut next, node, log, |p, ctx| p.on_cs_released(ctx));
                // Multi-round workload: the node immediately re-requests.
                if violation.is_none()
                    && next.completed[node.index()] < self.rounds
                    && self.requesters.contains(&node)
                {
                    log.note(|at| TraceEvent::Arrival { at, node });
                    violation = self.handle(&mut next, node, log, |p, ctx| p.on_request(ctx));
                }
                violation
            }
            McEvent::Timer { node, tag } => {
                log.note(|at| TraceEvent::Timer { at, node, tag });
                self.handle(&mut next, node, log, |p, ctx| p.on_timer(tag, ctx))
            }
        };
        (next, violation)
    }

    /// Crashes `node` and immediately restarts it (the crash window
    /// collapses to a point). Mirrors the engine's `handle_crash` +
    /// `handle_restart` pair and the threaded runtime's crash window:
    ///
    /// * everything in flight **toward** the victim dies with its process
    ///   (the window black-holes deliveries), as do its armed timers;
    /// * messages the victim already sent survive — they are in the
    ///   network, not in the process;
    /// * a victim holding the CS is evicted without a completion (a dead
    ///   process occupies nothing) and its pending exit is invalidated;
    /// * after `on_restart`: a node that rejoined idle with a request
    ///   interrupted gets it re-issued as a fresh request; one that
    ///   resumed the request internally keeps its round open.
    fn apply_crash(
        &self,
        s: &SystemState<P>,
        node: NodeId,
        log: &mut Narration,
    ) -> (SystemState<P>, Option<String>) {
        let mut next = s.clone();
        debug_assert!(next.crashes_left > 0);
        next.crashes_left -= 1;
        next.pending.retain(|ev| match *ev {
            McEvent::Deliver { to, .. } => to != node,
            McEvent::Timer { node: n, .. } | McEvent::CsExit { node: n } => n != node,
        });
        let held = next.occupant == Some(node);
        if held {
            next.occupant = None;
        }
        // One outstanding request per node: a requester with rounds left
        // has a live request (issued at the initial burst or at its last
        // exit) that this crash interrupts.
        let interrupted =
            self.requesters.contains(&node) && next.completed[node.index()] < self.rounds;
        log.note(|at| TraceEvent::Crashed {
            at,
            node,
            held_cs: held,
        });
        let mut outcome = RestartOutcome::KeptState;
        let enter = dispatch(&mut next.nodes, &mut next.pending, node, log, |p, ctx| {
            outcome = p.on_restart(ctx)
        });
        log.note(|at| TraceEvent::Restarted {
            at,
            node,
            recovered: outcome.recovered(),
        });
        let mut violation = None;
        if enter {
            violation = self.note_enter(&mut next, node, log);
        }
        if violation.is_none() && outcome == RestartOutcome::RejoinedIdle && interrupted {
            // Engine parity: the environment re-issues the request the
            // crash wiped out, so the expected completion count holds.
            log.note(|at| TraceEvent::Arrival { at, node });
            violation = self.handle(&mut next, node, log, |p, ctx| p.on_request(ctx));
        }
        (next, violation)
    }

    /// Runs one handler of `node` via [`dispatch`] and judges an `enter_cs`
    /// intent it raises with [`Self::note_enter`]: the violation, if any.
    fn handle(
        &self,
        s: &mut SystemState<P>,
        node: NodeId,
        log: &mut Narration,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>),
    ) -> Option<String> {
        let enter = dispatch(&mut s.nodes, &mut s.pending, node, log, f);
        if enter {
            self.note_enter(s, node, log)
        } else {
            None
        }
    }

    /// Registers an `enter_cs` intent: mutual exclusion is enforced here,
    /// exactly like the engine's safety monitor.
    fn note_enter(
        &self,
        s: &mut SystemState<P>,
        node: NodeId,
        log: &mut Narration,
    ) -> Option<String> {
        // Narrate the offending entry too: the replay must show the
        // moment the intruder walks in.
        log.note(|at| TraceEvent::CsEnter { at, node });
        if let Some(holder) = s.occupant {
            return Some(if holder == node {
                format!("{node} entered the CS twice without leaving")
            } else {
                format!("MUTUAL EXCLUSION VIOLATED: {node} entered the CS while {holder} held it")
            });
        }
        s.occupant = Some(node);
        s.pending.push(McEvent::CsExit { node });
        None
    }

    /// The invariants of a freshly produced state: per-node and
    /// cross-node, and — once quiescent — the goal.
    ///
    /// With crash branching enabled the per-node hook runs with
    /// `restartable` set: a crash legitimately trips counters whose
    /// accounting assumes no vote loss (RCV's UL exhaustion).
    ///
    /// The goal, judged in every quiescent state (nothing in flight):
    /// every requester finished all its rounds, unless a message was
    /// actually lost or a node actually crashed on this path (an
    /// *attributable* stall — a crash wipes the votes peers registered at
    /// the victim, and with the retry budget spendable before the crash
    /// even happens, some interleavings legitimately strand a request;
    /// duplication alone must never wedge the system). It is judged even
    /// when crash budget remains: a crash the checker *could still
    /// inject* lies in the future and must not excuse a stall that has
    /// already happened.
    fn check_state(&self, s: &SystemState<P>) -> Option<String> {
        for node in &s.nodes {
            if let Err(e) = node.check_node(self.crashes > 0) {
                return Some(format!("node invariant: {e}"));
            }
        }
        if let Some(inv) = &self.cross_invariant {
            if let Err(e) = inv(&s.nodes) {
                return Some(format!("cross-node invariant: {e}"));
            }
        }
        if !s.pending.is_empty() || s.drops_left < self.drops || s.crashes_left < self.crashes {
            return None;
        }
        debug_assert!(s.occupant.is_none(), "terminal state with a CS occupant");
        let r = self
            .requesters
            .iter()
            .find(|r| s.completed[r.index()] < self.rounds)?;
        Some(format!(
            "DEADLOCK without attributable fault: nothing in flight but {r} \
             completed {}/{} rounds",
            s.completed[r.index()],
            self.rounds
        ))
    }

    /// Replays `steps` with narration on — one virtual tick per decision,
    /// rendered through the simnet narrate machinery.
    fn counterexample(
        &self,
        steps: Vec<Decision<P::Message>>,
        description: String,
        minimal: bool,
    ) -> Counterexample<P::Message> {
        let mut log = Narration {
            at: SimTime::ZERO,
            events: Some(Vec::new()),
        };
        let (mut s, mut violation) = self.build_initial(&mut log);
        for (step_no, decision) in steps.iter().enumerate() {
            if violation.is_some() {
                break;
            }
            log.at = SimTime::from_ticks(step_no as u64 + 1);
            (s, violation) = self.apply(&s, decision, &mut log);
        }
        let events = log.events.unwrap_or_default();
        let mut tr = Trace::with_capacity(events.len().max(1));
        for e in events {
            tr.record(e);
        }
        Counterexample {
            description,
            steps,
            minimal,
            trace: tr.render(),
        }
    }
}

/// The decisions from the root to `id`, then `last`.
fn path<P: McProtocol>(
    arena: &[ArenaNode<P>],
    mut id: StateId,
    last: Decision<P::Message>,
) -> Vec<Decision<P::Message>>
where
    P::Message: PartialEq,
{
    let mut steps = vec![last];
    while let Some(via) = &arena[id as usize].via {
        steps.push(via.clone());
        id = arena[id as usize].parent;
    }
    steps.reverse();
    steps
}

/// Runs one protocol handler with intents captured into the state: sends
/// become pending deliveries, timers pending timer events; returns the
/// `enter_cs` intent. The RNG is fixed and virtual time is frozen (at
/// zero on the search path) — the determinism contract of
/// [`McProtocol`].
fn dispatch<P: McProtocol>(
    nodes: &mut [P],
    pending: &mut Vec<McEvent<P::Message>>,
    node: NodeId,
    log: &mut Narration,
    f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>),
) -> bool
where
    P::Message: PartialEq,
{
    let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
    let mut enter = false;
    let mut timers: Vec<(SimDuration, u64)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(0);
    {
        let mut ctx = Ctx::new(node, log.at, &mut rng, &mut outbox, &mut enter, &mut timers);
        f(&mut nodes[node.index()], &mut ctx);
    }
    for (to, msg) in outbox {
        log.note(|at| TraceEvent::Send {
            at,
            from: node,
            to,
            kind: msg.kind(),
            detail: format!("{msg:?}"),
        });
        pending.push(McEvent::Deliver {
            from: node,
            to,
            msg,
        });
    }
    for (_, tag) in timers {
        pending.push(McEvent::Timer { node, tag });
    }
    enter
}

#[cfg(test)]
mod tests {
    use rcv_core::ForwardPolicy;

    use super::Order;
    use crate::rcv_checker;

    /// Both orders reach the same state space; only the order, and so
    /// the depth at which a state is first reached, differs.
    #[test]
    fn dfs_and_bfs_agree_on_state_counts() {
        let c = rcv_checker(3, ForwardPolicy::Sequential);
        let (dfs, none) = c.search(Order::DepthFirst, None);
        assert!(none.is_none() && dfs.exhausted(), "{}", dfs.summary());
        let (bfs, none) = c.search(Order::BreadthFirst, None);
        assert!(none.is_none() && bfs.exhausted(), "{}", bfs.summary());
        let counts = |s: &super::McStats| (s.visited, s.transitions, s.terminals, s.revisits);
        assert_eq!(counts(&dfs), counts(&bfs));
        assert_eq!(counts(&dfs), (391, 638, 16, 248));
    }
}
