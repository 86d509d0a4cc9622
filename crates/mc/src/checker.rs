//! The [`ModelChecker`]: exhaustive search over delivery orders and
//! bounded fault choices, with pluggable DFS/BFS frontiers and
//! counterexample reconstruction.

use std::collections::{HashMap, VecDeque};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rcv_simnet::{
    Ctx, NodeId, ProtocolMessage, RestartOutcome, SimDuration, SimTime, Trace, TraceEvent,
};

use crate::adapters::McProtocol;
use crate::state::{fingerprint, McEvent, SystemState};

/// Index of a visited state in the checker's arena.
pub type StateId = u32;

/// What the checker did with a chosen pending event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Deliver (or fire) the event.
    Deliver,
    /// Lose the message in the network (consumes one drop budget).
    Drop,
    /// Deliver the message *and* leave a second in-flight copy
    /// (consumes one duplication budget).
    Duplicate,
}

/// Search-order abstraction over the frontier of unexpanded states.
///
/// [`Dfs`] dives (low memory on long thin graphs); [`Bfs`] expands in
/// depth layers, so the first violation it reports lies on a *shortest*
/// path — minimal counterexamples.
pub trait Frontier {
    /// Adds a newly discovered state.
    fn push(&mut self, id: StateId);
    /// Removes the next state to expand.
    fn pop(&mut self) -> Option<StateId>;
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Depth-first search order (a stack).
#[derive(Default)]
pub struct Dfs {
    stack: Vec<StateId>,
}

impl Frontier for Dfs {
    fn push(&mut self, id: StateId) {
        self.stack.push(id);
    }
    fn pop(&mut self) -> Option<StateId> {
        self.stack.pop()
    }
    fn name(&self) -> &'static str {
        "dfs"
    }
}

/// Breadth-first search order (a queue); yields minimal counterexamples.
#[derive(Default)]
pub struct Bfs {
    queue: VecDeque<StateId>,
}

impl Frontier for Bfs {
    fn push(&mut self, id: StateId) {
        self.queue.push_back(id);
    }
    fn pop(&mut self) -> Option<StateId> {
        self.queue.pop_front()
    }
    fn name(&self) -> &'static str {
        "bfs"
    }
}

/// A violating execution: the exact step sequence from the initial state,
/// plus its rendering through the simnet trace machinery (one virtual
/// tick per step).
pub struct Counterexample<M> {
    /// What went wrong at the final state.
    pub description: String,
    /// The decision sequence reaching the violation.
    pub steps: Vec<(McEvent<M>, Action)>,
    /// Human-readable narrated replay ([`Trace::render`] format).
    pub trace: String,
}

impl<M: std::fmt::Debug> std::fmt::Display for Counterexample<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "VIOLATION: {}", self.description)?;
        writeln!(
            f,
            "{} steps from the initial state; replay:",
            self.steps.len()
        )?;
        write!(f, "{}", self.trace)
    }
}

/// Exploration outcome and statistics.
pub struct McReport<M> {
    /// Which frontier drove the search.
    pub strategy: &'static str,
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
    /// The first violation found, if any.
    pub violation: Option<Counterexample<M>>,
}

/// [`McReport`] with the message type erased: what harnesses, binaries
/// and JSON artifacts consume when they range over heterogeneous
/// protocols.
#[derive(Clone, Debug)]
pub struct McSummary {
    /// Which frontier drove the search.
    pub strategy: &'static str,
    /// Unique states visited (after canonicalization).
    pub visited: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Terminal states reached.
    pub terminals: u64,
    /// Transitions that landed on an already-visited state.
    pub revisits: u64,
    /// States left unexpanded because of the depth bound.
    pub truncated: u64,
    /// Deepest state expanded.
    pub max_depth_seen: u32,
    /// Set when the state cap stopped the search early.
    pub aborted: Option<String>,
    /// True when the whole reachable state space was covered.
    pub exhausted: bool,
    /// `(description, steps, narrated replay)` of the first violation.
    pub violation: Option<(String, usize, String)>,
}

impl McSummary {
    /// One-line statistics summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} states, {} transitions, {} terminals, {} revisits, max depth {}{}{}",
            self.strategy,
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

impl<M: std::fmt::Debug> McReport<M> {
    /// True when the whole reachable state space was covered (no depth
    /// truncation, no state-cap abort).
    pub fn exhausted(&self) -> bool {
        self.aborted.is_none() && self.truncated == 0
    }

    /// Erases the message type for algorithm-agnostic consumers.
    pub fn erase(&self) -> McSummary {
        McSummary {
            strategy: self.strategy,
            visited: self.visited,
            transitions: self.transitions,
            terminals: self.terminals,
            revisits: self.revisits,
            truncated: self.truncated,
            max_depth_seen: self.max_depth_seen,
            aborted: self.aborted.clone(),
            exhausted: self.exhausted(),
            violation: self
                .violation
                .as_ref()
                .map(|v| (v.description.clone(), v.steps.len(), v.trace.clone())),
        }
    }

    /// One-line statistics summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} states, {} transitions, {} terminals, {} revisits, max depth {}{}{}",
            self.strategy,
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

    /// Asserts the search exhausted the state space violation-free;
    /// panics with the counterexample replay otherwise. Test ergonomics.
    #[track_caller]
    pub fn expect_clean_exhaustive(&self) -> &Self {
        if let Some(v) = &self.violation {
            panic!("model checking found a violation ({})\n{v}", self.summary());
        }
        assert!(
            self.exhausted(),
            "exploration did not exhaust the state space: {}",
            self.summary()
        );
        self
    }
}

struct ArenaNode<P: McProtocol>
where
    P::Message: PartialEq,
{
    parent: StateId,
    /// The decision that produced this state (`None` for the root).
    via: Option<(McEvent<P::Message>, Action)>,
    /// Present until the state is expanded (or abandoned).
    state: Option<SystemState<P>>,
    depth: u32,
}

/// Result of applying one decision to a state.
struct Applied<P: McProtocol>
where
    P::Message: PartialEq,
{
    state: SystemState<P>,
    /// A safety violation detected *during* the step (mutual exclusion).
    violation: Option<String>,
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

    /// Explores depth-first.
    pub fn run_dfs(&self) -> McReport<P::Message> {
        self.run(&mut Dfs::default())
    }

    /// Explores breadth-first (minimal counterexamples).
    pub fn run_bfs(&self) -> McReport<P::Message> {
        self.run(&mut Bfs::default())
    }

    /// Runs the exhaustive search under the given frontier.
    pub fn run(&self, frontier: &mut dyn Frontier) -> McReport<P::Message> {
        let mut report = McReport {
            strategy: frontier.name(),
            visited: 0,
            transitions: 0,
            terminals: 0,
            revisits: 0,
            truncated: 0,
            max_depth_seen: 0,
            aborted: None,
            violation: None,
        };
        let mut scratch: Vec<TraceEvent> = Vec::new();
        let (root, root_violation) = self.build_initial(&mut scratch, false);
        let mut visited: HashMap<u128, u32> = HashMap::new();
        visited.insert(fingerprint(&root, self.fifo), 0);
        let mut arena: Vec<ArenaNode<P>> = Vec::new();
        report.visited = 1;
        if let Some(v) = root_violation.or_else(|| self.check_state(&root)) {
            arena.push(ArenaNode {
                parent: 0,
                via: None,
                state: None,
                depth: 0,
            });
            report.violation = Some(self.counterexample(&arena, 0, None, v));
            return report;
        }
        arena.push(ArenaNode {
            parent: 0,
            via: None,
            state: Some(root),
            depth: 0,
        });
        frontier.push(0);

        while let Some(id) = frontier.pop() {
            let state = arena[id as usize]
                .state
                .take()
                .expect("arena states are expanded exactly once");
            let depth = arena[id as usize].depth;
            report.max_depth_seen = report.max_depth_seen.max(depth);
            let choices = self.choices(&state);
            if state.pending.is_empty() {
                // Quiescent: no further event can occur without a fresh
                // fault. Liveness is judged HERE, even when crash budget
                // remains — a crash the checker *could still inject* lies
                // in the future and must not excuse a stall that has
                // already happened.
                if let Some(v) = self.check_goal(&state) {
                    report.violation = Some(self.counterexample(&arena, id, None, v));
                    return report;
                }
                if state.crashes_left == 0 {
                    report.terminals += 1;
                    continue;
                }
            }
            if self.max_depth.is_some_and(|d| depth >= d) {
                report.truncated += 1;
                continue;
            }
            // Pending-event decisions, then — while the budget lasts — a
            // crash-restart of every node: any node, any instant.
            let mut vias: Vec<(McEvent<P::Message>, Action)> = choices
                .into_iter()
                .map(|(idx, action)| (state.pending[idx].clone(), action))
                .collect();
            if state.crashes_left > 0 {
                vias.extend(
                    NodeId::all(self.nodes.len())
                        .map(|node| (McEvent::CrashRestart { node }, Action::Deliver)),
                );
            }
            for via in vias {
                report.transitions += 1;
                let applied = self.apply(&state, &via.0, via.1, SimTime::ZERO, &mut scratch, false);
                if let Some(v) = applied
                    .violation
                    .or_else(|| self.check_state(&applied.state))
                {
                    report.violation = Some(self.counterexample(&arena, id, Some(via), v));
                    return report;
                }
                let fp = fingerprint(&applied.state, self.fifo);
                let child_depth = depth + 1;
                // With a depth bound, a known state rediscovered on a
                // shorter path must be re-expanded: the deeper visit may
                // have been truncated before covering its successors.
                let explore = match visited.get(&fp) {
                    None => true,
                    Some(&d0) => self.max_depth.is_some() && child_depth < d0,
                };
                if !explore {
                    report.revisits += 1;
                    continue;
                }
                visited.insert(fp, child_depth);
                if arena.len() as u64 >= self.max_states {
                    report.aborted = Some(format!("state cap {} reached", self.max_states));
                    return report;
                }
                arena.push(ArenaNode {
                    parent: id,
                    via: Some(via),
                    state: Some(applied.state),
                    depth: child_depth,
                });
                report.visited += 1;
                frontier.push((arena.len() - 1) as StateId);
            }
        }
        report
    }

    /// Builds the initial state: every requester issues its request
    /// before anything is delivered (requests do not interact at issue
    /// time, so issue order is irrelevant).
    fn build_initial(
        &self,
        trace: &mut Vec<TraceEvent>,
        record: bool,
    ) -> (SystemState<P>, Option<String>) {
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
        let at = SimTime::ZERO;
        let mut violation = None;
        for &r in &self.requesters {
            if record {
                trace.push(TraceEvent::Arrival { at, node: r });
            }
            // The first violation wins; later requesters still issue.
            let v = self.handle(&mut s, r, at, trace, record, |p, ctx| p.on_request(ctx));
            violation = violation.or(v);
        }
        (s, violation)
    }

    /// The distinct decisions available in `s`. Identical in-flight
    /// events are merged (either copy leads to the same successor); under
    /// FIFO only each channel's oldest message is deliverable.
    fn choices(&self, s: &SystemState<P>) -> Vec<(usize, Action)> {
        let mut out = Vec::new();
        let mut seen_channels: Vec<(u32, u32)> = Vec::new();
        for (i, ev) in s.pending.iter().enumerate() {
            if self.fifo {
                if let McEvent::Deliver { from, to, .. } = ev {
                    let ch = (from.raw(), to.raw());
                    if seen_channels.contains(&ch) {
                        continue;
                    }
                    seen_channels.push(ch);
                } else if s.pending[..i].contains(ev) {
                    continue;
                }
            } else if s.pending[..i].contains(ev) {
                continue;
            }
            out.push((i, Action::Deliver));
            if ev.is_deliver() {
                if s.drops_left > 0 {
                    out.push((i, Action::Drop));
                }
                if s.dups_left > 0 {
                    out.push((i, Action::Duplicate));
                }
            }
        }
        out
    }

    /// Applies one decision to a copy of `s`. The event is keyed by value
    /// (identical in-flight copies lead to the same successor, so which
    /// copy is removed is immaterial); [`McEvent::CrashRestart`] is
    /// synthesized, never pending, and routes to [`Self::apply_crash`].
    fn apply(
        &self,
        s: &SystemState<P>,
        ev: &McEvent<P::Message>,
        action: Action,
        at: SimTime,
        trace: &mut Vec<TraceEvent>,
        record: bool,
    ) -> Applied<P> {
        if let McEvent::CrashRestart { node } = ev {
            return self.apply_crash(s, *node, at, trace, record);
        }
        let mut next = s.clone();
        let idx = next
            .pending
            .iter()
            .position(|p| p == ev)
            .expect("applied event is in flight");
        // `remove` (not `swap_remove`): within-channel order is FIFO
        // order and must survive the deletion.
        let ev = next.pending.remove(idx);
        match action {
            Action::Drop => {
                let McEvent::Deliver { from, to, .. } = &ev else {
                    unreachable!("only deliveries can be dropped");
                };
                debug_assert!(next.drops_left > 0);
                next.drops_left -= 1;
                if record {
                    trace.push(TraceEvent::Lost {
                        at,
                        from: *from,
                        to: *to,
                    });
                }
                return Applied {
                    state: next,
                    violation: None,
                };
            }
            Action::Duplicate => {
                debug_assert!(ev.is_deliver() && next.dups_left > 0);
                next.dups_left -= 1;
                // The copy goes to the back of its channel: under FIFO a
                // duplicate arrives after the messages already in flight.
                next.pending.push(ev.clone());
            }
            Action::Deliver => {}
        }
        let violation = match ev {
            McEvent::Deliver { from, to, msg } => {
                if record {
                    trace.push(TraceEvent::Deliver {
                        at,
                        from,
                        to,
                        kind: msg.kind(),
                    });
                }
                self.handle(&mut next, to, at, trace, record, |p, ctx| {
                    p.on_message(from, msg, ctx)
                })
            }
            McEvent::CsExit { node } => {
                debug_assert_eq!(
                    next.occupant,
                    Some(node),
                    "CsExit pending only while its node holds the CS"
                );
                next.occupant = None;
                next.completed[node.index()] += 1;
                if record {
                    trace.push(TraceEvent::CsExit { at, node });
                }
                let mut violation = self.handle(&mut next, node, at, trace, record, |p, ctx| {
                    p.on_cs_released(ctx)
                });
                // Multi-round workload: the node immediately re-requests.
                if violation.is_none()
                    && next.completed[node.index()] < self.rounds
                    && self.requesters.contains(&node)
                {
                    if record {
                        trace.push(TraceEvent::Arrival { at, node });
                    }
                    violation = self.handle(&mut next, node, at, trace, record, |p, ctx| {
                        p.on_request(ctx)
                    });
                }
                violation
            }
            McEvent::Timer { node, tag } => {
                if record {
                    trace.push(TraceEvent::Timer { at, node, tag });
                }
                self.handle(&mut next, node, at, trace, record, |p, ctx| {
                    p.on_timer(tag, ctx)
                })
            }
            McEvent::CrashRestart { .. } => unreachable!("routed to apply_crash above"),
        };
        Applied {
            state: next,
            violation,
        }
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
        at: SimTime,
        trace: &mut Vec<TraceEvent>,
        record: bool,
    ) -> Applied<P> {
        let mut next = s.clone();
        debug_assert!(next.crashes_left > 0);
        next.crashes_left -= 1;
        next.pending.retain(|ev| match ev {
            McEvent::Deliver { to, .. } => *to != node,
            McEvent::Timer { node: n, .. } | McEvent::CsExit { node: n } => *n != node,
            McEvent::CrashRestart { .. } => unreachable!("never pending"),
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
        if record {
            trace.push(TraceEvent::Crashed {
                at,
                node,
                held_cs: held,
            });
        }
        let mut outcome = RestartOutcome::KeptState;
        let enter = dispatch(
            &mut next.nodes,
            &mut next.pending,
            node,
            at,
            trace,
            record,
            |p, ctx| outcome = p.on_restart(ctx),
        );
        if record {
            trace.push(TraceEvent::Restarted {
                at,
                node,
                recovered: outcome.recovered(),
            });
        }
        let mut violation = None;
        if enter {
            violation = self.note_enter(&mut next, node, at, trace, record);
        }
        if violation.is_none() && outcome == RestartOutcome::RejoinedIdle && interrupted {
            // Engine parity: the environment re-issues the request the
            // crash wiped out, so the expected completion count holds.
            if record {
                trace.push(TraceEvent::Arrival { at, node });
            }
            violation = self.handle(&mut next, node, at, trace, record, |p, ctx| {
                p.on_request(ctx)
            });
        }
        Applied {
            state: next,
            violation,
        }
    }

    /// Runs one handler of `node` via [`dispatch`] and judges an `enter_cs`
    /// intent it raises with [`Self::note_enter`]: the violation, if any.
    fn handle(
        &self,
        s: &mut SystemState<P>,
        node: NodeId,
        at: SimTime,
        trace: &mut Vec<TraceEvent>,
        record: bool,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>),
    ) -> Option<String> {
        let enter = dispatch(&mut s.nodes, &mut s.pending, node, at, trace, record, f);
        if enter {
            self.note_enter(s, node, at, trace, record)
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
        at: SimTime,
        trace: &mut Vec<TraceEvent>,
        record: bool,
    ) -> Option<String> {
        if let Some(holder) = s.occupant {
            // Narrate the offending entry too: the replay must show the
            // moment the intruder walks in.
            if record {
                trace.push(TraceEvent::CsEnter { at, node });
            }
            return Some(if holder == node {
                format!("{node} entered the CS twice without leaving")
            } else {
                format!("MUTUAL EXCLUSION VIOLATED: {node} entered the CS while {holder} held it")
            });
        }
        s.occupant = Some(node);
        s.pending.push(McEvent::CsExit { node });
        if record {
            trace.push(TraceEvent::CsEnter { at, node });
        }
        None
    }

    /// Per-node and cross-node invariants over a freshly produced state.
    /// With crash branching enabled the per-node hook is the
    /// recovery-tolerant variant ([`McProtocol::check_node_recovering`]):
    /// a crash legitimately trips counters whose accounting assumes no
    /// vote loss (RCV's UL exhaustion).
    fn check_state(&self, s: &SystemState<P>) -> Option<String> {
        for node in &s.nodes {
            let checked = if self.crashes > 0 {
                node.check_node_recovering()
            } else {
                node.check_node()
            };
            if let Err(e) = checked {
                return Some(format!("node invariant: {e}"));
            }
        }
        if let Some(inv) = &self.cross_invariant {
            if let Err(e) = inv(&s.nodes) {
                return Some(format!("cross-node invariant: {e}"));
            }
        }
        None
    }

    /// Quiescent-state goal: every requester finished all its rounds,
    /// unless a message was actually lost or a node actually crashed on
    /// this path (an *attributable* stall — a crash wipes the votes peers
    /// registered at the victim, and with the retry budget spendable
    /// before the crash even happens, some interleavings legitimately
    /// strand a request; duplication alone must never wedge the system).
    fn check_goal(&self, s: &SystemState<P>) -> Option<String> {
        debug_assert!(s.occupant.is_none(), "terminal state with a CS occupant");
        if s.drops_left < self.drops || s.crashes_left < self.crashes {
            return None;
        }
        for &r in &self.requesters {
            if s.completed[r.index()] < self.rounds {
                return Some(format!(
                    "DEADLOCK without attributable fault: nothing in flight but {r} \
                     completed {}/{} rounds",
                    s.completed[r.index()],
                    self.rounds
                ));
            }
        }
        None
    }

    /// Reconstructs the decision path to `last` (plus an optional final
    /// step) and replays it with trace recording: one virtual tick per
    /// decision, rendered through the simnet narrate machinery.
    fn counterexample(
        &self,
        arena: &[ArenaNode<P>],
        last: StateId,
        extra: Option<(McEvent<P::Message>, Action)>,
        description: String,
    ) -> Counterexample<P::Message> {
        let mut steps = Vec::new();
        let mut id = last;
        while let Some(via) = &arena[id as usize].via {
            steps.push(via.clone());
            id = arena[id as usize].parent;
        }
        steps.reverse();
        if let Some(step) = extra {
            steps.push(step);
        }
        let mut events: Vec<TraceEvent> = Vec::new();
        let (mut s, mut violation) = self.build_initial(&mut events, true);
        for (step_no, (ev, action)) in steps.iter().enumerate() {
            if violation.is_some() {
                break;
            }
            let at = SimTime::from_ticks(step_no as u64 + 1);
            let applied = self.apply(&s, ev, *action, at, &mut events, true);
            violation = applied.violation;
            s = applied.state;
        }
        let mut tr = Trace::with_capacity(events.len().max(1));
        for e in events {
            tr.record(e);
        }
        Counterexample {
            description,
            steps,
            trace: tr.render(),
        }
    }
}

/// Runs one protocol handler with intents captured into the state: sends
/// become pending deliveries, timers pending timer events; returns the
/// `enter_cs` intent. The RNG is fixed and virtual time is frozen — the
/// determinism contract of [`McProtocol`].
fn dispatch<P: McProtocol>(
    nodes: &mut [P],
    pending: &mut Vec<McEvent<P::Message>>,
    node: NodeId,
    at: SimTime,
    trace: &mut Vec<TraceEvent>,
    record: bool,
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
        let mut ctx = Ctx::new(node, at, &mut rng, &mut outbox, &mut enter, &mut timers);
        f(&mut nodes[node.index()], &mut ctx);
    }
    for (to, msg) in outbox {
        if record {
            trace.push(TraceEvent::Send {
                at,
                from: node,
                to,
                kind: msg.kind(),
                detail: format!("{msg:?}"),
            });
        }
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
