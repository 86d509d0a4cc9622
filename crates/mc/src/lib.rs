//! Exhaustive model checking for the sans-io mutual exclusion protocols.
//!
//! The simulator ([`rcv_simnet::Engine`]) samples schedules; this crate
//! *enumerates* them. A system state is the tuple (all node states,
//! multiset of in-flight events, CS occupancy, fault budgets); from each
//! state the [`ModelChecker`] branches on every eligible pending event —
//! and, when the fault budgets allow, on losing or duplicating each
//! in-flight message and on crash-restarting each node (any node, any
//! instant: the victim's in-flight inbox and timers die with it, then
//! its `on_restart` recovery hook runs) — deduplicating revisited states
//! by a canonical 128-bit fingerprint. In every reachable state it
//! checks:
//!
//! * **mutual exclusion** — an `enter_cs` intent while another node holds
//!   the CS (or a double entry by the holder) is a violation;
//! * **per-node invariants** — a protocol-specific hook
//!   ([`McProtocol::check_node`]; for RCV: the paper's structural lemmas
//!   plus a zero anomaly count);
//! * **cross-node invariants** — an optional whole-system predicate (for
//!   RCV: Lemma 6/7 NONL prefix consistency);
//!
//! and in every *quiescent* state (nothing in flight) it checks the goal:
//! every requester completed all its rounds — **unless** a message was
//! actually lost or a node actually crashed on that path
//! (no-deadlock-without-attributable-fault; duplication alone must never
//! cause a stall).
//!
//! [`ModelChecker::run`] is the one search: it exhausts the state space
//! depth-first. On a violation it rebuilds the offending path from its
//! parent-pointer arena, searches again breadth-first — bounded by that
//! path's length — for a shortest one, and replays that through the
//! [`rcv_simnet::Trace`] machinery: a human-readable minimal
//! counterexample ([`Counterexample::minimal`] says when the state cap
//! cut the minimizing search short). Each step is a [`Decision`]: deliver,
//! drop or duplicate an in-flight event, or crash-restart a node.
//!
//! Determinism contract: the checker's dispatch must be a pure function
//! of the node state, so protocols must not consume randomness
//! (`ForwardPolicy::Random` is rejected by the RCV harness) and virtual
//! time is frozen at zero (the shipped protocols are time-independent).
//!
//! FIFO: Lamport's algorithm assumes FIFO channels, so its harness
//! restricts delivery to per-channel heads ([`ModelChecker::fifo`]);
//! exploring it with arbitrary reordering produces a genuine mutual
//! exclusion violation — kept as a test that the counterexample machinery
//! detects and renders real safety bugs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
mod checker;
mod harness;
mod state;

pub use adapters::McProtocol;
pub use checker::{Counterexample, McReport, McStats, ModelChecker};
pub use harness::{lamport_checker, rcv_checker, rcv_recovery_checker, ricart_checker};
pub use state::{Decision, McEvent, SystemState};
