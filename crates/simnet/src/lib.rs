//! # rcv-simnet — discrete-event substrate for distributed mutex protocols
//!
//! This crate is the simulation substrate used to reproduce the evaluation of
//! *Cao, Zhou, Chen, Wu — "An Efficient Distributed Mutual Exclusion
//! Algorithm Based on Relative Consensus Voting" (IPDPS 2004)*. The paper
//! evaluates its algorithm on an event-driven simulator in the style of
//! Singhal (1989): `N` fully connected nodes, constant message propagation
//! delay `Tn`, constant CS execution time `Tc`, Poisson request arrivals.
//!
//! The substrate provides:
//!
//! * [`SimTime`]/[`SimDuration`] — a virtual clock in abstract time units;
//! * [`EventQueue`] — a deterministic future-event list (ties fire in
//!   insertion order, so a seed fully determines a run);
//! * [`DelayModel`] — constant (the paper's) and jittered/heavy-tailed
//!   delivery models; the latter produce genuinely non-FIFO channels, which
//!   the RCV algorithm claims to tolerate;
//! * [`MutexProtocol`]/[`Ctx`] — the sans-io state-machine interface every
//!   algorithm in this workspace implements, so the same protocol code runs
//!   under this simulator and under the real-thread runtime in
//!   `rcv-runtime`;
//! * [`SafetyMonitor`] — an omniscient observer checking mutual exclusion
//!   externally, on this simulator and on both real tiers of `rcv-runtime`;
//! * [`SimMetrics`] — NME / response-time / synchronization-delay
//!   bookkeeping matching the paper's measures;
//! * [`Engine`] — the event loop tying it all together.
//!
//! ## Example
//!
//! ```
//! use rcv_simnet::{Engine, SimConfig, BurstOnce};
//! # use rcv_simnet::{Ctx, MutexProtocol, NodeId, ProtocolMessage};
//! # #[derive(Clone, Debug)] struct Never;
//! # impl ProtocolMessage for Never { fn kind(&self) -> &'static str { "X" } }
//! # struct Selfish;
//! # impl MutexProtocol for Selfish {
//! #     type Message = Never;
//! #     fn name(&self) -> &'static str { "selfish" }
//! #     fn on_request(&mut self, ctx: &mut Ctx<'_, Never>) { ctx.enter_cs(); }
//! #     fn on_message(&mut self, _: NodeId, _: Never, _: &mut Ctx<'_, Never>) {}
//! #     fn on_cs_released(&mut self, _: &mut Ctx<'_, Never>) {}
//! # }
//! // A 1-node system with the paper's Tn/Tc; the node enters immediately.
//! let report = Engine::new(SimConfig::paper(1, 42), BurstOnce, |_, _| Selfish).run();
//! assert!(report.is_safe());
//! assert_eq!(report.metrics.completed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod engine;
mod event;
mod faults;
mod ids;
mod metrics;
mod monitor;
pub mod profile;
mod protocol;
mod retry;
mod stats;
mod time;
mod trace;
mod workload;

pub use delay::DelayModel;
pub use engine::{Engine, SimConfig, SimReport};
pub use event::{Event, EventKind, EventQueue};
pub use faults::{CrashWindow, FaultPlan};
pub use ids::NodeId;
pub use metrics::{RequestRecord, SimMetrics};
pub use monitor::{MonitorParts, SafetyMonitor, Violation};
pub use protocol::{Ctx, MutexProtocol, ProtocolMessage, RestartOutcome};
pub use retry::RetryPolicy;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
pub use workload::{ArrivalSink, BurstOnce, FixedTrace, Workload};
