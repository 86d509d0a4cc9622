//! # rcv-runtime — real-concurrency message-passing runtime
//!
//! The simulator in `rcv-simnet` validates the protocols deterministically;
//! this crate validates them under *real* concurrency, on two tiers that
//! drive the same node loop over the [`Transport`] trait:
//!
//! * **threads** ([`run_cluster_collecting`]): every node is an OS thread
//!   that queues its sends in one shared delay queue, with per-message
//!   random delays (making delivery non-FIFO, the condition the RCV paper
//!   claims to tolerate) and the simulator's fault plan, and serves its
//!   own deliveries;
//! * **processes** ([`orchestrator`]): every node is a worker process
//!   connected to a hub over Unix-domain or TCP loopback sockets.
//!
//! A run is described by one [`Spec`]: the shared parameters
//! ([`RunSpec`]) plus what a tier needs beyond them ([`ClusterSpec`],
//! [`orchestrator::ProcessSpec`]). Faults and delays are the simulator's
//! own: both tiers run its `FaultPlan` itself ([`serves`] says which plans
//! they hold), and [`NetDelay::from_model`] renders its delay model. Both
//! tiers report a [`ClusterReport`], and both judge mutual exclusion with
//! the simulator's own [`rcv_simnet::SafetyMonitor`]: the node threads
//! share one, the worker processes' CS log is replayed into one.
//!
//! There is deliberately **no shared memory between protocol nodes** — the
//! paper's system model (§3) — and the [`wire`] module goes one step
//! further: every message type can be serialized to bytes and parsed back
//! on every hop ([`wire::verifying_hook`] on the thread tier, always on
//! the socket tier), proving the protocol state is plain data.
//!
//! ```
//! use rcv_runtime::{run_cluster_collecting, ClusterSpec};
//! use rcv_core::RcvNode;
//!
//! let (report, nodes) = run_cluster_collecting(ClusterSpec::quick(3, 42), RcvNode::new);
//! assert!(report.is_clean(3)); // 3 nodes, one CS execution each, no overlap
//! assert_eq!(rcv_core::total_anomalies(&nodes), 0);
//! ```
//!
//! The [`watchdog`] module guards threaded tests with a hard wall-clock
//! deadline plus a thread dump, so a deadlocked cluster fails loudly.

// `deny`, not `forbid`: `transport::readiness`, the one FFI module (two
// calls: `ppoll` and the `prctl` timer-slack guard), carries the crate's
// single `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod cluster;
mod node;
pub mod orchestrator;
#[cfg(test)]
mod rcv_cluster;
mod spec;
pub mod transport;
pub mod watchdog;
pub mod wire;

pub use cluster::{run_cluster_collecting, serves, ClusterReport, ClusterSpec, NetDelay, WireHook};
pub use spec::{NodeSpec, RunSpec, Spec};
pub use transport::netq::Lateness;
pub use transport::{RecvOutcome, SocketNet, Transport, TransportClosed};
pub use watchdog::run_with_watchdog;
