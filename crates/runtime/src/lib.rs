//! # rcv-runtime — real-concurrency message-passing runtime
//!
//! The simulator in `rcv-simnet` validates the protocols deterministically;
//! this crate validates them under *real* concurrency, on two tiers that
//! drive the same node loop over the [`Transport`] trait:
//!
//! * **threads** ([`run_cluster_collecting`]): every node is an OS thread with a
//!   crossbeam-channel inbox; the calling thread injects per-message random
//!   delays (making channels non-FIFO, the condition the RCV paper claims
//!   to tolerate) and wire-level faults;
//! * **processes** ([`orchestrator`]): every node is a worker process
//!   connected to a hub over Unix-domain or TCP loopback sockets.
//!
//! A run is described by one [`Spec`]: the shared parameters
//! ([`RunSpec`]) plus what a tier needs beyond them ([`ClusterSpec`],
//! [`orchestrator::ProcessSpec`]). Faults and delays are the simulator's
//! own, rendered one way: `WireFaults::try_from(&FaultPlan)` and
//! [`NetDelay::from_model`]. Both tiers report a [`ClusterReport`]; a
//! shared [`CsChecker`] (or the replayed CS log) observes every CS
//! entry/exit.
//!
//! There is deliberately **no shared memory between protocol nodes** — the
//! paper's system model (§3) — and the [`wire`] module goes one step
//! further: every message type can be serialized to bytes and parsed back
//! on every hop ([`wire::verifying_hook`] on the thread tier, always on
//! the socket tier), proving the protocol state is plain data.
//!
//! ```
//! use rcv_runtime::{run_rcv_cluster, ClusterSpec};
//! use rcv_core::RcvConfig;
//!
//! let report = run_rcv_cluster(ClusterSpec::quick(3, 42), RcvConfig::paper());
//! assert!(report.is_clean(3)); // 3 nodes, one CS execution each, no overlap
//! ```
//!
//! The [`watchdog`] module guards threaded tests with a hard wall-clock
//! deadline plus a thread dump, so a deadlocked cluster fails loudly.

// `deny`, not `forbid`: `transport::readiness` (the hub's one `ppoll`
// call) carries the crate's single `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod cluster;
mod node;
pub mod orchestrator;
mod rcv_cluster;
mod spec;
pub mod transport;
pub mod watchdog;
pub mod wire;

pub use checker::{replay_cs_log, CsChecker, CsLogProbe, CsProbe};
pub use cluster::{
    run_cluster_collecting, ClusterReport, ClusterSpec, NetDelay, WireFaults, WireHook,
};
pub use rcv_cluster::run_rcv_cluster;
pub use spec::{RunSpec, Spec};
pub use transport::{RecvOutcome, SocketNet, Transport, TransportClosed};
pub use watchdog::run_with_watchdog;
