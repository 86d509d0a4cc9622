//! # rcv-runtime — real-thread message-passing runtime
//!
//! The simulator in `rcv-simnet` validates the protocols deterministically;
//! this crate validates them under *real* concurrency. Every node of the
//! distributed system becomes an OS thread with a crossbeam-channel inbox;
//! a network thread injects per-message random delays (making channels
//! non-FIFO, the condition the RCV paper claims to tolerate); a shared
//! [`CsChecker`] observes every CS entry/exit.
//!
//! There is deliberately **no shared memory between protocol nodes** — the
//! paper's system model (§3) — and the [`wire`] module goes one step
//! further: RCV messages can be serialized to bytes and parsed back on
//! every hop ([`with_codec_verification`]), proving the protocol state is
//! plain data.
//!
//! ```
//! use rcv_runtime::{run_rcv_cluster, ClusterSpec};
//! use rcv_core::RcvConfig;
//!
//! let report = run_rcv_cluster(ClusterSpec::quick(3, 42), RcvConfig::paper());
//! assert!(report.is_clean(3)); // 3 nodes, one CS execution each, no overlap
//! ```
//!
//! Beyond RCV, the cluster is algorithm-agnostic: [`run_cluster`] accepts
//! any `MutexProtocol`, [`wire::WireCodec`] covers every baseline message
//! type, and [`ClusterSpec::faults`] mirrors the simulator's fault plans
//! (loss, duplication, stragglers) at the real-network layer. The
//! [`watchdog`] module guards threaded tests with a hard wall-clock
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
pub mod transport;
pub mod watchdog;
pub mod wire;

pub use checker::{replay_cs_log, CsChecker, CsLogProbe, CsProbe};
pub use cluster::{
    run_cluster, run_cluster_collecting, ClusterReport, ClusterSpec, NetDelay, WireFaults, WireHook,
};
pub use rcv_cluster::{run_rcv_cluster, run_rcv_cluster_collecting, with_codec_verification};
pub use transport::{RecvOutcome, SocketNet, Transport, TransportClosed};
pub use watchdog::run_with_watchdog;
