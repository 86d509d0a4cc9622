//! The cluster's fabric abstraction: one node-side API, two fabrics.
//!
//! A [`Transport`] is **one node's connection to the rest of the
//! cluster**: it carries protocol messages out (with the node-sampled
//! base delay the fabric will apply), delivers inbound messages and the
//! shutdown signal, and accepts the node's "all my rounds are done"
//! announcement. The node driver in `crate::node` is written against this
//! trait alone, and built from the node's [`crate::NodeSpec`] on either
//! tier (the socket hub ships it in `Start`, see [`frame`]), so the same
//! protocol-driving code runs the same node on both fabrics:
//!
//! * [`ChanTransport`] — the in-process fabric: the node threads share
//!   one `FaultQueue` behind a mutex, with a delay heap per receiver. A
//!   send applies the fault plan and queues the delivery in the
//!   receiver's heap; each node thread pops its own due deliveries and
//!   sleeps on its condvar until the next one, so no thread routes.
//! * [`SocketTransport`] — a real socket (Unix-domain or TCP loopback) to
//!   the orchestrator hub; every message crosses as length-prefixed
//!   [`WireCodec`](crate::wire::WireCodec) bytes inside a control frame,
//!   and the hub applies the same `rcv_simnet::FaultPlan` at the socket
//!   boundary.
//!
//! ```text
//!                Transport::send / recv / notify_done
//!                      │                      │
//!            ChanTransport              SocketTransport
//!                      │                      │
//!       Switchboard (threads):         orchestrator hub (processes):
//!       FaultQueue, one heap per       the same FaultQueue, each
//!       receiver, popped by it         receiver's popped by the hub
//! ```

pub(crate) mod chan;
pub mod frame;
pub(crate) mod netq;
#[allow(unsafe_code)]
pub(crate) mod readiness;
pub mod socket;

use std::time::Duration;

use rcv_simnet::NodeId;

pub use chan::ChanTransport;
pub use socket::{SocketNet, SocketTransport};

/// The fabric disappeared under the node (cluster tear-down, hub gone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportClosed;

impl core::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cluster fabric closed")
    }
}

impl std::error::Error for TransportClosed {}

/// One inbound event from the fabric.
#[derive(Debug)]
pub enum RecvOutcome<M> {
    /// A protocol message was delivered.
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// Nothing arrived within the allotted wait.
    Timeout,
    /// The cluster is tearing down (explicit shutdown or fabric gone);
    /// the node must return.
    Shutdown,
}

/// One node's connection to the cluster fabric.
///
/// Delivery semantics are identical across implementations: the fabric
/// applies the node-sampled base `delay` (possibly stretched, dropped or
/// duplicated by the cluster's `rcv_simnet::FaultPlan`) and delivers to a
/// crashed node as to any other — the node's driver discards what reaches
/// it while down. Messages are **not** FIFO: reordering under random
/// delays is exactly the regime the RCV paper claims to tolerate.
pub trait Transport<M>: Send {
    /// Queues `msg` for `to` with the node-sampled base `delay`.
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed>;

    /// Waits up to `timeout` for the next inbound event. A zero `timeout`
    /// polls: what has already arrived, or `Timeout`, without blocking.
    /// `Timeout` comes only once `timeout` has passed.
    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M>;

    /// Announces that this node has completed all its CS rounds (it keeps
    /// serving peers until shutdown).
    fn notify_done(&mut self);
}
