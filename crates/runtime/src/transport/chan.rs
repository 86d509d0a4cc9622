//! The in-process channel fabric: each node holds a crossbeam inbox and a
//! sender into the one channel the cluster's serving thread reads. This is
//! the original threaded cluster's plumbing, behind the [`Transport`]
//! trait.

use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use rcv_simnet::NodeId;

use super::{RecvOutcome, Transport, TransportClosed};

/// What a node sends up to the serving thread.
pub(crate) enum Submitted<M> {
    /// A protocol message to route: the sampled base delay is applied (and
    /// possibly stretched, dropped or doubled) by the delay queue.
    Msg {
        from: NodeId,
        to: NodeId,
        msg: M,
        delay: Duration,
    },
    /// The sending node has completed all its rounds.
    Done,
}

/// What the serving thread puts in a node's inbox.
pub(crate) enum Packet<M> {
    Msg { from: NodeId, msg: M },
    Shutdown,
}

/// The channel-backed [`Transport`]: node ⇄ serving-thread plumbing of the
/// in-process cluster.
pub struct ChanTransport<M> {
    me: NodeId,
    net_tx: Sender<Submitted<M>>,
    rx: Receiver<Packet<M>>,
}

impl<M> ChanTransport<M> {
    pub(crate) fn new(me: NodeId, net_tx: Sender<Submitted<M>>, rx: Receiver<Packet<M>>) -> Self {
        ChanTransport { me, net_tx, rx }
    }
}

impl<M: Send> Transport<M> for ChanTransport<M> {
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed> {
        let from = self.me;
        self.net_tx
            .send(Submitted::Msg {
                from,
                to,
                msg,
                delay,
            })
            .map_err(|_| TransportClosed)
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M> {
        match self.rx.recv_timeout(timeout) {
            Ok(Packet::Msg { from, msg }) => RecvOutcome::Msg { from, msg },
            Ok(Packet::Shutdown) => RecvOutcome::Shutdown,
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Timeout,
            // All senders gone means the cluster is tearing down.
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Shutdown,
        }
    }

    fn notify_done(&mut self) {
        let _ = self.net_tx.send(Submitted::Done);
    }
}
