//! The in-process fabric: the node threads share one [`Switchboard`] and
//! each serves its own deliveries — no thread sits between a sender and
//! its receiver.
//!
//! A send applies the fault plan and queues the message in the
//! receiver's heap, due its injected delay after the send, and wakes the
//! receiver only if it sleeps past that due time. A receive pops what is
//! due for this node and otherwise sleeps until the earlier of its
//! timeout and its next due delivery. So a hop costs one cross-thread
//! wake-up at most, and a delivery is due exactly `delay` after its send.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rcv_simnet::{FaultPlan, NodeId};

use super::netq::FaultQueue;
use super::{RecvOutcome, Transport, TransportClosed};
use crate::cluster::WireHook;

/// What the thread tier's node threads and the caller of
/// `run_cluster_collecting` share: one mutex over the delay queue and the
/// run's life cycle, one condvar per node, one for the caller.
pub(crate) struct Switchboard<M> {
    state: Mutex<Board<M>>,
    /// Node `i`'s thread sleeps on `nodes[i]` inside `recv`.
    nodes: Vec<Condvar>,
    /// The caller sleeps here until the run ends.
    caller: Condvar,
    /// Applied to every delivery on the receiving thread, outside the lock.
    hook: Option<WireHook<M>>,
}

/// The state behind [`Switchboard`]'s mutex.
pub(crate) struct Board<M> {
    /// Plan, fault counters, lateness and one heap per receiver.
    pub(crate) q: FaultQueue<M>,
    /// Until when node `i`'s thread sleeps in `recv`; `None` while awake.
    asleep: Vec<Option<Instant>>,
    /// Nodes that announced `Done`.
    done: usize,
    /// Transports dropped. A node thread drops its transport only after
    /// the shutdown, unless it panicked.
    dropped: usize,
    shutdown: bool,
}

impl<M: Clone> Switchboard<M> {
    /// A switchboard for `n` nodes running `plan`.
    pub(crate) fn new(n: usize, plan: &FaultPlan, hook: Option<WireHook<M>>) -> Arc<Self> {
        Arc::new(Switchboard {
            state: Mutex::new(Board {
                q: FaultQueue::new(plan, n),
                asleep: vec![None; n],
                done: 0,
                dropped: 0,
                shutdown: false,
            }),
            nodes: (0..n).map(|_| Condvar::new()).collect(),
            caller: Condvar::new(),
            hook,
        })
    }

    /// Node `me`'s connection.
    pub(crate) fn transport(self: &Arc<Self>, me: NodeId) -> ChanTransport<M> {
        ChanTransport {
            me,
            net: Arc::clone(self),
        }
    }

    /// Waits until every node has announced `Done`, a node thread is gone
    /// without being told to (it panicked: its `join` says how) or
    /// `deadline` passes; then shuts every node down. Returns whether the
    /// deadline ended the wait.
    pub(crate) fn run_until_done(&self, deadline: Instant) -> bool {
        let mut b = self.lock();
        let timed_out = loop {
            if b.done == self.nodes.len() || b.dropped > 0 {
                break false;
            }
            let now = Instant::now();
            if now >= deadline {
                break true;
            }
            b = self
                .caller
                .wait_timeout(b, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        b.shutdown = true;
        drop(b);
        for node in &self.nodes {
            node.notify_one();
        }
        timed_out
    }
}

impl<M> Switchboard<M> {
    /// The shared state. Nothing panics while holding it, so a poisoned
    /// lock still guards coherent state.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Board<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One node's connection to the `Switchboard`.
pub struct ChanTransport<M> {
    me: NodeId,
    net: Arc<Switchboard<M>>,
}

impl<M: Clone + Send> Transport<M> for ChanTransport<M> {
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed> {
        let sent = Instant::now();
        let to = to.index();
        let wake = {
            let mut b = self.net.lock();
            if b.shutdown {
                return Err(TransportClosed);
            }
            b.q.submit(self.me.index(), to, delay, msg, sent);
            match (b.asleep[to], b.q.next_due(to)) {
                (Some(until), Some(due)) if due < until => {
                    b.asleep[to] = Some(due);
                    true
                }
                _ => false,
            }
        };
        if wake {
            self.net.nodes[to].notify_one();
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M> {
        let me = self.me.index();
        let mut now = Instant::now();
        let deadline = now + timeout;
        let mut b = self.net.lock();
        let (from, msg) = loop {
            if b.shutdown {
                return RecvOutcome::Shutdown;
            }
            if let Some(delivery) = b.q.pop_due(me, now) {
                break delivery;
            }
            if now >= deadline {
                return RecvOutcome::Timeout;
            }
            let next = b.q.next_due(me);
            let until = next.map_or(deadline, |due| due.min(deadline));
            b.asleep[me] = Some(until);
            b = self.net.nodes[me]
                .wait_timeout(b, until.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            b.asleep[me] = None;
            now = Instant::now();
        };
        drop(b);
        let msg = match &self.net.hook {
            Some(hook) => hook(msg),
            None => msg,
        };
        RecvOutcome::Msg {
            from: NodeId::new(from as u32),
            msg,
        }
    }

    fn notify_done(&mut self) {
        let mut b = self.net.lock();
        b.done += 1;
        let all = b.done == self.net.nodes.len();
        drop(b);
        if all {
            self.net.caller.notify_one();
        }
    }
}

impl<M> Drop for ChanTransport<M> {
    fn drop(&mut self) {
        self.net.lock().dropped += 1;
        self.net.caller.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board(n: usize) -> Arc<Switchboard<u32>> {
        Switchboard::new(n, &FaultPlan::none(), None)
    }

    /// Returns once node `i` sleeps inside `recv`.
    fn until_asleep(net: &Switchboard<u32>, i: usize) {
        while net.lock().asleep[i].is_none() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_sleeping_receiver_is_woken_for_a_delivery_due_before_its_timeout() {
        let net = board(2);
        let mut tx = net.transport(NodeId::new(0));
        let mut rx = net.transport(NodeId::new(1));
        let receiver = std::thread::spawn(move || match rx.recv(Duration::from_millis(20)) {
            RecvOutcome::Msg { from, msg } => (from, msg, Instant::now()),
            other => panic!("expected the delivery, got {other:?}"),
        });
        until_asleep(&net, 1);
        let sent = Instant::now();
        tx.send(NodeId::new(1), 7, Duration::from_micros(100))
            .expect("open");
        let (from, msg, got) = receiver.join().expect("receiver");
        assert_eq!((from, msg), (NodeId::new(0), 7));
        let took = got - sent;
        assert!(
            took >= Duration::from_micros(100) && took < Duration::from_millis(10),
            "{took:?}"
        );
        assert_eq!(net.lock().q.late.count, 1);
    }

    #[test]
    fn shutdown_wakes_every_sleeping_node_and_closes_sends() {
        let net = board(3);
        let sleepers: Vec<_> = (0..3)
            .map(|i| {
                let mut t = net.transport(NodeId::new(i));
                std::thread::spawn(move || {
                    let asleep = Instant::now();
                    let outcome = t.recv(Duration::from_secs(30));
                    assert!(matches!(outcome, RecvOutcome::Shutdown), "{outcome:?}");
                    (t, asleep.elapsed())
                })
            })
            .collect();
        (0..3).for_each(|i| until_asleep(&net, i));
        // Nobody is done: the deadline, already past, ends the wait.
        assert!(net.run_until_done(Instant::now()));
        for sleeper in sleepers {
            let (mut t, slept) = sleeper.join().expect("sleeper");
            assert!(slept < Duration::from_secs(10), "{slept:?}");
            assert_eq!(
                t.send(NodeId::new(0), 1, Duration::ZERO),
                Err(TransportClosed)
            );
        }
        assert_eq!(net.lock().q.in_flight(), 0);
    }

    #[test]
    fn the_caller_returns_once_every_node_is_done_or_one_is_gone() {
        let net = board(2);
        let mut a = net.transport(NodeId::new(0));
        let mut b = net.transport(NodeId::new(1));
        a.notify_done();
        b.notify_done();
        let far = Instant::now() + Duration::from_secs(30);
        assert!(!net.run_until_done(far));

        let net = board(2);
        let gone = net.transport(NodeId::new(0));
        let _alive = net.transport(NodeId::new(1));
        drop(gone);
        let started = Instant::now();
        assert!(!net.run_until_done(Instant::now() + Duration::from_secs(30)));
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
