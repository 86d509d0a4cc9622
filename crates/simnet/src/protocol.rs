//! The sans-io protocol abstraction shared by every mutual exclusion
//! algorithm in this repository.
//!
//! A protocol node is a pure state machine: the engine (or the threaded
//! runtime in `rcv-runtime`) feeds it events — *you requested the CS*, *a
//! message arrived*, *you just left the CS* — and the node reacts by pushing
//! intents into a [`Ctx`]: send these messages, and/or enter the CS now.
//! Because the state machines never touch clocks, sockets or threads
//! directly, the same code is exercised by the deterministic discrete-event
//! simulator and by the real-thread runtime.

use core::fmt;

use rand::rngs::SmallRng;

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// A message type usable by the engines.
///
/// `kind` labels the message class (`"RM"`, `"EM"`, `"REQUEST"`, …) for the
/// per-class message counters that the paper's NME metric breaks down into;
/// `wire_size` is a rough payload size used by the bandwidth ablation.
pub trait ProtocolMessage: Clone + fmt::Debug + Send + 'static {
    /// Short label of the message class.
    fn kind(&self) -> &'static str;

    /// Approximate serialized size in bytes (default: unknown/1).
    fn wire_size(&self) -> usize {
        1
    }
}

/// Everything a node may ask of its environment while handling one event.
///
/// The engine drains the intents after the handler returns: messages are
/// handed to the network with a sampled propagation delay; an `enter_cs`
/// intent makes the engine move the node into the CS *at the current
/// instant* (the engine enforces that the protocol only does this when it
/// actually holds the privilege — a violation is recorded by the safety
/// monitor, not masked).
pub struct Ctx<'a, M> {
    me: NodeId,
    now: SimTime,
    rng: &'a mut SmallRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    enter_cs: &'a mut bool,
    timers: &'a mut Vec<(SimDuration, u64)>,
}

impl<'a, M> Ctx<'a, M> {
    /// Creates a context; used by engines, not by protocol code.
    pub fn new(
        me: NodeId,
        now: SimTime,
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(NodeId, M)>,
        enter_cs: &'a mut bool,
        timers: &'a mut Vec<(SimDuration, u64)>,
    ) -> Self {
        Ctx {
            me,
            now,
            rng,
            outbox,
            enter_cs,
            timers,
        }
    }

    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual (or wall-clock-mapped) time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-node randomness (e.g. RCV's random forwarding).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Queues `msg` for delivery to `to`.
    ///
    /// Sending to self is a protocol bug (none of the implemented algorithms
    /// ever needs it) and is rejected loudly in debug builds.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        debug_assert_ne!(to, self.me, "protocol sent a message to itself");
        self.outbox.push((to, msg));
    }

    /// Declares that this node now enters the critical section.
    #[inline]
    pub fn enter_cs(&mut self) {
        *self.enter_cs = true;
    }

    /// Arms a one-shot timer: [`MutexProtocol::on_timer`] fires with `tag`
    /// after `delay`. Timers cannot be cancelled — a protocol receiving a
    /// stale tag simply ignores it.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }
}

/// What a protocol did with itself in [`MutexProtocol::on_restart`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RestartOutcome {
    /// No recovery story: the pre-crash state was kept verbatim and the
    /// node resumes as if merely frozen. Honest for protocols where a
    /// crashed token holder stays the token holder — such runs only
    /// demand safety, never liveness.
    KeptState,
    /// The node rebuilt its state and rejoined, and resumed the request
    /// the crash interrupted, if there was one (write-ahead recovery).
    /// The environment re-issues nothing: a resumed request is live
    /// again, and its round stays open until it is granted.
    Rejoined,
}

impl RestartOutcome {
    /// Whether the node actually rejoined (anything but [`Self::KeptState`]).
    pub fn recovered(&self) -> bool {
        !matches!(self, RestartOutcome::KeptState)
    }
}

/// A distributed mutual exclusion protocol, one instance per node.
pub trait MutexProtocol {
    /// The single message type exchanged between nodes.
    type Message: ProtocolMessage;

    /// Short human-readable algorithm name (used in reports).
    fn name(&self) -> &'static str;

    /// The local process wants the CS. Guaranteed by the environment to be
    /// called only when this node has no outstanding request (the paper's
    /// one-outstanding-request-per-node model, §3).
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Message>);

    /// A message from `from` arrived (channels need not be FIFO).
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>);

    /// The node has just been granted the CS (after its `enter_cs` intent).
    fn on_cs_granted(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        let _ = ctx;
    }

    /// The node has just finished executing the CS (the paper's
    /// "Upon releasing the CS").
    fn on_cs_released(&mut self, ctx: &mut Ctx<'_, Self::Message>);

    /// A timer armed with [`Ctx::set_timer`] fired. Default: ignore.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Message>) {
        let _ = (tag, ctx);
    }

    /// The shortest delay this node ever passes to [`Ctx::set_timer`];
    /// the default `None` means it arms no timers. The simulator's
    /// lookahead is capped by it, so that no timer fires inside the window
    /// that armed it, and the simulator panics at a timer armed shorter
    /// than the lookahead, split window or not.
    fn min_timer_delay(&self) -> Option<SimDuration> {
        None
    }

    /// The node's process restarted after a bounded crash
    /// ([`crate::FaultPlan::with_crash_restart`]). Everything delivered
    /// during the outage was dropped. The environment never re-issues a
    /// request the crash interrupted: a protocol that recovers resumes it
    /// itself.
    ///
    /// The returned [`RestartOutcome`] tells the environment what happened:
    /// [`RestartOutcome::Rejoined`] means the protocol rebuilt its state
    /// and resumed any interrupted request (the environment re-opens its
    /// bookkeeping for it). The default keeps the pre-crash state verbatim
    /// and reports [`RestartOutcome::KeptState`] — honest for protocols
    /// without a recovery story.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Message>) -> RestartOutcome {
        let _ = ctx;
        RestartOutcome::KeptState
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct Ping;
    impl ProtocolMessage for Ping {
        fn kind(&self) -> &'static str {
            "PING"
        }
    }

    #[test]
    fn ctx_collects_intents() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut outbox = Vec::new();
        let mut enter = false;
        let mut timers = Vec::new();
        let mut ctx = Ctx::new(
            NodeId::new(0),
            SimTime::from_ticks(3),
            &mut rng,
            &mut outbox,
            &mut enter,
            &mut timers,
        );
        assert_eq!(ctx.me(), NodeId::new(0));
        assert_eq!(ctx.now().ticks(), 3);
        ctx.send(NodeId::new(1), Ping);
        ctx.send(NodeId::new(2), Ping);
        ctx.enter_cs();
        ctx.set_timer(crate::time::SimDuration::from_ticks(9), 7);
        assert_eq!(outbox.len(), 2);
        assert!(enter);
        assert_eq!(timers, vec![(crate::time::SimDuration::from_ticks(9), 7)]);
    }

    #[test]
    #[should_panic(expected = "message to itself")]
    #[cfg(debug_assertions)]
    fn self_send_is_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut outbox: Vec<(NodeId, Ping)> = Vec::new();
        let mut enter = false;
        let mut timers = Vec::new();
        let mut ctx = Ctx::new(
            NodeId::new(0),
            SimTime::ZERO,
            &mut rng,
            &mut outbox,
            &mut enter,
            &mut timers,
        );
        ctx.send(NodeId::new(0), Ping);
    }

    #[test]
    fn default_wire_size_is_one() {
        assert_eq!(Ping.wire_size(), 1);
        assert_eq!(Ping.kind(), "PING");
    }
}
