//! System states and their canonical fingerprints.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use rcv_simnet::NodeId;

use crate::adapters::McProtocol;

/// One in-flight occurrence the checker can branch on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McEvent<M> {
    /// A message sent by `from`, not yet delivered to `to`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// The node currently executing the CS finishes.
    CsExit {
        /// The node leaving the CS.
        node: NodeId,
    },
    /// A timer armed by `node` fires.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The tag the protocol attached when arming it.
        tag: u64,
    },
}

impl<M> McEvent<M> {
    /// Grouping key for canonicalization: deliveries group per directed
    /// `(from, to)` channel (whose internal order carries meaning under
    /// FIFO), everything else is its own singleton group.
    pub(crate) fn group_key(&self) -> (u8, u32, u32, u64) {
        match *self {
            McEvent::Deliver { from, to, .. } => (0, from.raw(), to.raw(), 0),
            McEvent::CsExit { node } => (1, node.raw(), 0, 0),
            McEvent::Timer { node, tag } => (2, node.raw(), 0, tag),
        }
    }
}

/// One branch the checker takes from a state: a variant per kind of
/// branch point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision<M> {
    /// Deliver an in-flight message, or fire a pending local event.
    Deliver(McEvent<M>),
    /// Lose an in-flight message (one unit of the loss budget). Only
    /// messages are lost: losing a local event is meaningless.
    Drop(McEvent<M>),
    /// Deliver an in-flight message and leave a second copy in flight
    /// (one unit of the duplication budget).
    Duplicate(McEvent<M>),
    /// Crash the node and restart it at once (one unit of the crash
    /// budget): the crash window collapses to a point, everything in
    /// flight *toward* the node and its armed timers die with the
    /// process, then [`rcv_simnet::MutexProtocol::on_restart`] runs.
    CrashRestart(NodeId),
}

/// One snapshot of the whole system: node states, in-flight events, CS
/// occupancy and the remaining fault budgets.
///
/// `pending` preserves send order within each directed channel (the tail
/// is the newest message), which is what FIFO mode's head-only delivery
/// rule keys on; in unordered mode the order is irrelevant and the
/// fingerprint sorts it away.
pub struct SystemState<P: McProtocol>
where
    P::Message: PartialEq,
{
    /// Per-node protocol state, indexed by node id.
    pub nodes: Vec<P>,
    /// In-flight events.
    pub pending: Vec<McEvent<P::Message>>,
    /// The node currently inside the CS, if any (the checker's own
    /// monitor — protocol-independent, like the engine's
    /// [`rcv_simnet::SafetyMonitor`]).
    pub occupant: Option<NodeId>,
    /// Completed CS executions per node.
    pub completed: Vec<u32>,
    /// Messages the checker may still choose to lose on this path.
    pub drops_left: u32,
    /// Messages the checker may still choose to duplicate on this path.
    pub dups_left: u32,
    /// Crash-restarts the checker may still inject on this path.
    pub crashes_left: u32,
}

impl<P: McProtocol> Clone for SystemState<P>
where
    P::Message: PartialEq,
{
    fn clone(&self) -> Self {
        SystemState {
            nodes: self.nodes.clone(),
            pending: self.pending.clone(),
            occupant: self.occupant,
            completed: self.completed.clone(),
            drops_left: self.drops_left,
            dups_left: self.dups_left,
            crashes_left: self.crashes_left,
        }
    }
}

/// Two independent 64-bit lanes (SipHash via [`DefaultHasher`], which is
/// deterministic when built with `new()`, and FNV-1a) combined into a
/// 128-bit fingerprint: at the state counts the checker reaches (≤ 10^8)
/// a collision — which would silently prune a *distinct* state — is
/// astronomically unlikely.
struct Lanes {
    sip: DefaultHasher,
    fnv: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            sip: DefaultHasher::new(),
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn finish128(&self) -> u128 {
        ((self.sip.finish() as u128) << 64) | self.fnv as u128
    }
}

impl Hasher for Lanes {
    fn finish(&self) -> u64 {
        self.sip.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.sip.write(bytes);
        for &b in bytes {
            self.fnv = (self.fnv ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Canonical 128-bit fingerprint of a state.
///
/// Node states hash through [`McProtocol::state_hash`]; pending events are
/// grouped by channel and — in unordered mode — sorted within each group,
/// so permutations of in-flight messages that cannot be distinguished by
/// any delivery schedule collapse to one fingerprint. Under FIFO the
/// within-channel order *is* observable and is preserved. The remaining
/// budgets are part of the identity (used budget = initial − left, so
/// "attributable fault" is a function of the state, not the path).
pub(crate) fn fingerprint<P: McProtocol>(s: &SystemState<P>, fifo: bool) -> u128
where
    P::Message: PartialEq,
{
    let mut h = Lanes::new();
    for node in &s.nodes {
        node.state_hash(&mut h);
        0xfeu8.hash(&mut h);
    }
    let mut groups: BTreeMap<(u8, u32, u32, u64), Vec<String>> = BTreeMap::new();
    for ev in &s.pending {
        groups
            .entry(ev.group_key())
            .or_default()
            .push(format!("{ev:?}"));
    }
    for (key, mut reprs) in groups {
        if !fifo {
            reprs.sort_unstable();
        }
        key.hash(&mut h);
        for r in &reprs {
            r.hash(&mut h);
        }
    }
    match s.occupant {
        Some(n) => n.raw().hash(&mut h),
        None => u32::MAX.hash(&mut h),
    }
    s.completed.hash(&mut h);
    s.drops_left.hash(&mut h);
    s.dups_left.hash(&mut h);
    s.crashes_left.hash(&mut h);
    h.finish128()
}
