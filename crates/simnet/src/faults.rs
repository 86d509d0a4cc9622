//! Failure injection.
//!
//! The paper's system model (§3) assumes reliable channels and no crashes,
//! but makes two resiliency claims worth probing: the algorithm "does not
//! require the FIFO property" (§1) and "the correct operation ... does not
//! depend on any specific node, crash of nodes will not affect the
//! algorithm's execution" (§4, inherited from MCV). Non-FIFO delivery is a
//! delay-model concern ([`crate::DelayModel`]); this module adds the two
//! fault classes beyond the model:
//!
//! * **duplication** — every k-th message is delivered twice (with an
//!   independently sampled delay). The protocol's idempotence guards must
//!   absorb the copies.
//! * **crash-stop** — a node stops processing *anything* (deliveries,
//!   arrivals, even its own CS exit) from a given instant. Messages to it
//!   vanish. This deliberately includes the harsh case of crashing while
//!   holding the CS.
//! * **crash windows (crash + restart)** — a node is down for a bounded
//!   interval `[down_at, up_at)` and then *restarts*: deliveries during the
//!   window vanish (counted separately from network loss), and at `up_at`
//!   the engine invokes the protocol's
//!   [`crate::MutexProtocol::on_restart`] hook so it can rejoin (RCV
//!   re-initializes its volatile SI from a stable-storage timestamp and
//!   re-announces; protocols without a recovery story keep their pre-crash
//!   state and are documented non-recoverable). A crashed *holder* is
//!   evicted from the safety monitor at `down_at` — the process is dead, so
//!   it cannot be "inside" the CS. The environment never re-issues the
//!   request a crash interrupted: a recovering protocol resumes it itself
//!   (RCV's write-ahead record), one without a recovery story keeps it.
//! * **loss** — every k-th message vanishes in the network (never
//!   delivered). The paper assumes reliable channels, so lossy cells only
//!   demand *safety*; liveness under loss needs the retransmission
//!   extension.
//! * **stragglers** — a slow node: every message to or from it takes a
//!   multiple of the sampled delay. Per-channel delays stay constant under
//!   the constant model, so stragglers preserve FIFO and (unlike the fault
//!   classes above) both safety *and* liveness must survive them.
//!
//! The classes compose: one [`FaultPlan`] may stack loss, duplication,
//! stragglers and crashes in a single run (the scenario matrix does). When
//! one message is both the k-th dropped and the j-th duplicated, the drop
//! wins — the message (and its would-be copy) never leaves the source.

use crate::ids::NodeId;
use crate::time::SimTime;

/// A bounded outage: the node is down during `[down_at, up_at)` and
/// restarts at `up_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that goes down.
    pub node: NodeId,
    /// First instant (inclusive) at which the node stops processing.
    pub down_at: SimTime,
    /// The instant the node comes back and its
    /// [`crate::MutexProtocol::on_restart`] hook runs.
    pub up_at: SimTime,
}

/// Failure injection plan for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Deliver every `k`-th message twice (`None` = no duplication).
    pub duplicate_every: Option<u64>,
    /// Drop every `k`-th message entirely (`None` = reliable channels).
    pub drop_every: Option<u64>,
    /// Crash-stop faults: `(node, at)` — the node processes nothing from
    /// `at` (inclusive) onwards.
    pub crashes: Vec<(NodeId, SimTime)>,
    /// Bounded outages after which the node restarts (crash windows).
    pub restarts: Vec<CrashWindow>,
    /// Straggler nodes: `(node, factor)` — every message to or from the
    /// node takes `factor ×` the sampled delay. A factor of 1 is inert.
    pub stragglers: Vec<(NodeId, u64)>,
}

impl FaultPlan {
    /// The fault-free plan (the paper's model).
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan with duplication only.
    pub fn duplicating(every: u64) -> Self {
        assert!(every >= 1, "duplicate_every must be >= 1");
        FaultPlan {
            duplicate_every: Some(every),
            ..Self::default()
        }
    }

    /// Plan with message loss only.
    pub fn losing(every: u64) -> Self {
        assert!(every >= 1, "drop_every must be >= 1");
        FaultPlan {
            drop_every: Some(every),
            ..Self::default()
        }
    }

    /// Plan with a single crash.
    pub fn crash(node: NodeId, at: SimTime) -> Self {
        FaultPlan {
            crashes: vec![(node, at)],
            ..Self::default()
        }
    }

    /// Plan with a single straggler node.
    pub fn straggler(node: NodeId, factor: u64) -> Self {
        assert!(factor >= 1, "straggler factor must be >= 1");
        FaultPlan {
            stragglers: vec![(node, factor)],
            ..Self::default()
        }
    }

    /// Adds message loss to this plan (builder-style, for stacking).
    pub fn with_loss(mut self, every: u64) -> Self {
        assert!(every >= 1, "drop_every must be >= 1");
        self.drop_every = Some(every);
        self
    }

    /// Adds duplication to this plan (builder-style, for stacking).
    pub fn with_duplication(mut self, every: u64) -> Self {
        assert!(every >= 1, "duplicate_every must be >= 1");
        self.duplicate_every = Some(every);
        self
    }

    /// Adds a straggler to this plan (builder-style, for stacking).
    pub fn with_straggler(mut self, node: NodeId, factor: u64) -> Self {
        assert!(factor >= 1, "straggler factor must be >= 1");
        self.stragglers.push((node, factor));
        self
    }

    /// Adds a crash to this plan (builder-style, for stacking).
    pub fn with_crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push((node, at));
        self
    }

    /// Plan with a single crash window: down at `down_at`, restarted at
    /// `up_at`.
    pub fn crash_restart(node: NodeId, down_at: SimTime, up_at: SimTime) -> Self {
        FaultPlan::none().with_crash_restart(node, down_at, up_at)
    }

    /// Adds a bounded outage (builder-style): the node is down during
    /// `[down_at, up_at)` and restarts at `up_at`.
    pub fn with_crash_restart(mut self, node: NodeId, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(down_at < up_at, "crash window must end after it starts");
        self.restarts.push(CrashWindow {
            node,
            down_at,
            up_at,
        });
        self
    }

    /// Whether `node` is crashed at time `now`: the one "is this node
    /// down" question, which the engine asks for every event it runs.
    /// Linear in the crash lists, which are empty on a fault-free run.
    pub fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        self.crashes.iter().any(|&(n, at)| n == node && now >= at)
            || self
                .restarts
                .iter()
                .any(|w| w.node == node && now >= w.down_at && now < w.up_at)
    }

    /// The first node a crash-stop, crash window or straggler names that a
    /// cluster of `n` nodes does not have (`None` when every one is in
    /// range).
    pub fn unknown_node(&self, n: usize) -> Option<NodeId> {
        let crashed = self.crashes.iter().map(|&(node, _)| node);
        let restarted = self.restarts.iter().map(|w| w.node);
        let slow = self.stragglers.iter().map(|&(node, _)| node);
        crashed
            .chain(restarted)
            .chain(slow)
            .find(|node| node.index() >= n)
    }

    /// Whether the `seq`-th message (1-based) should be duplicated.
    pub fn duplicates(&self, seq: u64) -> bool {
        match self.duplicate_every {
            Some(k) => {
                // `duplicate_every` is pub, so the constructor's validation
                // can be bypassed; fail loudly rather than silently never
                // duplicating (is_multiple_of(0) is false, unlike `% 0`).
                assert!(k > 0, "duplicate_every must be positive");
                seq.is_multiple_of(k)
            }
            None => false,
        }
    }

    /// Whether the `seq`-th message (1-based) should be dropped.
    pub fn drops(&self, seq: u64) -> bool {
        match self.drop_every {
            Some(k) => {
                assert!(k > 0, "drop_every must be positive");
                seq.is_multiple_of(k)
            }
            None => false,
        }
    }

    /// Delay multiplier for a `from → to` message: the largest straggler
    /// factor among the two endpoints (1 when neither straggles). Taking
    /// the max — not the product — keeps a self-loop through one straggler
    /// from compounding.
    pub fn delay_factor(&self, from: NodeId, to: NodeId) -> u64 {
        self.stragglers
            .iter()
            .filter(|&&(n, _)| n == from || n == to)
            .map(|&(_, f)| f)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Whether this plan can prevent requests from completing: lost
    /// messages and permanently crashed nodes break the reliable-channel
    /// assumption every algorithm's liveness argument rests on. Duplication
    /// and stragglers only stress, never starve. Crash *windows* are
    /// deliberately excluded: whether a restarting node threatens liveness
    /// depends on the protocol having a recovery story, which the scenario
    /// layer decides per algorithm.
    pub fn threatens_liveness(&self) -> bool {
        self.drop_every.is_some() || !self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let f = FaultPlan::none();
        assert!(!f.is_crashed(NodeId::new(0), SimTime::from_ticks(100)));
        assert!(!f.duplicates(5));
    }

    #[test]
    fn crash_takes_effect_at_time() {
        let f = FaultPlan::crash(NodeId::new(2), SimTime::from_ticks(10));
        assert!(!f.is_crashed(NodeId::new(2), SimTime::from_ticks(9)));
        assert!(f.is_crashed(NodeId::new(2), SimTime::from_ticks(10)));
        assert!(!f.is_crashed(NodeId::new(1), SimTime::from_ticks(99)));
    }

    #[test]
    fn duplication_period() {
        let f = FaultPlan::duplicating(3);
        let dups: Vec<u64> = (1..=9).filter(|&s| f.duplicates(s)).collect();
        assert_eq!(dups, vec![3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_period_rejected() {
        FaultPlan::duplicating(0);
    }

    #[test]
    fn loss_period() {
        let f = FaultPlan::losing(4);
        let drops: Vec<u64> = (1..=12).filter(|&s| f.drops(s)).collect();
        assert_eq!(drops, vec![4, 8, 12]);
        assert!(!f.duplicates(4), "loss does not imply duplication");
        assert!(f.threatens_liveness());
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_loss_period_rejected() {
        FaultPlan::losing(0);
    }

    #[test]
    fn straggler_factor_is_endpoint_max() {
        let f = FaultPlan::straggler(NodeId::new(1), 8).with_straggler(NodeId::new(2), 3);
        assert_eq!(f.delay_factor(NodeId::new(0), NodeId::new(3)), 1);
        assert_eq!(f.delay_factor(NodeId::new(1), NodeId::new(0)), 8);
        assert_eq!(f.delay_factor(NodeId::new(0), NodeId::new(2)), 3);
        assert_eq!(
            f.delay_factor(NodeId::new(1), NodeId::new(2)),
            8,
            "max, not product"
        );
        assert!(!f.threatens_liveness(), "stragglers are slow, not dead");
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn zero_straggler_factor_rejected() {
        FaultPlan::straggler(NodeId::new(0), 0);
    }

    #[test]
    fn builder_stacks_all_classes() {
        let f = FaultPlan::losing(50)
            .with_duplication(7)
            .with_straggler(NodeId::new(0), 4)
            .with_crash(NodeId::new(5), SimTime::from_ticks(90));
        assert!(f.drops(100));
        assert!(f.duplicates(49));
        assert_eq!(f.delay_factor(NodeId::new(0), NodeId::new(1)), 4);
        assert!(f.is_crashed(NodeId::new(5), SimTime::from_ticks(90)));
        assert!(f.threatens_liveness());
    }

    #[test]
    fn crash_window_is_bounded() {
        let f = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(10),
            SimTime::from_ticks(20),
        );
        assert!(!f.is_crashed(NodeId::new(1), SimTime::from_ticks(9)));
        assert!(f.is_crashed(NodeId::new(1), SimTime::from_ticks(10)));
        assert!(f.is_crashed(NodeId::new(1), SimTime::from_ticks(19)));
        assert!(
            !f.is_crashed(NodeId::new(1), SimTime::from_ticks(20)),
            "the node is back at up_at"
        );
        assert!(!f.is_crashed(NodeId::new(0), SimTime::from_ticks(15)));
        assert!(
            !f.threatens_liveness(),
            "a window alone does not decide liveness; the scenario layer does"
        );
    }

    #[test]
    #[should_panic(expected = "window must end after it starts")]
    fn empty_crash_window_rejected() {
        FaultPlan::crash_restart(
            NodeId::new(0),
            SimTime::from_ticks(5),
            SimTime::from_ticks(5),
        );
    }

    #[test]
    fn unknown_node_covers_every_class_that_names_a_node() {
        let (at, n) = (SimTime::from_ticks, NodeId::new);
        assert_eq!(FaultPlan::none().unknown_node(0), None);
        let inside = FaultPlan::crash(n(2), at(5))
            .with_crash_restart(n(1), at(5), at(9))
            .with_straggler(n(0), 3);
        assert_eq!(inside.unknown_node(3), None);
        assert_eq!(inside.unknown_node(2), Some(n(2)));
        assert_eq!(
            FaultPlan::crash_restart(n(5), at(1), at(2)).unknown_node(3),
            Some(n(5))
        );
        assert_eq!(FaultPlan::straggler(n(9), 50).unknown_node(3), Some(n(9)));
    }

    #[test]
    fn default_plan_is_fully_inert() {
        let f = FaultPlan::none();
        assert!(!f.drops(1));
        assert_eq!(f.delay_factor(NodeId::new(0), NodeId::new(1)), 1);
        assert!(!f.threatens_liveness());
    }
}
