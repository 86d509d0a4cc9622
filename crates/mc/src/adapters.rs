//! The bridge between a sans-io protocol and the model checker: state
//! identity (hashing) and per-node invariant hooks.

use std::fmt;
use std::hash::{Hash, Hasher};

use rcv_baselines::{Lamport, RicartAgrawala};
use rcv_core::RcvNode;
use rcv_simnet::MutexProtocol;

/// A protocol the model checker can explore.
///
/// Requirements beyond [`MutexProtocol`]:
///
/// * `Clone` — states are snapshotted and branched at every decision
///   point;
/// * `Debug` — pending messages are canonicalized through their debug
///   rendering;
/// * `Self::Message: PartialEq` — identical in-flight events are merged
///   (delivering either copy reaches the same successor state);
/// * handlers must be **deterministic** functions of the node state: no
///   randomness, no wall-clock dependence. The checker dispatches every
///   handler with a fixed-seed RNG and virtual time frozen at zero, so a
///   protocol that violates this explores a misleading state space.
pub trait McProtocol: MutexProtocol + Clone + fmt::Debug
where
    Self::Message: PartialEq,
{
    /// Feeds the node's protocol-relevant state into `h`. Observer-only
    /// fields (message counters, statistics) must be excluded, or
    /// equivalent states reached along different paths never merge and
    /// the state space explodes.
    fn state_hash<H: Hasher>(&self, h: &mut H);

    /// Per-node invariant, checked in every visited state. `Err` is a
    /// counterexample.
    fn check_node(&self) -> Result<(), String> {
        Ok(())
    }

    /// Per-node invariant under a **crash-recovery** regime: the checker
    /// substitutes this for [`Self::check_node`] whenever crash-restart
    /// branching is enabled. Defaults to the plain check; protocols whose
    /// anomaly accounting assumes a crash-free run override it to relax
    /// exactly the counters a legitimate crash can trip — and nothing
    /// else.
    fn check_node_recovering(&self) -> Result<(), String> {
        self.check_node()
    }
}

impl McProtocol for RcvNode {
    fn state_hash<H: Hasher>(&self, h: &mut H) {
        self.state_digest(h);
    }

    /// The paper's per-node structural lemmas plus anomaly freedom: any
    /// UL exhaustion or Lemma 6 violation the node itself detected is a
    /// counterexample, not a statistic.
    fn check_node(&self) -> Result<(), String> {
        check_rcv_node(self, false)
    }

    /// The same check with the one relaxation a legitimate crash earns
    /// ([`rcv_core::RcvNodeStats::anomalies_under`]).
    fn check_node_recovering(&self) -> Result<(), String> {
        check_rcv_node(self, true)
    }
}

fn check_rcv_node(node: &RcvNode, restartable: bool) -> Result<(), String> {
    node.si().invariants_ok(node.id())?;
    let stats = node.stats();
    let anomalies = stats.anomalies_under(restartable);
    if anomalies > 0 {
        return Err(format!(
            "{} recorded {anomalies} anomalies (ul_exhausted={}, lemma6={})",
            node.id(),
            stats.ul_exhausted,
            stats.lemma6_violations,
        ));
    }
    Ok(())
}

impl McProtocol for RicartAgrawala {
    fn state_hash<H: Hasher>(&self, h: &mut H) {
        self.hash(h);
    }
}

impl McProtocol for Lamport {
    fn state_hash<H: Hasher>(&self, h: &mut H) {
        self.hash(h);
    }
}
