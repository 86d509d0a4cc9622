//! Configuration of an RCV node, including the RM forwarding policy.
//!
//! The paper forwards the roaming request message to a node "selected
//! randomly" from the unvisited list and names the design of better
//! forwarding methods as future work (§7). The alternative policies here
//! implement that future work; `repro ext3`
//! (`rcv_workload::experiments::forwarding`) compares them.

use rand::rngs::SmallRng;
use rand::Rng;
use rcv_simnet::{NodeId, RetryPolicy};

use crate::si::Si;

/// How an RM picks its next hop among unvisited nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ForwardPolicy {
    /// Uniformly random among unvisited nodes (the paper's choice).
    #[default]
    Random,
    /// Smallest node id first — deterministic, good for debugging and for
    /// reasoning about worst cases.
    Sequential,
    /// The unvisited node whose NSIT row is *stalest* in the forwarder's
    /// view (smallest version). Rationale: visiting it simultaneously
    /// collects a vote we know nothing about and refreshes the most
    /// outdated row.
    MostStale,
    /// The unvisited node whose row is freshest — a deliberately bad
    /// policy kept as the ablation's lower bound.
    Freshest,
}

impl ForwardPolicy {
    /// Picks the next hop from the non-empty unvisited list `ul`.
    pub fn choose(&self, ul: &[NodeId], si: &Si, rng: &mut SmallRng) -> NodeId {
        debug_assert!(!ul.is_empty(), "choose() on an empty unvisited list");
        match self {
            ForwardPolicy::Random => ul[rng.gen_range(0..ul.len())],
            ForwardPolicy::Sequential => *ul.iter().min().expect("non-empty"),
            ForwardPolicy::MostStale => *ul
                .iter()
                .min_by_key(|&&h| (si.nsit.row(h).ts, h))
                .expect("non-empty"),
            ForwardPolicy::Freshest => *ul
                .iter()
                .max_by_key(|&&h| (si.nsit.row(h).ts, core::cmp::Reverse(h)))
                .expect("non-empty"),
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ForwardPolicy::Random => "random",
            ForwardPolicy::Sequential => "sequential",
            ForwardPolicy::MostStale => "most-stale",
            ForwardPolicy::Freshest => "freshest",
        }
    }
}

/// Per-node configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RcvConfig {
    /// RM forwarding policy.
    pub forward: ForwardPolicy,
    /// **Extension (not in the paper):** re-issue the roaming RM while the
    /// request is still waiting, on the deadlines of a
    /// [`RetryPolicy`] (fixed interval, exponential backoff, jitter,
    /// optional budget). The paper assumes a reliable network where RMs
    /// cannot be lost; under the crash faults of `rcv_simnet::FaultPlan`
    /// an RM forwarded into a dead node vanishes and its request can
    /// starve — retransmission restores liveness at light load (see
    /// README § "Experiment index", §faults, for the contended-load
    /// boundary that retransmission alone cannot fix). All duplicate signals a re-issued
    /// RM can cause are absorbed by the stale-EM / duplicate-IM guards.
    pub retry: Option<RetryPolicy>,
}

impl RcvConfig {
    /// The paper's configuration (random forwarding, no retransmission).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Paper configuration plus an arbitrary retransmission policy.
    pub fn with_retry(policy: RetryPolicy) -> Self {
        RcvConfig {
            retry: Some(policy),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn nid(n: u32) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn sequential_picks_smallest() {
        let si = Si::new(5);
        let mut rng = SmallRng::seed_from_u64(0);
        let ul = vec![nid(4), nid(2), nid(3)];
        assert_eq!(ForwardPolicy::Sequential.choose(&ul, &si, &mut rng), nid(2));
    }

    #[test]
    fn random_stays_in_ul() {
        let si = Si::new(5);
        let mut rng = SmallRng::seed_from_u64(7);
        let ul = vec![nid(1), nid(3)];
        for _ in 0..64 {
            let c = ForwardPolicy::Random.choose(&ul, &si, &mut rng);
            assert!(ul.contains(&c));
        }
    }

    #[test]
    fn staleness_policies_use_row_versions() {
        let mut si = Si::new(4);
        si.nsit.row_mut(nid(1)).ts = 9;
        si.nsit.row_mut(nid(2)).ts = 1;
        si.nsit.row_mut(nid(3)).ts = 5;
        let mut rng = SmallRng::seed_from_u64(0);
        let ul = vec![nid(1), nid(2), nid(3)];
        assert_eq!(ForwardPolicy::MostStale.choose(&ul, &si, &mut rng), nid(2));
        assert_eq!(ForwardPolicy::Freshest.choose(&ul, &si, &mut rng), nid(1));
    }

    #[test]
    fn tie_break_is_deterministic() {
        let si = Si::new(4); // all rows at version 0
        let mut rng = SmallRng::seed_from_u64(0);
        let ul = vec![nid(3), nid(1), nid(2)];
        assert_eq!(ForwardPolicy::MostStale.choose(&ul, &si, &mut rng), nid(1));
        assert_eq!(ForwardPolicy::Freshest.choose(&ul, &si, &mut rng), nid(1));
    }
}
