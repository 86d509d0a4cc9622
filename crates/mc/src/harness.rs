//! Ready-made scenario builders for the shipped algorithms.

use rcv_baselines::{Lamport, RicartAgrawala};
use rcv_core::{check_nonl_consistency, ForwardPolicy, RcvConfig, RcvNode};
use rcv_simnet::{NodeId, RetryPolicy};

use crate::checker::ModelChecker;

/// A checker over `n` RCV nodes with the given forwarding policy
/// (burst-once by default; tune with the builder methods): the
/// [`rcv_recovery_checker`] scenario without retransmission and without
/// crashes.
pub fn rcv_checker(n: usize, policy: ForwardPolicy) -> ModelChecker<RcvNode> {
    rcv_recovery_checker(n, policy, None).crash_restarts(0)
}

/// A crash-recovery checker over `n` RCV nodes: one crash-restart
/// branched at every state over every node (any node, any instant — see
/// [`ModelChecker::crash_restarts`]), optionally with the retransmission
/// extension armed so interrupted campaigns re-issue.
///
/// The policy must be deterministic — the checker's dispatch has to be a
/// pure function of the node state — so `ForwardPolicy::Random` is
/// rejected; `Sequential`, `MostStale` and `Freshest` consult only ids
/// and row versions. The retry policy, when given, must be
/// **bounded**: an unbounded policy re-arms its timer after every
/// retransmission and the state space never closes.
///
/// Installs the RCV whole-system invariant: Lemma 6/7 NONL prefix
/// consistency across every node pair, checked in every visited state
/// (per-node lemmas and anomaly freedom come from the
/// [`crate::McProtocol`] impl on [`RcvNode`]).
pub fn rcv_recovery_checker(
    n: usize,
    policy: ForwardPolicy,
    retry: Option<RetryPolicy>,
) -> ModelChecker<RcvNode> {
    assert!(
        !matches!(policy, ForwardPolicy::Random),
        "model checking requires a deterministic forwarding policy"
    );
    if let Some(r) = retry {
        assert!(
            r.is_bounded(),
            "model checking requires a bounded retry budget"
        );
    }
    let nodes = (0..n)
        .map(|i| {
            RcvNode::with_config(
                NodeId::new(i as u32),
                n,
                RcvConfig {
                    forward: policy,
                    retry,
                },
            )
        })
        .collect();
    ModelChecker::new(nodes)
        .cross_invariant(|nodes: &[RcvNode]| check_nonl_consistency(nodes))
        .crash_restarts(1)
}

/// A checker over `n` Ricart–Agrawala nodes. RA tolerates arbitrary
/// reordering, so delivery is unordered.
pub fn ricart_checker(n: usize) -> ModelChecker<RicartAgrawala> {
    ModelChecker::new(
        NodeId::all(n)
            .map(|id| RicartAgrawala::new(id, n))
            .collect(),
    )
}

/// A checker over `n` Lamport-algorithm nodes, in FIFO mode: Lamport's
/// correctness argument requires ordered channels (a RELEASE or ACK
/// overtaking its REQUEST breaks the queue reasoning). Run it with
/// `.fifo(false)` to watch the checker produce the genuine
/// mutual-exclusion counterexample — the crate keeps a test doing exactly
/// that.
pub fn lamport_checker(n: usize) -> ModelChecker<Lamport> {
    ModelChecker::new(NodeId::all(n).map(|id| Lamport::new(id, n)).collect()).fifo(true)
}
