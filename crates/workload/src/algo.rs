//! Uniform dispatch over all implemented mutual exclusion algorithms —
//! over the deterministic simulator ([`Algo::run`]) and over the
//! real-thread runtime ([`Algo::run_threaded`]).

use std::time::Duration;

use rcv_baselines::{
    Lamport, Maekawa, QuorumSystem, RaDynamic, Raymond, RicartAgrawala, SuzukiKasami,
};
use rcv_core::{ForwardPolicy, RcvConfig, RcvNode};
use rcv_runtime::wire::{verifying_hook, WireCodec};
use rcv_runtime::{run_cluster_collecting, run_rcv_cluster, ClusterReport, NetDelay, RunSpec};
use rcv_simnet::{Engine, MutexProtocol, NodeId, RetryPolicy, SimConfig, SimReport, Workload};

/// Every algorithm the harness can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The paper's contribution (with its RM forwarding policy).
    Rcv(ForwardPolicy),
    /// Ricart–Agrawala ("Ricart" in the figures).
    Ricart,
    /// Ricart–Agrawala with the Roucairol–Carvalho dynamic optimization
    /// (the paper's §2 "\[15\]" remark).
    RaDynamic,
    /// Maekawa with grid quorums.
    Maekawa,
    /// Maekawa with finite-projective-plane quorums where N permits (falls
    /// back to grid) — the paper's actual "first method in \[9\]".
    MaekawaFpp,
    /// Suzuki–Kasami ("Broadcast" in the figures).
    Broadcast,
    /// Lamport 1978 (extension).
    Lamport,
    /// Raymond's tree (structured extension).
    Raymond,
}

impl Algo {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Rcv(_) => "RCV (ours)",
            Algo::Ricart => "Ricart",
            Algo::RaDynamic => "RA-dynamic",
            Algo::Maekawa => "Maekawa",
            Algo::MaekawaFpp => "Maekawa-FPP",
            Algo::Broadcast => "Broadcast",
            Algo::Lamport => "Lamport",
            Algo::Raymond => "Raymond",
        }
    }

    /// The four algorithms of the paper's simulation study, in the order
    /// the figures list them.
    pub fn paper_four() -> [Algo; 4] {
        [
            Algo::Rcv(ForwardPolicy::Random),
            Algo::Maekawa,
            Algo::Ricart,
            Algo::Broadcast,
        ]
    }

    /// All six principal algorithms (the paper's four + Lamport/Raymond).
    pub fn all_six() -> [Algo; 6] {
        [
            Algo::Rcv(ForwardPolicy::Random),
            Algo::Maekawa,
            Algo::Ricart,
            Algo::Broadcast,
            Algo::Lamport,
            Algo::Raymond,
        ]
    }

    /// Every implemented algorithm, including the quorum and dynamic-RA
    /// variants.
    pub fn all() -> [Algo; 8] {
        [
            Algo::Rcv(ForwardPolicy::Random),
            Algo::Maekawa,
            Algo::MaekawaFpp,
            Algo::Ricart,
            Algo::RaDynamic,
            Algo::Broadcast,
            Algo::Lamport,
            Algo::Raymond,
        ]
    }

    /// Whether the algorithm assumes FIFO channels (and must therefore be
    /// simulated under the constant-delay model, as in the paper).
    pub fn requires_fifo(&self) -> bool {
        matches!(
            self,
            Algo::Maekawa | Algo::MaekawaFpp | Algo::Lamport | Algo::RaDynamic
        )
    }

    /// Runs this algorithm as a **real-thread cluster** (`rcv-runtime`):
    /// one OS thread per node, asynchronous channels, optional wire-level
    /// faults, every message round-tripped through its binary wire codec —
    /// the same protocol state machines the simulator drives, under a
    /// genuine scheduler.
    ///
    /// FIFO-requiring algorithms ([`Algo::requires_fifo`]) are
    /// automatically run under a **constant** delay (the mean of the
    /// spec's delay model), which keeps channels per-pair FIFO — the same
    /// centralized policy [`crate::ScenarioSpec::algorithms`] applies on
    /// the simulator side, so no call site can accidentally pair Lamport
    /// or Maekawa with reordering delivery.
    pub fn run_threaded(&self, spec: &RunSpec) -> ClusterReport {
        fn baseline<P>(spec: RunSpec, make: impl FnMut(NodeId, usize) -> P) -> ClusterReport
        where
            P: MutexProtocol + Send + 'static,
            P::Message: WireCodec + PartialEq + Sync,
        {
            run_cluster_collecting(spec.with(Some(verifying_hook())), make).0
        }

        let spec = self.fifo_safe(spec);
        match *self {
            Algo::Rcv(policy) => run_rcv_cluster(
                spec.with(Some(verifying_hook())),
                RcvConfig {
                    forward: policy,
                    retry: spec.retry,
                },
            ),
            Algo::Ricart => baseline(spec, RicartAgrawala::new),
            Algo::RaDynamic => baseline(spec, RaDynamic::new),
            Algo::Maekawa => baseline(spec, Maekawa::new),
            Algo::MaekawaFpp => baseline(spec, |id, n| {
                Maekawa::with_quorums(id, QuorumSystem::best(n))
            }),
            Algo::Broadcast => baseline(spec, SuzukiKasami::new),
            Algo::Lamport => baseline(spec, Lamport::new),
            Algo::Raymond => baseline(spec, Raymond::new),
        }
    }

    /// `spec` as this algorithm may run it on a real tier: unchanged, or
    /// under the constant-mean ([`fifo_equivalent`]) delay when the
    /// algorithm assumes ordered channels.
    pub(crate) fn fifo_safe(&self, spec: &RunSpec) -> RunSpec {
        if self.requires_fifo() {
            spec.delay(fifo_equivalent(spec.delay))
        } else {
            *spec
        }
    }

    /// Whether [`Algo::model_check`] has an exhaustive-checker adapter
    /// for this algorithm.
    ///
    /// Checkable: RCV under any *deterministic* forwarding policy,
    /// Ricart–Agrawala, and Lamport (in FIFO mode). Not checkable:
    /// `Rcv(Random)` (dispatch must be a pure function of the state) and
    /// the remaining baselines (no [`rcv_mc::McProtocol`] adapter yet).
    pub fn model_checkable(&self) -> bool {
        matches!(
            self,
            Algo::Rcv(
                ForwardPolicy::Sequential | ForwardPolicy::MostStale | ForwardPolicy::Freshest
            ) | Algo::Ricart
                | Algo::Lamport
        )
    }

    /// Exhaustively model-checks this algorithm at `n` nodes (synchronized
    /// full burst, one round each) with the given loss/duplication
    /// budgets, via DFS. Returns `None` when the algorithm has no checker
    /// adapter ([`Algo::model_checkable`]); use the `rcv_mc` builders
    /// directly for requesters/rounds/depth/strategy control.
    pub fn model_check(&self, n: usize, drops: u32, dups: u32) -> Option<rcv_mc::McSummary> {
        let summary = match *self {
            Algo::Rcv(policy) if self.model_checkable() => rcv_mc::rcv_checker(n, policy)
                .drops(drops)
                .dups(dups)
                .run_dfs()
                .erase(),
            Algo::Ricart => rcv_mc::ricart_checker(n)
                .drops(drops)
                .dups(dups)
                .run_dfs()
                .erase(),
            Algo::Lamport => rcv_mc::lamport_checker(n)
                .drops(drops)
                .dups(dups)
                .run_dfs()
                .erase(),
            _ => return None,
        };
        Some(summary)
    }

    /// Runs one simulation of this algorithm with an explicit RCV
    /// retransmission policy. The baselines have no retransmission knob
    /// and ignore it.
    pub fn run_retry<W: Workload>(
        &self,
        cfg: SimConfig,
        workload: W,
        retry: Option<RetryPolicy>,
    ) -> SimReport {
        match *self {
            Algo::Rcv(policy) => Engine::new(cfg, workload, move |id, n| {
                RcvNode::with_config(
                    id,
                    n,
                    RcvConfig {
                        forward: policy,
                        retry,
                    },
                )
            })
            .run(),
            Algo::Ricart => Engine::new(cfg, workload, RicartAgrawala::new).run(),
            Algo::RaDynamic => Engine::new(cfg, workload, RaDynamic::new).run(),
            Algo::Maekawa => Engine::new(cfg, workload, Maekawa::new).run(),
            Algo::MaekawaFpp => Engine::new(cfg, workload, |id, n| {
                Maekawa::with_quorums(id, QuorumSystem::best(n))
            })
            .run(),
            Algo::Broadcast => Engine::new(cfg, workload, SuzukiKasami::new).run(),
            Algo::Lamport => Engine::new(cfg, workload, Lamport::new).run(),
            Algo::Raymond => Engine::new(cfg, workload, Raymond::new).run(),
        }
    }

    /// Runs one simulation of this algorithm (RCV in the paper's
    /// retransmission-free configuration).
    pub fn run<W: Workload>(&self, cfg: SimConfig, workload: W) -> SimReport {
        self.run_retry(cfg, workload, None)
    }
}

/// Collapses a delay model to its constant (per-pair FIFO) equivalent:
/// the mean delay, delivered deterministically. Used for algorithms whose
/// correctness proofs assume ordered channels.
pub(crate) fn fifo_equivalent(delay: NetDelay) -> NetDelay {
    let mean = match delay {
        NetDelay::None => Duration::ZERO,
        NetDelay::Uniform { min, max } => (min + max) / 2,
        NetDelay::Exponential { mean, .. } => mean,
    };
    NetDelay::Uniform {
        min: mean,
        max: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_simnet::BurstOnce;

    #[test]
    fn every_algorithm_survives_a_burst() {
        for algo in Algo::all() {
            let r = algo.run(SimConfig::paper(9, 11), BurstOnce);
            assert!(r.is_safe(), "{}", algo.name());
            assert_eq!(r.metrics.completed(), 9, "{}", algo.name());
        }
    }

    #[test]
    fn paper_four_are_the_figure_legends() {
        let names: Vec<_> = Algo::paper_four().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["RCV (ours)", "Maekawa", "Ricart", "Broadcast"]);
    }

    #[test]
    fn model_check_hook_covers_the_adapted_algorithms() {
        use rcv_core::ForwardPolicy;
        for algo in [
            Algo::Rcv(ForwardPolicy::Sequential),
            Algo::Ricart,
            Algo::Lamport,
        ] {
            assert!(algo.model_checkable(), "{}", algo.name());
            let s = algo.model_check(2, 0, 0).expect("adapter exists");
            assert!(
                s.exhausted && s.violation.is_none(),
                "{}: {}",
                algo.name(),
                s.summary()
            );
            assert!(s.visited > 0);
        }
        for algo in [
            Algo::Rcv(ForwardPolicy::Random),
            Algo::Maekawa,
            Algo::Broadcast,
            Algo::Raymond,
            Algo::RaDynamic,
            Algo::MaekawaFpp,
        ] {
            assert!(!algo.model_checkable(), "{}", algo.name());
            assert!(algo.model_check(2, 0, 0).is_none(), "{}", algo.name());
        }
    }

    #[test]
    fn fifo_requirements_match_the_literature() {
        assert!(Algo::Maekawa.requires_fifo());
        assert!(Algo::Lamport.requires_fifo());
        assert!(!Algo::Rcv(rcv_core::ForwardPolicy::Random).requires_fifo());
        assert!(!Algo::Broadcast.requires_fifo());
        assert!(!Algo::Ricart.requires_fifo());
    }

    #[test]
    fn fifo_equivalent_collapses_to_a_constant_mean() {
        let f = fifo_equivalent(NetDelay::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(300),
        });
        match f {
            NetDelay::Uniform { min, max } => {
                assert_eq!(min, max, "must be constant");
                assert_eq!(min, Duration::from_micros(200), "midpoint");
            }
            other => panic!("unexpected model {other:?}"),
        }
        match fifo_equivalent(NetDelay::Exponential {
            mean: Duration::from_micros(400),
            cap: Duration::from_millis(5),
        }) {
            NetDelay::Uniform { min, max } => {
                assert_eq!((min, max), (Duration::from_micros(400), max))
            }
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn run_threaded_pins_fifo_algorithms_to_constant_delay() {
        // RunSpec::quick defaults to jittered (reordering) delivery;
        // a FIFO-requiring algorithm must still be safe because
        // run_threaded coerces its delay to the constant equivalent. A
        // direct observation of the coercion is the fifo_equivalent test
        // above; this is the end-to-end guarantee.
        let spec = RunSpec::quick(4, 99)
            .rounds(2)
            .think(Duration::from_micros(200));
        let r = Algo::Lamport.run_threaded(&spec);
        assert!(r.is_clean(spec.expected()), "{r:?}");
    }
}
