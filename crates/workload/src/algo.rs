//! Uniform dispatch over all implemented mutual exclusion algorithms —
//! over the deterministic simulator ([`Algo::run`]), the real-thread
//! runtime ([`Algo::run_threaded`]) and worker processes
//! ([`Algo::serve_worker`]). Every entry point builds its nodes through
//! the one protocol table, `with_protocol!`.

use std::time::Duration;

use rcv_baselines::{
    Lamport, Maekawa, QuorumSystem, RaDynamic, Raymond, RicartAgrawala, SuzukiKasami,
};
use rcv_core::{ForwardPolicy, RcvConfig, RcvNode};
use rcv_runtime::orchestrator::run_worker;
use rcv_runtime::wire::verifying_hook;
use rcv_runtime::{run_cluster_collecting, ClusterReport, NetDelay, RunSpec};
use rcv_simnet::{Engine, NodeId, RetryPolicy, SimConfig, SimReport, Workload};

/// The protocol table: each algorithm's node constructor and anomaly
/// reader, stated once. Evaluates `$body` with `$make` bound to
/// `Fn(NodeId, usize, Option<RetryPolicy>) -> P` (baselines ignore the
/// retry policy) and `$anom` to `Fn(&P, restartable: bool) -> u64`
/// (0 for protocols without the notion) — a macro rather than a function
/// because `P` differs per arm.
macro_rules! with_protocol {
    (@baseline $ctor:expr, $make:ident, $anom:ident, $body:expr) => {{
        let $make = |id: NodeId, n: usize, _: Option<RetryPolicy>| $ctor(id, n);
        let $anom = no_anomalies(&$make);
        $body
    }};
    ($algo:expr, |$make:ident, $anom:ident| $body:expr) => {
        match $algo {
            Algo::Rcv(forward) => {
                let $make = move |id: NodeId, n: usize, retry: Option<RetryPolicy>| {
                    RcvNode::with_config(id, n, RcvConfig { forward, retry })
                };
                let $anom = |p: &RcvNode, restartable: bool| p.stats().anomalies_under(restartable);
                $body
            }
            Algo::Ricart => with_protocol!(@baseline RicartAgrawala::new, $make, $anom, $body),
            Algo::RaDynamic => with_protocol!(@baseline RaDynamic::new, $make, $anom, $body),
            Algo::Maekawa => with_protocol!(@baseline Maekawa::new, $make, $anom, $body),
            Algo::MaekawaFpp => with_protocol!(
                @baseline |id, n| Maekawa::with_quorums(id, QuorumSystem::best(n)),
                $make, $anom, $body
            ),
            Algo::Broadcast => with_protocol!(@baseline SuzukiKasami::new, $make, $anom, $body),
            Algo::Lamport => with_protocol!(@baseline Lamport::new, $make, $anom, $body),
            Algo::Raymond => with_protocol!(@baseline Raymond::new, $make, $anom, $body),
        }
    };
}

/// The anomaly reader of a protocol that counts none, typed by its
/// constructor.
fn no_anomalies<P>(
    _make: &impl Fn(NodeId, usize, Option<RetryPolicy>) -> P,
) -> impl Fn(&P, bool) -> u64 {
    |_, _| 0
}

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
    /// one OS thread per node, the threads sharing one delay queue, the
    /// spec's fault plan, every message round-tripped through its binary
    /// wire codec — the same protocol state machines the simulator
    /// drives, under a genuine scheduler.
    ///
    /// FIFO-requiring algorithms ([`Algo::requires_fifo`]) are
    /// automatically run under a **constant** delay (the mean of the
    /// spec's delay model), which keeps channels per-pair FIFO — the same
    /// centralized policy [`crate::ScenarioSpec::algorithms`] applies on
    /// the simulator side, so no call site can accidentally pair Lamport
    /// or Maekawa with reordering delivery.
    pub fn run_threaded(&self, spec: &RunSpec) -> ClusterReport {
        let spec = self.fifo_safe(spec);
        let (restartable, retry) = (spec.restartable(), spec.retry);
        with_protocol!(*self, |make, anomalies| {
            let (mut report, nodes) =
                run_cluster_collecting(spec.with(Some(verifying_hook())), |id, n| {
                    make(id, n, retry)
                });
            report.anomalies = nodes.iter().map(|p| anomalies(p, restartable)).sum();
            report
        })
    }

    /// Serves one worker node of this algorithm: connect to the hub at
    /// `addr`, handshake as `node`, drive the protocol to completion,
    /// report, return. This is the body of a worker process
    /// ([`crate::maybe_worker`]), public so tests can drive workers from
    /// threads without spawning executables.
    pub fn serve_worker(&self, addr: &str, node: u32) -> Result<(), String> {
        with_protocol!(*self, |make, anomalies| {
            run_worker(
                addr,
                node,
                self.tag(),
                |id, n, node| make(id, n, node.retry),
                |p, node| anomalies(p, node.restartable),
            )
        })
    }

    /// `spec` as this algorithm may run it on a real tier: unchanged, or
    /// under the constant-mean ([`fifo_equivalent`]) delay when the
    /// algorithm assumes ordered channels.
    pub(crate) fn fifo_safe(&self, spec: &RunSpec) -> RunSpec {
        let delay = if self.requires_fifo() {
            fifo_equivalent(spec.delay)
        } else {
            spec.delay
        };
        spec.clone().delay(delay)
    }

    /// Whether the exhaustive model checker (`rcv-mc`, driven by the `mc`
    /// binary) has an adapter for this algorithm.
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

    /// Runs one simulation of this algorithm with an explicit RCV
    /// retransmission policy. The baselines have no retransmission knob
    /// and ignore it.
    pub fn run_retry<W: Workload>(
        &self,
        cfg: SimConfig,
        workload: W,
        retry: Option<RetryPolicy>,
    ) -> SimReport {
        with_protocol!(*self, |make, _anomalies| {
            Engine::new(cfg, workload, move |id, n| make(id, n, retry)).run()
        })
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
    use rcv_runtime::orchestrator::{run_process_cluster, ProcessExt};
    use rcv_runtime::wire::WireCodec;
    use rcv_runtime::SocketNet;
    use rcv_simnet::{BurstOnce, MutexProtocol};

    #[test]
    fn every_algorithm_survives_a_burst() {
        for algo in Algo::all() {
            let r = algo.run(SimConfig::paper(9, 11), BurstOnce);
            assert!(r.is_safe(), "{}", algo.name());
            assert_eq!(r.metrics.completed(), 9, "{}", algo.name());
        }
    }

    /// What a table arm builds: the node's protocol name and the codec
    /// label of its message type.
    fn identity<P: MutexProtocol>(p: &P) -> (&'static str, &'static str)
    where
        P::Message: WireCodec,
    {
        (p.name(), P::Message::PROTOCOL)
    }

    #[test]
    fn the_protocol_table_serves_every_entry_point() {
        // One table, three entry points: an algorithm cannot exist on one
        // tier only. Each arm builds the node its `Algo` names, and a
        // two-node, one-round run is clean on the simulator, on threads
        // and over sockets.
        let rcv = ("rcv", "RCV");
        let expected = [
            (Algo::Rcv(ForwardPolicy::Random), rcv),
            (Algo::Rcv(ForwardPolicy::Sequential), rcv),
            (Algo::Rcv(ForwardPolicy::MostStale), rcv),
            (Algo::Rcv(ForwardPolicy::Freshest), rcv),
            (Algo::Maekawa, ("maekawa", "Maekawa")),
            (Algo::MaekawaFpp, ("maekawa", "Maekawa")),
            (Algo::Ricart, ("ricart-agrawala", "Ricart")),
            (Algo::RaDynamic, ("ra-dynamic", "RA-dynamic")),
            (Algo::Broadcast, ("suzuki-kasami", "Broadcast")),
            (Algo::Lamport, ("lamport", "Lamport")),
            (Algo::Raymond, ("raymond", "Raymond")),
        ];
        assert!(Algo::all()
            .iter()
            .all(|a| expected.iter().any(|(e, _)| e == a)));
        for (algo, want) in expected {
            let tag = algo.tag();
            let got = with_protocol!(algo, |make, anomalies| {
                let node = make(NodeId::new(0), 2, None);
                assert_eq!(anomalies(&node, false), 0, "{tag}");
                identity(&node)
            });
            assert_eq!(got, want, "{tag}");

            let sim = algo.run(SimConfig::paper(2, 1), BurstOnce);
            assert!(
                sim.is_safe() && sim.metrics.completed() == 2,
                "{tag} on simnet"
            );

            let spec = RunSpec::quick(2, 1);
            let threads = algo.run_threaded(&spec);
            assert!(threads.is_clean(2), "{tag} on threads: {threads:?}");

            let pspec = algo.fifo_safe(&spec).with(ProcessExt {
                protocol: tag.to_string(),
                net: SocketNet::Uds,
                kill_worker: None,
            });
            let mut workers = Vec::new();
            let sockets = run_process_cluster(&pspec, |addr| {
                for node in 0..2 {
                    let addr = addr.to_string();
                    workers.push(std::thread::spawn(move || algo.serve_worker(&addr, node)));
                }
                Ok(Vec::new())
            })
            .unwrap_or_else(|e| panic!("{tag} over sockets: {e}"));
            for w in workers {
                w.join().expect("worker thread").expect("worker ok");
            }
            assert!(sockets.is_clean(2), "{tag} over sockets: {sockets:?}");
        }
    }

    #[test]
    fn paper_four_are_the_figure_legends() {
        let names: Vec<_> = Algo::paper_four().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["RCV (ours)", "Maekawa", "Ricart", "Broadcast"]);
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
