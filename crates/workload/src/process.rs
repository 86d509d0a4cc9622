//! Process-backend dispatch: run any [`Algo`] as a **multi-process
//! cluster** — one worker process per node, real UDS/TCP sockets, the
//! orchestrator hub of `rcv_runtime::orchestrator` routing every message.
//!
//! The module bridges two worlds:
//!
//! * **Hub side** — [`Algo::run_process`] extends a [`RunSpec`] (the same
//!   spec [`Algo::run_threaded`] takes) into a
//!   [`rcv_runtime::orchestrator::ProcessSpec`], spawns `n` copies of a
//!   worker executable and collects the [`ProcessReport`].
//! * **Worker side** — [`maybe_worker`] is the re-exec entry point: any
//!   binary that may serve as [`ProcessBackend::worker_exe`] calls it
//!   first thing in `main()`. When argv starts with the
//!   [`WORKER_SENTINEL`] the process becomes a single protocol node
//!   ([`Algo::serve_worker`]) and exits; otherwise the call is a no-op.
//!
//! [`ClusterBackend`] folds both fabrics under one entry point
//! ([`Algo::run_on`]), which is what the three-tier conformance matrix
//! (`rcv-bench`'s `rtmatrix`) drives.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use rcv_core::ForwardPolicy;
use rcv_runtime::orchestrator::{run_process_cluster, ProcessExt, ProcessReport};
use rcv_runtime::{ClusterReport, RunSpec, SocketNet};

use crate::algo::Algo;

/// First argv token that turns a process into a cluster worker instead of
/// whatever the binary normally does. Deliberately implausible as a user
/// argument.
pub const WORKER_SENTINEL: &str = "__rcv_worker";

impl Algo {
    /// Stable, lowercase wire tag for this algorithm — what workers claim
    /// in their handshake `Hello` and what the hub demands back. Distinct
    /// per RCV forwarding policy (different policies are different
    /// protocols on the wire clock).
    pub fn tag(&self) -> &'static str {
        match self {
            Algo::Rcv(ForwardPolicy::Random) => "rcv",
            Algo::Rcv(ForwardPolicy::Sequential) => "rcv-seq",
            Algo::Rcv(ForwardPolicy::MostStale) => "rcv-stale",
            Algo::Rcv(ForwardPolicy::Freshest) => "rcv-fresh",
            Algo::Ricart => "ricart",
            Algo::RaDynamic => "ra-dynamic",
            Algo::Maekawa => "maekawa",
            Algo::MaekawaFpp => "maekawa-fpp",
            Algo::Broadcast => "broadcast",
            Algo::Lamport => "lamport",
            Algo::Raymond => "raymond",
        }
    }

    /// Inverse of [`Algo::tag`]; `None` for unknown tags (a worker must
    /// refuse to run an algorithm it does not recognize).
    pub fn from_tag(tag: &str) -> Option<Algo> {
        Some(match tag {
            "rcv" => Algo::Rcv(ForwardPolicy::Random),
            "rcv-seq" => Algo::Rcv(ForwardPolicy::Sequential),
            "rcv-stale" => Algo::Rcv(ForwardPolicy::MostStale),
            "rcv-fresh" => Algo::Rcv(ForwardPolicy::Freshest),
            "ricart" => Algo::Ricart,
            "ra-dynamic" => Algo::RaDynamic,
            "maekawa" => Algo::Maekawa,
            "maekawa-fpp" => Algo::MaekawaFpp,
            "broadcast" => Algo::Broadcast,
            "lamport" => Algo::Lamport,
            "raymond" => Algo::Raymond,
            _ => return None,
        })
    }

    /// Runs this algorithm as a **multi-process cluster**: `spec.n` worker
    /// processes (spawned from [`ProcessBackend::worker_exe`]) connected
    /// to an in-process hub over real sockets.
    ///
    /// The same FIFO policy as [`Algo::run_threaded`] applies:
    /// FIFO-requiring algorithms run under the constant-mean delay
    /// equivalent. Per-node seeds derive from `spec.seed` identically on
    /// every backend, so protocol-level RNG decisions line up across
    /// tiers.
    ///
    /// Errors are setup/handshake failures; a run that starts always
    /// yields a report (crashes and wire faults recorded inside it).
    pub fn run_process(
        &self,
        spec: &RunSpec,
        backend: &ProcessBackend,
    ) -> Result<ProcessReport, String> {
        let tag = self.tag();
        let pspec = self.fifo_safe(spec).with(ProcessExt {
            protocol: tag.to_string(),
            net: backend.net,
            kill_worker: backend.kill_worker,
        });
        run_process_cluster(&pspec, |addr| {
            (0..spec.n)
                .map(|i| {
                    Command::new(&backend.worker_exe)
                        .arg(WORKER_SENTINEL)
                        .arg(addr)
                        .arg(i.to_string())
                        .arg(tag)
                        .stdin(Stdio::null())
                        .spawn()
                })
                .collect()
        })
    }

    /// Runs this algorithm on the chosen fabric through one entry point,
    /// condensing either backend's result into a [`ClusterReport`].
    ///
    /// The process tier's own findings ([`ProcessReport::findings`]) fold
    /// into the anomaly count, so [`ClusterReport::is_clean`] stays a
    /// single honest predicate across backends.
    pub fn run_on(
        &self,
        spec: &RunSpec,
        backend: &ClusterBackend,
    ) -> Result<ClusterReport, String> {
        match backend {
            ClusterBackend::Threads => Ok(self.run_threaded(spec)),
            ClusterBackend::Process(pb) => {
                let pr = self.run_process(spec, pb)?;
                let findings = pr.findings();
                let mut report = pr.report;
                report.anomalies += findings;
                Ok(report)
            }
        }
    }
}

/// Where and how [`Algo::run_process`] finds its worker processes.
#[derive(Clone, Debug)]
pub struct ProcessBackend {
    /// Socket family for the cluster (UDS by default).
    pub net: SocketNet,
    /// Executable re-exec'd once per node. Its `main` must call
    /// [`maybe_worker`] before doing anything else.
    pub worker_exe: PathBuf,
    /// Fault drill forwarded to the hub: kill worker `node`'s process this
    /// long after start.
    pub kill_worker: Option<(u32, Duration)>,
}

impl ProcessBackend {
    /// Backend spawning workers from `worker_exe` over UDS.
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        ProcessBackend {
            net: SocketNet::Uds,
            worker_exe: worker_exe.into(),
            kill_worker: None,
        }
    }

    /// Backend re-exec'ing the **current executable** as its own workers —
    /// the usual shape for a binary that calls [`maybe_worker`] first.
    pub fn current_exe() -> std::io::Result<Self> {
        Ok(ProcessBackend::new(std::env::current_exe()?))
    }

    /// Selects the socket family.
    pub fn net(mut self, net: SocketNet) -> Self {
        self.net = net;
        self
    }

    /// Arms the kill-a-worker fault drill.
    pub fn kill_worker(mut self, node: u32, after: Duration) -> Self {
        self.kill_worker = Some((node, after));
        self
    }
}

/// Which fabric [`Algo::run_on`] drives.
#[derive(Clone, Debug)]
pub enum ClusterBackend {
    /// In-process: one OS thread per node, sharing one delay queue.
    Threads,
    /// Multi-process: one OS process per node, socket fabric.
    Process(ProcessBackend),
}

impl ClusterBackend {
    /// Lowercase label for report rows (`"thread"` / `"process"`).
    pub fn name(&self) -> &'static str {
        match self {
            ClusterBackend::Threads => "thread",
            ClusterBackend::Process(_) => "process",
        }
    }
}

/// Re-exec entry point: call first in `main()` of any binary used as
/// [`ProcessBackend::worker_exe`]. When argv is
/// `[exe, "__rcv_worker", addr, node, tag]` the process runs that single
/// cluster node and **exits** (status 0 on a clean run, 1 otherwise —
/// diagnostics on stderr); in every other case the call returns
/// immediately and the binary proceeds normally.
pub fn maybe_worker() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some(WORKER_SENTINEL) {
        return;
    }
    let code = match worker_main(&args[2..]) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("rcv worker: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn worker_main(rest: &[String]) -> Result<(), String> {
    let (addr, node, tag) = match rest {
        [addr, node, tag] => (addr, node, tag),
        _ => {
            return Err(format!(
                "worker argv: want <addr> <node> <tag>, got {rest:?}"
            ))
        }
    };
    let node: u32 = node
        .parse()
        .map_err(|_| format!("worker argv: bad node index {node:?}"))?;
    let algo =
        Algo::from_tag(tag).ok_or_else(|| format!("worker argv: unknown algorithm tag {tag:?}"))?;
    algo.serve_worker(addr, node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip_for_every_algorithm_and_policy() {
        let mut all: Vec<Algo> = Algo::all().to_vec();
        all.extend([
            Algo::Rcv(ForwardPolicy::Sequential),
            Algo::Rcv(ForwardPolicy::MostStale),
            Algo::Rcv(ForwardPolicy::Freshest),
        ]);
        let mut seen = std::collections::BTreeSet::new();
        for algo in all {
            let tag = algo.tag();
            assert!(seen.insert(tag), "duplicate tag {tag}");
            assert_eq!(Algo::from_tag(tag), Some(algo), "{tag}");
        }
        assert_eq!(Algo::from_tag("zookeeper"), None);
    }

    #[test]
    fn thread_driven_process_cluster_runs_every_algorithm() {
        // serve_worker from threads against the real hub: the full
        // worker code path (handshake, Start, socket transport, report)
        // without process spawning — each algorithm once, tiny workload.
        for algo in Algo::all() {
            let spec = RunSpec::quick(3, 0x5eed ^ algo.tag().len() as u64)
                .think(Duration::from_micros(200));
            let pspec = algo.fifo_safe(&spec).with(ProcessExt {
                protocol: algo.tag().to_string(),
                net: SocketNet::Uds,
                kill_worker: None,
            });
            let report = run_process_cluster(&pspec, |addr| {
                for i in 0..3u32 {
                    let addr = addr.to_string();
                    std::thread::spawn(move || {
                        algo.serve_worker(&addr, i).expect("worker");
                    });
                }
                Ok(Vec::new())
            })
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            assert!(
                report.is_clean(spec.expected()),
                "{}: {report:?}",
                algo.name()
            );
        }
    }
}
