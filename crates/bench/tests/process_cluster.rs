//! End-to-end process-tier conformance: spawn the `cluster-orchestrator`
//! binary as real worker processes (Cargo hands us its path via
//! `CARGO_BIN_EXE_cluster-orchestrator`) and drive full multi-process
//! clusters through [`rcv_workload::ProcessBackend`] — fork/exec, UDS and
//! TCP sockets, the shared CS log, and the crash-verdict path, nothing
//! mocked.

use std::time::Duration;

use rcv_runtime::{RunSpec, SocketNet};
use rcv_workload::{Algo, ClusterBackend, ProcessBackend};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_cluster-orchestrator");

fn small_spec(n: usize, seed: u64) -> RunSpec {
    RunSpec::quick(n, seed)
        .rounds(2)
        .timeout(Duration::from_secs(60))
}

/// Every algorithm runs clean as a real multi-process cluster over
/// Unix-domain sockets: all CS entries accounted for in the shared log,
/// zero overlap, zero wire faults, every worker reports.
#[test]
fn all_algorithms_run_clean_as_process_clusters_over_uds() {
    let backend = ProcessBackend::new(WORKER_EXE);
    for algo in Algo::all() {
        let spec = small_spec(3, 11);
        let report = algo
            .run_process(&spec, &backend)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.tag()));
        assert!(
            report.is_clean(spec.expected()),
            "{}: {report:?}",
            algo.tag()
        );
    }
}

/// The TCP loopback family works end-to-end too (one algorithm is enough
/// to prove the family; the codec and hub are family-agnostic above the
/// connect/accept layer).
#[test]
fn tcp_process_cluster_runs_clean() {
    let backend = ProcessBackend::new(WORKER_EXE).net(SocketNet::Tcp);
    let spec = small_spec(3, 23);
    let report = Algo::Ricart.run_process(&spec, &backend).expect("run");
    assert!(report.is_clean(spec.expected()), "{report:?}");
}

/// `run_on` folds a process run into the same `ClusterReport` the
/// thread tier produces — the single API rtmatrix's backend axis rides.
#[test]
fn run_on_process_backend_matches_thread_tier_accounting() {
    let backend = ClusterBackend::Process(ProcessBackend::new(WORKER_EXE));
    let spec = small_spec(3, 31);
    let run = Algo::Lamport.run_on(&spec, &backend).expect("run");
    assert!(run.is_clean(spec.expected()), "{run:?}");
    assert_eq!(run.completed, spec.expected());
}

/// Kill a worker process mid-run: the hub must deliver a *crash verdict*
/// naming the victim — not hang, not report clean — and the survivors'
/// CS log must still show zero overlap.
#[test]
fn killing_a_worker_mid_run_yields_a_crash_verdict_not_a_hang() {
    let backend = ProcessBackend::new(WORKER_EXE).kill_worker(1, Duration::from_millis(30));
    let spec = RunSpec::quick(3, 47)
        .rounds(3)
        .timeout(Duration::from_secs(5));
    let report = Algo::Rcv(Default::default())
        .run_process(&spec, &backend)
        .expect("run");
    assert!(
        report.crashed.contains(&1),
        "victim missing from crash verdict: {report:?}"
    );
    assert_eq!(report.report.violations, 0, "{report:?}");
    assert!(!report.is_clean(spec.expected()), "{report:?}");
}

/// The orchestrator binary itself, invoked as a CLI: `--all` smoke over
/// every algorithm exits 0 and writes a v1 JSON report with one passing
/// row per algorithm.
#[test]
fn orchestrator_cli_all_smoke_exits_zero_with_json_report() {
    let json = std::env::temp_dir().join(format!("rcv-orch-{}.json", std::process::id()));
    let out = std::process::Command::new(WORKER_EXE)
        .args(["--all", "-n", "3", "--rounds", "1", "--seed", "5"])
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn orchestrator");
    assert!(
        out.status.success(),
        "orchestrator failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("json report");
    let _ = std::fs::remove_file(&json);
    assert!(report.contains("\"schema\": \"rcv-cluster-orchestrator/v1\""));
    assert_eq!(
        report.matches("\"verdict\": \"pass\"").count(),
        Algo::all().len(),
        "{report}"
    );
    assert_eq!(
        report.matches("\"hub\": {\"wakeups_readable\": ").count(),
        Algo::all().len(),
        "{report}"
    );
}
