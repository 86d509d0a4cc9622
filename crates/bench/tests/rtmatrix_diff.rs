//! End-to-end differential battery (debug-sized): a handful of registry
//! cells through [`rcv_bench::rtmatrix::run_diff_cell_on`], i.e. each cell
//! executed on the deterministic simulator AND the real-thread runtime
//! with the safety / anomaly / liveness / envelope cross-checks live.
//! The full grid runs in CI via the `rtmatrix` binary.

use std::time::Duration;

use rcv_bench::rtmatrix::{run_diff_cell_on, runtime_grid, DiffOptions, DiffOutcome};
use rcv_workload::scenario::Cell;
use rcv_workload::ClusterBackend;

fn opts() -> DiffOptions {
    DiffOptions {
        stall_timeout: Duration::from_secs(1),
        ..DiffOptions::default()
    }
}

fn run_diff_cell(cell: &Cell, opts: &DiffOptions) -> DiffOutcome {
    run_diff_cell_on(cell, opts, &ClusterBackend::Threads)
}

fn find(name: &str, algo: &str) -> Cell {
    runtime_grid(0)
        .into_iter()
        .find(|c| c.scenario.name == name && c.algo.name() == algo)
        .unwrap_or_else(|| panic!("registry cell {name}/{algo} vanished"))
}

#[test]
fn fault_free_burst_cells_agree_across_backends() {
    for algo in ["RCV (ours)", "Ricart", "Broadcast", "Raymond"] {
        let o = run_diff_cell(&find("burst-n8", algo), &opts());
        assert!(o.passed(), "burst-n8/{algo}: {}", o.verdict);
        assert_eq!(o.rt.completed, o.expected, "{algo}");
        assert_eq!(o.rt.violations, 0, "{algo}");
        assert!(
            o.rt_per_cs > 0.0 && o.sim_per_cs > 0.0,
            "{algo}: envelope inputs missing ({o:?})"
        );
    }
}

#[test]
fn fifo_algorithms_agree_under_constant_delay() {
    for algo in ["Maekawa", "Lamport"] {
        let o = run_diff_cell(&find("burst-n8", algo), &opts());
        assert!(o.passed(), "burst-n8/{algo}: {}", o.verdict);
    }
}

#[test]
fn duplication_cell_stays_clean_on_real_wires() {
    let o = run_diff_cell(&find("dup-burst-n12", "RCV (ours)"), &opts());
    assert!(o.passed(), "{}", o.verdict);
    assert!(o.rt.duplicated > 0, "duplication must actually fire: {o:?}");
    assert_eq!(o.rt.anomalies, 0);
}

#[test]
fn straggler_cell_stays_live_on_real_wires() {
    let o = run_diff_cell(&find("straggler-burst-n12", "Raymond"), &opts());
    assert!(o.passed(), "{}", o.verdict);
    assert!(o.expect_live, "stragglers never void liveness");
    assert_eq!(o.rt.completed, o.expected);
}

#[test]
fn lossy_cell_is_safe_but_not_required_live() {
    let o = run_diff_cell(&find("loss-burst-n12", "Broadcast"), &opts());
    assert!(o.passed(), "{}", o.verdict);
    assert!(!o.expect_live, "loss threatens liveness by policy");
    assert!(o.rt.lost > 0, "loss must actually drop messages: {o:?}");
    assert_eq!(o.rt.violations, 0, "loss must never cost safety");
}
