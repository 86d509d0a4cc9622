//! Real-concurrency conformance: **all 8 algorithms** on the threaded
//! runtime (OS threads sharing one delay queue, byte-serialized messages),
//! under clean networks, non-FIFO jitter, stragglers and the simulator's
//! fault plans. The simulator-side twin of this battery is the scenario
//! matrix; the cross-backend agreement is checked by `rtmatrix`
//! (`rcv-bench`).
//!
//! Every cluster run is wrapped in a hard wall-clock watchdog: if a
//! cluster deadlocks, the test panics with a dump of every cluster
//! thread's last reported state instead of hanging the CI job.

use std::time::Duration;

use rcv::runtime::{run_with_watchdog, ClusterReport, NetDelay, RunSpec};
use rcv::simnet::{FaultPlan, NodeId};
use rcv::workload::Algo;

/// Hard deadline per cluster run — far above any healthy run (< 1 s),
/// far below the CI job timeout.
const WATCHDOG: Duration = Duration::from_secs(120);

/// FIFO-per-pair delivery for algorithms that assume ordered channels
/// (constant delay = the paper's Maekawa/Lamport setting).
const FIFO_DELAY: NetDelay = NetDelay::Uniform {
    min: Duration::from_micros(500),
    max: Duration::from_micros(500),
};

fn run(algo: Algo, spec: &RunSpec) -> ClusterReport {
    let spec = spec.clone();
    run_with_watchdog(algo.name(), WATCHDOG, move || algo.run_threaded(&spec))
}

#[test]
fn all_eight_algorithms_complete_with_codec_on_the_wire() {
    // No per-algorithm special-casing here: `run_threaded` itself coerces
    // FIFO-requiring algorithms onto a constant (per-pair FIFO) delay.
    for (i, algo) in Algo::all().into_iter().enumerate() {
        let spec = RunSpec::quick(5, 100 + i as u64)
            .rounds(2)
            .think(Duration::from_micros(300));
        let r = run(algo, &spec);
        assert!(r.is_clean(spec.expected()), "{}: {r:?}", algo.name());
        assert_eq!(r.cs_entries, spec.expected(), "{}", algo.name());
    }
}

#[test]
fn non_fifo_algorithms_survive_heavy_jitter() {
    // The four algorithms that claim to tolerate unordered channels, under
    // wide random delays (×40 spread) and several rounds of contention.
    for algo in Algo::all().into_iter().filter(|a| !a.requires_fifo()) {
        let spec = RunSpec::quick(4, 7).rounds(3).delay(NetDelay::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_millis(2),
        });
        let r = run(algo, &spec);
        assert!(r.is_clean(spec.expected()), "{}: {r:?}", algo.name());
    }
}

#[test]
fn all_eight_algorithms_tolerate_a_straggler_node() {
    // One node's links are 4× slower. Liveness must not depend on uniform
    // speed; constant base delay keeps per-pair FIFO for the algorithms
    // that need it (a straggler scales all of a pair's delays equally).
    for (i, algo) in Algo::all().into_iter().enumerate() {
        let spec = RunSpec::quick(4, 200 + i as u64)
            .delay(FIFO_DELAY)
            .faults(FaultPlan::straggler(NodeId::new(0), 4));
        let r = run(algo, &spec);
        assert!(r.is_clean(spec.expected()), "{}: {r:?}", algo.name());
    }
}

#[test]
fn message_loss_never_costs_safety() {
    // Dropping every 7th message voids liveness for retransmission-free
    // algorithms (a lost grant stalls its requester forever) — but safety
    // must be unconditional. Completion is NOT demanded here; the short
    // timeout bounds the stall.
    for algo in [Algo::Ricart, Algo::Broadcast] {
        let spec = RunSpec::quick(4, 17)
            .faults(FaultPlan::losing(7))
            .timeout(Duration::from_secs(2));
        let r = run(algo, &spec);
        assert_eq!(
            r.violations,
            0,
            "{}: loss broke mutual exclusion: {r:?}",
            algo.name()
        );
        assert_eq!(r.anomalies, 0, "{}", algo.name());
    }
}

#[test]
fn rcv_with_retransmission_beats_loss_and_duplication_at_once() {
    // The stacked wire regime: every 9th message lost, every 5th
    // duplicated, node 1 four times slower — and RCV (with its
    // retransmission extension re-arming lost RMs) must still be safe,
    // anomaly-free AND fully live.
    let spec = RunSpec::quick(5, 23)
        .rounds(2)
        .faults(
            FaultPlan::losing(9)
                .with_duplication(5)
                .with_straggler(NodeId::new(1), 4),
        )
        .timeout(Duration::from_secs(60))
        .retry(rcv::simnet::RetryPolicy::fixed(2_000));
    let r = run(Algo::Rcv(rcv::core::ForwardPolicy::Random), &spec);
    assert!(r.is_clean(spec.expected()), "{r:?}");
    assert!(r.lost > 0, "loss regime must fire: {r:?}");
    assert!(r.duplicated > 0, "duplication regime must fire: {r:?}");
}
