//! Determinism contract for the large-N merge rework (PR 7).
//!
//! The Exchange/Si merge machinery — Arc-backed copy-on-write MNL/NONL
//! storage, batched suffix scrubbing, scratch-indexed prune probes and the
//! dense facts-then-decisions `normalize_after_merge` — claims to be
//! **bit-for-bit** behavior preserving, exactly like the PR 2 queue swap.
//! This battery pins that claim at the sizes the paper reports: the
//! `SimReport` fingerprints below (processed events, end time, messages
//! sent, exact response-time mean) were captured by running the
//! *pre-change* merge code on these seeds, for all 8 algorithms at
//! N ∈ {10, 30, 50}. Any change to the merge machinery that shifts even
//! one event reorders a tie somewhere and trips this test.
//!
//! If you change *semantics* on purpose (protocol fix, new delay model
//! default), re-pin by re-running these configurations and updating the
//! tables — and say so in the commit message.

use rcv::simnet::{BurstOnce, SimConfig, SimReport};
use rcv::workload::Algo;

/// `(algorithm name, events, end_time ticks, messages_sent, rt mean)`.
type Fingerprint = (&'static str, u64, u64, u64, f64);

/// Captured with the pre-rework merge code: burst, N=10, seed=42.
const BURST_N10_SEED42: [Fingerprint; 8] = [
    ("RCV (ours)", 103, 175, 83, 97.5),
    ("Maekawa", 179, 205, 159, 104.5),
    ("Maekawa-FPP", 179, 205, 159, 104.5),
    ("Ricart", 200, 155, 180, 77.5),
    ("RA-dynamic", 200, 155, 180, 77.5),
    ("Broadcast", 110, 145, 90, 67.5),
    ("Lamport", 290, 160, 270, 77.5),
    ("Raymond", 52, 180, 32, 80.5),
];

/// Captured with the pre-rework merge code: burst, N=30, seed=42.
const BURST_N30_SEED42: [Fingerprint; 8] = [
    ("RCV (ours)", 529, 480, 469, 252.5),
    ("Maekawa", 1111, 610, 1051, 305.0),
    ("Maekawa-FPP", 1111, 610, 1051, 305.0),
    ("Ricart", 1800, 455, 1740, 227.5),
    ("RA-dynamic", 1800, 455, 1740, 227.5),
    ("Broadcast", 930, 445, 870, 217.5),
    ("Lamport", 2670, 460, 2610, 227.5),
    ("Raymond", 168, 570, 108, 274.3333333333333),
];

/// Captured with the pre-rework merge code: burst, N=50, seed=42.
const BURST_N50_SEED42: [Fingerprint; 8] = [
    ("RCV (ours)", 1048, 785, 948, 407.5),
    ("Maekawa", 2459, 1005, 2359, 504.9),
    ("Maekawa-FPP", 2459, 1005, 2359, 504.9),
    ("Ricart", 5000, 755, 4900, 377.5),
    ("RA-dynamic", 5000, 755, 4900, 377.5),
    ("Broadcast", 2550, 745, 2450, 367.5),
    ("Lamport", 7450, 760, 7350, 377.5),
    ("Raymond", 288, 970, 188, 470.7),
];

fn assert_fingerprint(report: &SimReport, want: &Fingerprint, scenario: &str) {
    let (name, events, end, msgs, rt_mean) = *want;
    assert_eq!(
        report.events, events,
        "{name} [{scenario}]: event count drifted"
    );
    assert_eq!(
        report.end_time.ticks(),
        end,
        "{name} [{scenario}]: end time drifted"
    );
    assert_eq!(
        report.metrics.messages_sent(),
        msgs,
        "{name} [{scenario}]: message count drifted"
    );
    // Exact float equality on purpose: the metric is a deterministic
    // function of a deterministic event order.
    let got = report.metrics.response_time().mean;
    assert!(
        got == rt_mean,
        "{name} [{scenario}]: response-time mean drifted: got {got:?}, pinned {rt_mean:?}"
    );
    assert!(report.is_safe(), "{name} [{scenario}]: unsafe run");
}

fn run_size(n: usize, pins: &[Fingerprint; 8]) {
    for want in pins {
        let algo = *Algo::all()
            .iter()
            .find(|a| a.name() == want.0)
            .expect("pinned algorithm exists");
        let report = algo.run(SimConfig::paper(n, 42), BurstOnce);
        assert_fingerprint(&report, want, &format!("burst N={n} seed=42"));
    }
}

#[test]
fn burst_n10_matches_pre_merge_rework_pins() {
    run_size(10, &BURST_N10_SEED42);
}

#[test]
fn burst_n30_matches_pre_merge_rework_pins() {
    run_size(30, &BURST_N30_SEED42);
}

#[test]
fn burst_n50_matches_pre_merge_rework_pins() {
    run_size(50, &BURST_N50_SEED42);
}
