//! Table-driven pin of the scenario registry's **exclusion rules**: the
//! 187-cell grid shape is a contract, not an accident of iteration order.
//!
//! Rules under test (see `rcv_workload::scenario`):
//!
//! * FIFO-requiring algorithms (Maekawa, Maekawa-FPP, Lamport,
//!   RA-dynamic) are never paired with non-FIFO delivery (jitter /
//!   heavy-tail) — 8 algorithms under constant delay, 4 otherwise;
//! * duplication regimes run **only** RCV (the one algorithm with proven
//!   idempotent-delivery guards) — 1 algorithm, whatever the delay;
//! * crash-**restart** regimes (the chaos cells) run only algorithms with
//!   a recovery story — RCV again, 1 algorithm;
//! * no other rule exists: nothing else may shrink or grow a scenario's
//!   algorithm list.

use std::collections::BTreeSet;

use rcv::workload::scenario::{cells, registry};
use rcv::workload::Algo;

/// Expected algorithm count per scenario, derived by hand from the two
/// exclusion rules. A new scenario must be added here deliberately.
const EXPECTED: &[(&str, usize)] = &[
    // Fault-free bursts: constant delay => all 8.
    ("burst-n8", 8),
    ("burst-n12", 8),
    ("burst-n16", 8),
    ("burst-n24", 8),
    // Non-FIFO bursts: FIFO-requiring algorithms excluded => 4.
    ("burst-jitter-n8", 4),
    ("burst-jitter-n16", 4),
    ("burst-heavytail-n12", 4),
    // Poisson load points.
    ("poisson-heavy-n12", 8),
    ("poisson-mid-n12", 8),
    ("poisson-light-n12", 8),
    ("poisson-jitter-mid-n12", 4),
    // Saturation.
    ("saturation-n8-r3", 8),
    ("saturation-n12-r3", 8),
    // Hot-spot skew.
    ("hotspot-n16", 8),
    ("hotspot-jitter-n16", 4),
    // Phased ramp.
    ("ramp-n12", 8),
    ("ramp-jitter-n12", 4),
    // Message loss (safety-only cells, but no algorithm exclusion).
    ("loss-burst-n12", 8),
    ("loss-poisson-n12", 8),
    // Duplication: RCV-only, under FIFO and non-FIFO delivery alike.
    ("dup-burst-n12", 1),
    ("dup-jitter-burst-n12", 1),
    // Stragglers.
    ("straggler-burst-n12", 8),
    ("straggler-poisson-n12", 8),
    ("straggler-jitter-burst-n12", 4),
    // Crash-stop (cancellation and in-CS crash).
    ("cancel-burst-n12", 8),
    ("crash-holder-burst-n10", 8),
    // Stacked (includes duplication => RCV-only; also jittered).
    ("stacked-burst-n10", 1),
    // Large-N scaling cells: fault-free constant-delay bursts => all 8.
    ("scale-burst-n200", 8),
    ("scale-burst-n1000", 8),
    // Chaos: crash windows with restart => recovery-capable (RCV) only.
    ("chaos-restart-holder-burst-n8", 1),
    ("chaos-restart-waiter-burst-n8", 1),
    ("chaos-restart-bystander-poisson-n8", 1),
    ("chaos-stacked-burst-n8", 1),
];

#[test]
fn exclusion_rules_pin_every_scenario_and_the_187_cell_total() {
    let specs = registry();

    // The table and the registry must name exactly the same scenarios.
    let table_names: BTreeSet<&str> = EXPECTED.iter().map(|(n, _)| *n).collect();
    let registry_names: BTreeSet<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        table_names, registry_names,
        "registry scenarios changed without updating the shape table"
    );

    for (name, want) in EXPECTED {
        let spec = specs.iter().find(|s| s.name == *name).unwrap();
        let algos = spec.algorithms();
        assert_eq!(
            algos.len(),
            *want,
            "{name}: expected {want} algorithms, got {:?}",
            algos.iter().map(|a| a.name()).collect::<Vec<_>>()
        );
        // Rule 1: non-FIFO delivery never meets a FIFO-requiring algorithm.
        if spec.delay.can_reorder() {
            assert!(
                algos.iter().all(|a| !a.requires_fifo()),
                "{name}: FIFO-requiring algorithm under non-FIFO delivery"
            );
        }
        // Rule 2: duplication cells are RCV-only.
        if spec.faults.duplicate_every.is_some() {
            assert!(
                algos.iter().all(|a| matches!(a, Algo::Rcv(_))),
                "{name}: non-RCV algorithm under duplication"
            );
        }
        // Rule 3: restart cells run only recovery-capable algorithms.
        if !spec.faults.restarts.is_empty() {
            assert!(
                algos.iter().all(|a| matches!(a, Algo::Rcv(_))),
                "{name}: non-recoverable algorithm under crash-restart"
            );
        }
        // No fourth rule: whatever the three rules allow must be present.
        let allowed = Algo::all()
            .into_iter()
            .filter(|a| !spec.delay.can_reorder() || !a.requires_fifo())
            .filter(|a| spec.faults.duplicate_every.is_none() || matches!(a, Algo::Rcv(_)))
            .filter(|a| spec.faults.restarts.is_empty() || matches!(a, Algo::Rcv(_)))
            .count();
        assert_eq!(
            algos.len(),
            allowed,
            "{name}: algorithm list does not match the three exclusion rules"
        );
    }

    // The grid total is the sum of the table — pinned at 187 cells.
    let table_total: usize = EXPECTED.iter().map(|(_, c)| c).sum();
    assert_eq!(table_total, 187, "shape table no longer sums to 187");
    assert_eq!(
        cells(&specs).len(),
        187,
        "cell expansion disagrees with the pinned grid size"
    );
}

#[test]
fn fifo_exclusion_names_exactly_the_four_fifo_algorithms() {
    // The split behind the 8-vs-4 counts above: exactly these four assume
    // ordered channels.
    let fifo: Vec<&str> = Algo::all()
        .into_iter()
        .filter(Algo::requires_fifo)
        .map(|a| a.name())
        .collect();
    assert_eq!(fifo, ["Maekawa", "Maekawa-FPP", "RA-dynamic", "Lamport"]);
}
