//! Differential **simnet ↔ runtime** conformance harness.
//!
//! The simulator proves the protocols deterministically; the threaded
//! runtime proves them under a real scheduler. This module makes the two
//! agree: it takes [`Cell`]s from the PR-3 scenario registry, runs each on
//! **both** backends, and cross-checks
//!
//! * **safety** — zero mutual-exclusion violations on either side, both
//!   judged by the one `rcv_simnet::SafetyMonitor`;
//! * **anomaly-freedom** — RCV's internal anomaly counters stay zero
//!   under real concurrency, not just simulated concurrency;
//! * **liveness** — cells whose fault regime preserves reliable delivery
//!   must complete every CS on real threads too (with bounded reruns,
//!   because a wall-clock schedule — unlike a simulated one — can
//!   legitimately starve a node past the soft deadline on a loaded CI
//!   box);
//! * **message-count envelopes** — on fault-free cells, the runtime's
//!   per-CS message cost must stay within a generous band of the
//!   simulator's (an order-of-magnitude tripwire for message storms or
//!   vanished traffic, not an exact-count check: real schedules
//!   legitimately shift contention).
//!
//! Scenario→cluster mapping: closed-loop shapes map to per-node rounds
//! and think times
//! ([`rcv_workload::ScenarioSpec::runtime_mappable`]); tick-denominated
//! simulator quantities (delays, CS duration, Poisson means) are scaled
//! by [`DiffOptions::tick`] to thread-schedulable magnitudes. Every run
//! is wrapped in `rcv_runtime::run_with_watchdog`, so a deadlocked
//! cluster fails loudly with a thread dump instead of hanging CI.

use std::fmt::Write as _;
use std::time::Duration;

use rcv_runtime::{run_with_watchdog, ClusterReport, NetDelay, RunSpec, WireFaults};
use rcv_workload::scenario::{cell_seed, cells, registry, run_cell, Cell, FaultSpec, ShapeSpec};
use rcv_workload::sweep::parmap;
use rcv_workload::{Algo, ClusterBackend};

use crate::perf::json_str;

/// Version tag of the emitted JSON layout. v3 adds the `backend` axis:
/// each row names the runtime fabric it ran on (`"thread"` one OS thread
/// per node, `"process"` one OS process per node over real sockets), so
/// one report can hold all three conformance tiers (sim × thread ×
/// process).
pub const SCHEMA: &str = "rcv-rtmatrix/v3";

/// Knobs of a differential run.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Wall-clock length of one simulator tick (delays, CS duration and
    /// think times are all tick-denominated).
    pub tick: Duration,
    /// Soft deadline for cells that must complete (per attempt).
    pub timeout: Duration,
    /// Soft deadline for cells that are *expected* to stall (lossy
    /// regimes): long enough to prove safety under traffic, short enough
    /// not to burn the CI budget waiting for a liveness nobody claimed.
    pub stall_timeout: Duration,
    /// Extra attempts (fresh seed each) before a stalled live cell fails —
    /// the flaky-schedule rerun policy.
    pub reruns: u32,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(2),
            reruns: 2,
        }
    }
}

/// Result of one differential cell: the simulator verdict, the runtime
/// observation, and the combined verdict.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm display name.
    pub algo: &'static str,
    /// Runtime fabric the cell ran on (`"thread"` / `"process"`).
    pub backend: &'static str,
    /// `"pass"` or `"fail:<reason>"` for the cross-check.
    pub verdict: String,
    /// Whether the cell demanded liveness.
    pub expect_live: bool,
    /// CS executions the runtime side must complete when live.
    pub expected: u64,
    /// The simulator-side verdict (from `run_cell`).
    pub sim_verdict: String,
    /// Simulator messages per completed CS (0 when none completed).
    pub sim_per_cs: f64,
    /// What the runtime side observed (last attempt; all zero when the
    /// backend failed to start).
    pub rt: ClusterReport,
    /// Runtime messages per completed CS (0 when none completed).
    pub rt_per_cs: f64,
    /// Flaky-schedule reruns consumed (0 = first attempt was conclusive).
    pub retries: u32,
}

impl DiffOutcome {
    /// Whether the cell passed the differential check.
    pub fn passed(&self) -> bool {
        self.verdict == "pass"
    }
}

/// Multiplicative half-width of the fault-free message envelope.
const ENVELOPE_FACTOR: f64 = 4.0;
/// Additive slack of the envelope (absorbs small-N granularity).
const ENVELOPE_SLACK: f64 = 8.0;

/// The reduced differential grid: all
/// [`rcv_workload::ScenarioSpec::runtime_mappable`] registry cells,
/// optionally truncated to ~`limit` cells. Truncation
/// interleaves scenarios (rotated per-scenario so early picks span
/// different algorithms) and then guarantees every one of the 8
/// algorithms is represented, appending first occurrences if needed — so
/// a CI-sized slice still exercises the full algorithm set and several
/// fault regimes. `limit == 0` means the full mappable grid.
pub fn runtime_grid(limit: usize) -> Vec<Cell> {
    let mappable: Vec<Cell> = cells(&registry())
        .into_iter()
        .filter(|c| c.scenario.runtime_mappable())
        .collect();
    if limit == 0 || limit >= mappable.len() {
        return mappable;
    }

    // Group per scenario, preserving registry order.
    let mut groups: Vec<Vec<Cell>> = Vec::new();
    for c in &mappable {
        match groups.last_mut() {
            Some(g) if g[0].scenario.name == c.scenario.name => g.push(c.clone()),
            _ => groups.push(vec![c.clone()]),
        }
    }
    // Rotate each group by its index so round-robin picks hit different
    // algorithms in different scenarios.
    for (i, g) in groups.iter_mut().enumerate() {
        let k = i % g.len();
        g.rotate_left(k);
    }

    let mut picked: Vec<Cell> = Vec::new();
    let mut round = 0usize;
    'outer: loop {
        let mut any = false;
        for g in &groups {
            if let Some(c) = g.get(round) {
                any = true;
                picked.push(c.clone());
                if picked.len() >= limit {
                    break 'outer;
                }
            }
        }
        if !any {
            break;
        }
        round += 1;
    }

    // Coverage guarantee: every algorithm appears at least once.
    for algo in Algo::all() {
        if !picked.iter().any(|c| c.algo == algo) {
            if let Some(c) = mappable.iter().find(|c| c.algo == algo) {
                picked.push(c.clone());
            }
        }
    }
    picked
}

/// Maps a registry cell onto real-tier run parameters: the simulator's
/// own fault plan, delay model and CS duration, rendered at `opts.tick`
/// per simulator tick. `attempt` perturbs the seed stream so
/// flaky-schedule reruns are independent.
pub fn run_spec(cell: &Cell, opts: &DiffOptions, attempt: u32) -> RunSpec {
    let spec = &cell.scenario;
    assert!(
        spec.runtime_mappable(),
        "{} is not runtime-mappable",
        spec.name
    );
    let (rounds, think_ticks) = match spec.shape {
        ShapeSpec::Burst => (1, 0u64),
        ShapeSpec::Saturation { rounds } => (1 + rounds, 0),
        // The runtime has no open-loop arrival process; a Poisson cell
        // becomes closed-loop re-requests with the mean as think time.
        ShapeSpec::Poisson { mean, .. } => (2, mean.round().max(0.0) as u64),
        _ => unreachable!("runtime_mappable filtered shapes"),
    };
    let sim = spec.sim_config(0);
    // A seed stream disjoint from the simulator's (idx 0 and 1).
    let seed = cell_seed(&spec.name, cell.algo.name(), 1_000 + attempt);
    let run = RunSpec::quick(spec.n, seed).tick(opts.tick);
    let run = run
        .rounds(rounds)
        .think(run.ticks(think_ticks))
        .cs_duration(run.ticks(sim.cs_duration.ticks()))
        .delay(NetDelay::from_model(&sim.delay, opts.tick))
        .faults(
            WireFaults::try_from(&sim.faults)
                .unwrap_or_else(|e| unreachable!("runtime_mappable violated: {e}")),
        )
        .timeout(if spec.expect_live() {
            opts.timeout
        } else {
            opts.stall_timeout
        });
    match spec.retry {
        Some(retry) => run.retry(retry),
        None => run,
    }
}

/// Whether an attempt's outcome permits a fresh-seed rerun.
///
/// ONLY a stalled-but-safe live cell is eligible: a mutual-exclusion
/// violation or an RCV anomaly on ANY attempt is exactly the
/// schedule-dependent bug this harness hunts and must be judged, never
/// retried away — no input combination can make an unsafe or anomalous
/// run eligible. Pure so the guarantee is testable in isolation.
pub fn rerun_eligible(
    expect_live: bool,
    run: &ClusterReport,
    expected: u64,
    retries: u32,
    max_reruns: u32,
) -> bool {
    let stalled_but_safe = run.violations == 0 && run.anomalies == 0 && !run.is_clean(expected);
    expect_live && stalled_but_safe && retries < max_reruns
}

/// Runs one cell on the chosen runtime fabric (threads or worker
/// processes) and cross-checks it against the simulator.
pub fn run_diff_cell_on(cell: &Cell, opts: &DiffOptions, backend: &ClusterBackend) -> DiffOutcome {
    let sim = run_cell(cell);
    let spec = &cell.scenario;
    let expect_live = spec.expect_live();
    let algo = cell.algo;

    let mut retries = 0u32;
    let (result, expected): (Result<ClusterReport, String>, u64) = loop {
        let ts = run_spec(cell, opts, retries);
        let expected = ts.expected();
        let label = format!("{}/{}/{}", spec.name, algo.name(), backend.name());
        // Hard deadline: soft timeout + a wide margin for teardown (the
        // process tier also covers worker spawn + handshake here). If the
        // cluster machinery itself wedges, this panics with a thread dump.
        let hard = ts.timeout + Duration::from_secs(30);
        let b = backend.clone();
        let result = run_with_watchdog(&label, hard, move || algo.run_on(&ts, &b));
        match &result {
            Ok(run) if rerun_eligible(expect_live, run, expected, retries, opts.reruns) => {
                retries += 1; // flaky wall-clock schedule: fresh seed, try again
            }
            _ => break (result, expected),
        }
    };
    // A backend error (spawn/handshake failure) is a verdict, not a panic:
    // the grid must finish and report it.
    let (run, backend_err) = match result {
        Ok(run) => (run, None),
        Err(e) => (ClusterReport::default(), Some(e)),
    };

    let sim_per_cs = if sim.completed > 0 {
        sim.messages as f64 / sim.completed as f64
    } else {
        0.0
    };
    let rt_per_cs = if run.completed > 0 {
        run.messages as f64 / run.completed as f64
    } else {
        0.0
    };

    let fail: Option<String> = if let Some(e) = backend_err {
        Some(format!("backend({e})"))
    } else if !sim.passed() {
        Some(format!("sim:{}", sim.verdict))
    } else if run.violations > 0 {
        Some(format!("rt-unsafe({} violations)", run.violations))
    } else if run.anomalies > 0 {
        Some(format!("rt-anomalies({})", run.anomalies))
    } else if expect_live && !run.is_clean(expected) {
        Some(format!(
            "rt-stalled({}/{} after {} attempts)",
            run.completed,
            expected,
            retries + 1
        ))
    } else if matches!(spec.faults, FaultSpec::None) && expect_live {
        // Fault-free cells: both sides completed everything; their per-CS
        // message costs must be the same order of magnitude.
        let hi = sim_per_cs * ENVELOPE_FACTOR + ENVELOPE_SLACK;
        let lo = (sim_per_cs / ENVELOPE_FACTOR - ENVELOPE_SLACK).max(0.0);
        if rt_per_cs > hi || rt_per_cs < lo {
            Some(format!(
                "envelope(rt {rt_per_cs:.1} msgs/cs outside [{lo:.1}, {hi:.1}] around sim {sim_per_cs:.1})"
            ))
        } else {
            None
        }
    } else {
        None
    };

    DiffOutcome {
        scenario: spec.name.clone(),
        algo: algo.name(),
        backend: backend.name(),
        verdict: fail.map_or_else(|| "pass".into(), |f| format!("fail:{f}")),
        expect_live,
        expected,
        sim_verdict: sim.verdict,
        sim_per_cs,
        rt: run,
        rt_per_cs,
        retries,
    }
}

/// Runs a slice of cells on the chosen fabric (order-preserving, limited
/// parallelism — a process-tier cell spawns `n` worker processes of its
/// own, a thread-tier cell `n` threads).
pub fn run_diff_cells_on(
    grid: Vec<Cell>,
    threads: usize,
    opts: &DiffOptions,
    backend: &ClusterBackend,
) -> Vec<DiffOutcome> {
    let opts = *opts;
    let backend = backend.clone();
    parmap(grid, threads, move |c| {
        run_diff_cell_on(&c, &opts, &backend)
    })
}

/// Renders the differential report as JSON (schema [`SCHEMA`]). Unlike
/// `MATRIX_RESULTS.json` this is **not** a committed baseline — real
/// schedules are not bit-stable — it is a CI artifact for post-mortems.
pub fn render_report(outcomes: &[DiffOutcome]) -> String {
    let pass = outcomes.iter().filter(|o| o.passed()).count();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {},", json_str(SCHEMA));
    let _ = writeln!(s, "  \"cells_total\": {},", outcomes.len());
    let _ = writeln!(s, "  \"cells_pass\": {pass},");
    s.push_str("  \"cells\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": {}, \"algo\": {}, \"backend\": {}, \"verdict\": {}, \
             \"expect_live\": {}, \
             \"expected\": {}, \"sim_verdict\": {}, \"sim_per_cs\": \"{:.2}\", \
             \"rt_completed\": {}, \"rt_messages\": {}, \"rt_per_cs\": \"{:.2}\", \
             \"rt_violations\": {}, \"rt_anomalies\": {}, \"rt_lost\": {}, \
             \"rt_duplicated\": {}, \"rt_crash_dropped\": {}, \"rt_restarts\": {}, \
             \"rt_timed_out\": {}, \"retries\": {}}}",
            json_str(&o.scenario),
            json_str(o.algo),
            json_str(o.backend),
            json_str(&o.verdict),
            o.expect_live,
            o.expected,
            json_str(&o.sim_verdict),
            o.sim_per_cs,
            o.rt.completed,
            o.rt.messages,
            o.rt_per_cs,
            o.rt.violations,
            o.rt.anomalies,
            o.rt.lost,
            o.rt.duplicated,
            o.rt.crash_dropped,
            o.rt.restarts,
            o.rt.timed_out,
            o.retries,
        );
        s.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run outcome with everything healthy except what the caller breaks.
    fn run(completed: u64, violations: u64, anomalies: u64, timed_out: bool) -> ClusterReport {
        ClusterReport {
            completed,
            cs_entries: completed,
            violations,
            anomalies,
            messages: 100,
            timed_out,
            ..ClusterReport::default()
        }
    }

    #[test]
    fn safety_and_anomaly_failures_are_never_rerun_eligible() {
        // The core guarantee: across every combination of liveness
        // expectation, completion level and retry budget, a violation or
        // an anomaly disqualifies the rerun — the failure must be judged.
        for expect_live in [false, true] {
            for completed in [0, 3, 8] {
                for timed_out in [false, true] {
                    for retries in [0, 1] {
                        for (violations, anomalies) in [(1, 0), (0, 1), (2, 3)] {
                            assert!(
                                !rerun_eligible(
                                    expect_live,
                                    &run(completed, violations, anomalies, timed_out),
                                    8,
                                    retries,
                                    5,
                                ),
                                "violations={violations} anomalies={anomalies} must never retry"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn only_stalled_but_safe_live_cells_earn_a_rerun() {
        // The one eligible shape: live expectation, safe, anomaly-free,
        // incomplete, budget remaining.
        let stalled = run(3, 0, 0, true);
        assert!(rerun_eligible(true, &stalled, 8, 0, 2));
        // Budget exhausted → judged as-is.
        assert!(!rerun_eligible(true, &stalled, 8, 2, 2));
        // Cells expected to stall (fault regimes) are judged directly.
        assert!(!rerun_eligible(false, &stalled, 8, 0, 2));
        // A clean run has nothing to retry.
        assert!(!rerun_eligible(true, &run(8, 0, 0, false), 8, 0, 2));
    }

    #[test]
    fn full_mappable_grid_excludes_crash_and_open_loop_shapes() {
        let grid = runtime_grid(0);
        assert!(grid.len() >= 100, "mappable grid shrank to {}", grid.len());
        for c in &grid {
            assert!(c.scenario.runtime_mappable(), "{}", c.scenario.name);
            assert!(
                !matches!(c.scenario.faults, FaultSpec::Crash { .. }),
                "crash cell {} leaked into the runtime grid",
                c.scenario.name
            );
        }
    }

    #[test]
    fn reduced_grid_represents_all_eight_algorithms() {
        let grid = runtime_grid(24);
        assert!(grid.len() >= 24, "got {}", grid.len());
        for algo in Algo::all() {
            assert!(
                grid.iter().any(|c| c.algo == algo),
                "{} missing from the reduced grid",
                algo.name()
            );
        }
        // Variety: a reduced grid must not collapse to a single scenario
        // family or a single fault regime.
        let scenarios: std::collections::BTreeSet<_> =
            grid.iter().map(|c| c.scenario.name.clone()).collect();
        assert!(scenarios.len() >= 8, "only {} scenarios", scenarios.len());
        assert!(grid
            .iter()
            .any(|c| !matches!(c.scenario.faults, FaultSpec::None)));
    }

    #[test]
    fn thread_spec_mapping_mirrors_the_scenario() {
        let opts = DiffOptions::default();
        let grid = runtime_grid(0);
        let stacked = grid
            .iter()
            .find(|c| matches!(c.scenario.faults, FaultSpec::Stacked { .. }))
            .expect("stacked cell");
        let ts = run_spec(stacked, &opts, 0);
        assert!(ts.faults.lossy());
        assert!(ts.faults.dup_every.is_some());
        assert!(ts.faults.straggler.is_some());
        assert_eq!(ts.n, stacked.scenario.n);
        assert_eq!(ts.timeout, opts.stall_timeout, "lossy => stall timeout");
        assert_eq!(ts.tick, opts.tick);
        assert_eq!(ts.cs_duration, opts.tick * 10, "the paper's Tc = 10 ticks");
        assert_eq!(
            ts.delay,
            NetDelay::Uniform {
                min: opts.tick,
                max: opts.tick * 9
            },
            "the jitter model, tick by tick"
        );
        assert_eq!(ts.retry, None);

        let sat = grid
            .iter()
            .find(|c| matches!(c.scenario.shape, ShapeSpec::Saturation { .. }))
            .expect("saturation cell");
        let ts = run_spec(sat, &opts, 0);
        assert!(ts.rounds > 1, "saturation maps to multiple rounds");
        assert_eq!(ts.timeout, opts.timeout);

        // Chaos cells carry their retransmission policy and crash window.
        let chaos = grid
            .iter()
            .find(|c| c.scenario.name == "chaos-restart-holder-burst-n8")
            .expect("chaos cell");
        let ts = run_spec(chaos, &opts, 0);
        assert_eq!(ts.retry, chaos.scenario.retry);
        assert_eq!(ts.faults.crash_restart, Some((0, 25, 120)));
        assert_eq!(ts.timeout, opts.timeout, "retry restores liveness");

        // Rerun seeds differ (fresh schedule per attempt).
        assert_ne!(run_spec(sat, &opts, 0).seed, run_spec(sat, &opts, 1).seed);
    }

    #[test]
    fn report_renders_verdicts() {
        let o = DiffOutcome {
            scenario: "burst-n8".into(),
            algo: "Ricart",
            backend: "thread",
            verdict: "pass".into(),
            expect_live: true,
            expected: 8,
            sim_verdict: "pass".into(),
            sim_per_cs: 14.0,
            rt: run(8, 0, 0, false),
            rt_per_cs: 14.0,
            retries: 0,
        };
        let doc = render_report(&[o]);
        assert!(doc.contains("\"schema\": \"rcv-rtmatrix/v3\""), "{doc}");
        assert!(doc.contains("\"backend\": \"thread\""), "{doc}");
        assert!(doc.contains("\"cells_pass\": 1"), "{doc}");
        assert!(doc.contains("\"rt_messages\": 100"), "{doc}");
        assert!(doc.contains("\"rt_crash_dropped\": 0"), "{doc}");
    }
}
