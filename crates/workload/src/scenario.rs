//! Declarative scenario conformance registry.
//!
//! The paper's evaluation is two workloads over a handful of `N` values;
//! the roadmap demands a system that proves itself under *every* regime on
//! every PR. This module is the missing layer: a named, versioned grid of
//! scenarios — workload shape × fault regime × delay model × `N` × seeds —
//! composed from the existing generators ([`crate::arrival`],
//! [`crate::phased`]), `rcv_simnet`'s fault injection and its non-FIFO
//! delay models.
//!
//! A **scenario** ([`ScenarioSpec`]) is pure data; a **cell** is one
//! scenario × one algorithm. Its fault regime is the simulator's own
//! [`FaultPlan`] and its delay regime the simulator's own [`DelayModel`],
//! built by their constructors in [`registry`]: what a scenario states is
//! what the simulator runs, and both real tiers run that plan and render
//! that model ([`rcv_runtime::NetDelay::from_model`]), with no
//! registry-side vocabulary between them. [`run_cell`] executes a cell
//! over its deterministic per-seed RNG streams, checks the
//! safety/liveness invariants the cell is entitled to, and condenses the
//! runs into a [`CellResult`] whose fingerprint (completions, messages,
//! NME, RT, end-time) is bit-stable across hosts — so the committed
//! `MATRIX_RESULTS.json` makes behavioral drift diffable across PRs.
//!
//! ## Invariant policy
//!
//! * **Safety is unconditional**: no cell may ever record a mutual
//!   exclusion violation, whatever the fault regime.
//! * **Liveness is conditional**: message loss and crash-stop faults break
//!   the reliable-channel assumption every algorithm's liveness argument
//!   rests on ([`FaultPlan::threatens_liveness`]), and so do crash
//!   windows, so such cells demand clean termination and safety only — the
//!   stall pattern is still pinned by the fingerprint — unless a
//!   retransmission policy restores delivery (loss and windows only,
//!   [`ScenarioSpec::expect_live`]). All other cells (including
//!   duplication, stragglers, jitter) must complete every request.
//! * **Applicability**: algorithms that assume FIFO channels
//!   ([`crate::Algo::requires_fifo`]) are excluded from cells whose delay
//!   model can reorder ([`DelayModel::can_reorder`]); duplication regimes
//!   run only on algorithms with idempotent delivery guards, and crash
//!   windows only on algorithms with a recovery story (RCV for both — the
//!   fault battery proves them).

use rcv_simnet::{
    DelayModel, FaultPlan, NodeId, RetryPolicy, SimConfig, SimDuration, SimReport, SimTime,
    Workload,
};

use crate::algo::Algo;
use crate::arrival::{HotSpotWorkload, PoissonWorkload, SaturationWorkload};
use crate::phased::{Phase, PhasedWorkload, TimedPhase};
use crate::sweep::parmap;

/// Version tag of the registry contents. Bump when scenarios are added,
/// removed or re-parameterized, so a baseline mismatch is attributable.
pub const REGISTRY_VERSION: &str = "rcv-scenario-registry/v3";

/// Workload shape of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ShapeSpec {
    /// Every node requests once at `t = 0` (the paper's Figures 4-5).
    Burst,
    /// Closed-loop Poisson arrivals until `horizon` ticks.
    Poisson {
        /// Mean inter-arrival time in ticks (`1/λ`).
        mean: f64,
        /// Arrival horizon in ticks.
        horizon: u64,
    },
    /// Saturation: every node requests `1 + rounds` times back-to-back.
    Saturation {
        /// Extra rounds after the first request.
        rounds: u32,
    },
    /// Skewed demand: `hot` nodes at `hot_mean`, the rest at `cold_mean`.
    HotSpot {
        /// Number of hot nodes.
        hot: usize,
        /// Hot mean inter-arrival in ticks.
        hot_mean: f64,
        /// Cold mean inter-arrival in ticks.
        cold_mean: f64,
        /// Arrival horizon in ticks.
        horizon: u64,
    },
    /// Phased load ramp: `steps` Poisson phases of `step_ticks` each, the
    /// mean inter-arrival interpolating from `start_mean` down/up to
    /// `end_mean` (linearly per step).
    Ramp {
        /// Mean inter-arrival of the first phase.
        start_mean: f64,
        /// Mean inter-arrival of the last phase.
        end_mean: f64,
        /// Number of phases.
        steps: u32,
        /// Ticks per phase.
        step_ticks: u64,
    },
}

impl ShapeSpec {
    /// Materializes the workload for a system of `n` nodes.
    pub fn workload(&self, n: usize) -> Box<dyn Workload> {
        match *self {
            ShapeSpec::Burst => Box::new(rcv_simnet::BurstOnce),
            ShapeSpec::Poisson { mean, horizon } => Box::new(PoissonWorkload {
                mean_interarrival: mean,
                horizon: SimTime::from_ticks(horizon),
            }),
            ShapeSpec::Saturation { rounds } => Box::new(SaturationWorkload::new(n, rounds)),
            ShapeSpec::HotSpot {
                hot,
                hot_mean,
                cold_mean,
                horizon,
            } => Box::new(HotSpotWorkload::new(
                hot,
                hot_mean,
                cold_mean,
                SimTime::from_ticks(horizon),
            )),
            ShapeSpec::Ramp {
                start_mean,
                end_mean,
                steps,
                step_ticks,
            } => {
                assert!(steps >= 1, "ramp needs at least one step");
                let phases = (0..steps)
                    .map(|i| {
                        let t = if steps == 1 {
                            0.0
                        } else {
                            i as f64 / (steps - 1) as f64
                        };
                        TimedPhase {
                            phase: Phase::Poisson {
                                mean_interarrival: start_mean + (end_mean - start_mean) * t,
                            },
                            duration: SimDuration::from_ticks(step_ticks),
                        }
                    })
                    .collect();
                Box::new(PhasedWorkload::new(phases))
            }
        }
    }

    /// Short label used in scenario names.
    pub fn family(&self) -> &'static str {
        match self {
            ShapeSpec::Burst => "burst",
            ShapeSpec::Poisson { .. } => "poisson",
            ShapeSpec::Saturation { .. } => "saturation",
            ShapeSpec::HotSpot { .. } => "hotspot",
            ShapeSpec::Ramp { .. } => "ramp",
        }
    }
}

/// One named scenario: pure data, no behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Unique, stable name — the key the baseline diff is keyed on.
    pub name: String,
    /// Workload shape.
    pub shape: ShapeSpec,
    /// Fault regime: the simulator's own plan, which both real tiers run
    /// as it stands.
    pub faults: FaultPlan,
    /// Delay regime: the simulator's own model, which the real tiers
    /// render per tick ([`rcv_runtime::NetDelay::from_model`]).
    pub delay: DelayModel,
    /// System size `N`.
    pub n: usize,
    /// Independent seeded runs per cell.
    pub seeds: u32,
    /// RCV retransmission policy for this scenario (`None` = the paper's
    /// retransmission-free configuration, which every pre-chaos cell uses
    /// — their fingerprints must stay byte-identical). Baselines have no
    /// retransmission knob and ignore it.
    pub retry: Option<RetryPolicy>,
}

impl ScenarioSpec {
    /// Algorithms this scenario runs: all eight, minus FIFO-dependent ones
    /// under a delay model that can reorder, minus guard-less ones under
    /// duplication, minus the ones without a recovery story (all but RCV;
    /// the baselines keep pre-crash state) under crash windows.
    pub fn algorithms(&self) -> Vec<Algo> {
        let rcv_only = self.faults.duplicate_every.is_some() || !self.faults.restarts.is_empty();
        Algo::all()
            .into_iter()
            .filter(|a| !self.delay.can_reorder() || !a.requires_fifo())
            .filter(|a| !rcv_only || matches!(a, Algo::Rcv(_)))
            .collect()
    }

    /// Whether every request in this scenario must complete.
    ///
    /// Permanent crash-stops void liveness unconditionally — the dead
    /// node's request dies with it. Message loss
    /// ([`FaultPlan::threatens_liveness`]) and bounded outage windows
    /// starve requests *unless* the scenario carries a retransmission
    /// policy: retry restores the reliable-delivery assumption, and
    /// restart cells additionally run only on algorithms with a recovery
    /// story ([`ScenarioSpec::algorithms`]), so liveness is demanded
    /// again — the chaos cells exist to prove exactly that.
    pub fn expect_live(&self) -> bool {
        let starves = self.faults.threatens_liveness() || !self.faults.restarts.is_empty();
        self.faults.crashes.is_empty() && (!starves || self.retry.is_some())
    }

    /// The simulator configuration of one seeded run of this scenario.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper(self.n, seed);
        cfg.delay = self.delay.clone();
        cfg.faults = self.faults.clone();
        // A violation must become a failed verdict, not a panic.
        cfg.panic_on_violation = false;
        cfg
    }

    /// Whether the real tiers can express this scenario faithfully:
    /// closed-loop shapes (burst / saturation / Poisson-like think times)
    /// map onto per-node rounds, and the real tiers must hold the fault
    /// plan ([`rcv_runtime::serves`] — everything but a permanent
    /// crash-stop does). Hot-spot and ramp shapes are per-node
    /// heterogeneous / time-varying and stay simulator-only. Size is also
    /// a boundary: the runtime is thread-per-node, so the large-N
    /// `scale-*` cells would spawn hundreds-to-thousands of OS threads and
    /// measure the host scheduler rather than the protocol — they stay
    /// simulator-only.
    pub fn runtime_mappable(&self) -> bool {
        let shape_ok = matches!(
            self.shape,
            ShapeSpec::Burst | ShapeSpec::Saturation { .. } | ShapeSpec::Poisson { .. }
        );
        shape_ok && self.n <= 64 && rcv_runtime::serves(&self.faults, self.n).is_ok()
    }
}

/// One cell of the conformance matrix: a scenario × an algorithm.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The scenario.
    pub scenario: ScenarioSpec,
    /// The algorithm under test.
    pub algo: Algo,
}

/// Condensed, bit-stable result of one cell (all its seeds).
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm display name.
    pub algo: &'static str,
    /// `"pass"` or `"fail:<reason>"`.
    pub verdict: String,
    /// Whether the cell demanded liveness.
    pub expect_live: bool,
    /// Completed CS executions, summed over seeds.
    pub completed: u64,
    /// Messages sent, summed over seeds.
    pub messages: u64,
    /// Messages lost to fault injection, summed over seeds.
    pub lost: u64,
    /// Deliveries dropped at crashed receivers, summed over seeds.
    pub dropped: u64,
    /// Mutual exclusion violations, summed over seeds (0 ⇔ safe).
    pub violations: u64,
    /// Seeds that ended with starved requests.
    pub stalled_seeds: u32,
    /// Virtual end time, summed over seeds.
    pub end_ticks: u64,
    /// Events processed, summed over seeds.
    pub events: u64,
    /// Mean NME over seeds that completed work (0 when none did).
    pub nme: f64,
    /// Mean response time over seeds with completed waits (ticks).
    pub rt_mean: f64,
}

impl CellResult {
    /// Whether the cell passed its invariants.
    pub fn passed(&self) -> bool {
        self.verdict == "pass"
    }
}

/// FNV-1a over (scenario, algorithm, seed index): a stable, documented
/// seed derivation so every cell's RNG streams survive refactors of the
/// registry order.
pub fn cell_seed(scenario: &str, algo: &str, idx: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(scenario.as_bytes());
    eat(&[0]);
    eat(algo.as_bytes());
    eat(&[0]);
    eat(&idx.to_le_bytes());
    h
}

/// Runs one cell: every seed, invariant checks, fingerprint.
pub fn run_cell(cell: &Cell) -> CellResult {
    let spec = &cell.scenario;
    let expect_live = spec.expect_live();
    let mut out = CellResult {
        scenario: spec.name.clone(),
        algo: cell.algo.name(),
        verdict: String::new(),
        expect_live,
        completed: 0,
        messages: 0,
        lost: 0,
        dropped: 0,
        violations: 0,
        stalled_seeds: 0,
        end_ticks: 0,
        events: 0,
        nme: 0.0,
        rt_mean: 0.0,
    };
    let mut failure: Option<String> = None;
    let mut nme_sum = 0.0;
    let mut nme_n = 0u32;
    let mut rt_sum = 0.0;
    let mut rt_n = 0u32;

    for idx in 0..spec.seeds {
        let seed = cell_seed(&spec.name, cell.algo.name(), idx);
        let report: SimReport = cell.algo.run_retry(
            spec.sim_config(seed),
            spec.shape.workload(spec.n),
            spec.retry,
        );

        out.completed += report.metrics.completed() as u64;
        out.messages += report.metrics.messages_sent();
        out.lost += report.metrics.messages_lost();
        out.dropped += report.metrics.messages_dropped();
        out.violations += report.violations.len() as u64;
        out.end_ticks += report.end_time.ticks();
        out.events += report.events;
        if let Some(nme) = report.metrics.nme() {
            nme_sum += nme;
            nme_n += 1;
        }
        let rt = report.metrics.response_time();
        if rt.count > 0 {
            rt_sum += rt.mean;
            rt_n += 1;
        }
        let stalled = report.deadlocked || report.metrics.outstanding() > 0;
        if stalled {
            out.stalled_seeds += 1;
        }

        if failure.is_none() {
            // Name both the seed index and the derived RNG seed: the index
            // alone ("seed 0") reads like the SimConfig seed and sends a
            // reproducing developer to the wrong run.
            if !report.is_safe() {
                failure = Some(format!("unsafe(seed_idx {idx} = seed {seed:#018x})"));
            } else if report.truncated {
                failure = Some(format!("truncated(seed_idx {idx} = seed {seed:#018x})"));
            } else if expect_live && stalled {
                failure = Some(format!("stalled(seed_idx {idx} = seed {seed:#018x})"));
            }
        }
    }

    if nme_n > 0 {
        out.nme = nme_sum / nme_n as f64;
    }
    if rt_n > 0 {
        out.rt_mean = rt_sum / rt_n as f64;
    }
    out.verdict = match failure {
        None => "pass".to_string(),
        Some(reason) => format!("fail:{reason}"),
    };
    out
}

/// The full, versioned scenario registry.
///
/// Sizes are chosen so the whole grid (with [`cells`] expansion, two seeds
/// per cell) finishes in about a minute on a laptop — CI shards it anyway;
/// the single-seed `scale-*` cells dominate (the N=1,000 RCV burst runs in
/// the tens of seconds). Names are contract: renaming or re-parameterizing
/// a scenario is a baseline change and must bump [`REGISTRY_VERSION`].
pub fn registry() -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut push =
        |name: String, shape: ShapeSpec, faults: FaultPlan, delay: DelayModel, n: usize| {
            specs.push(ScenarioSpec {
                name,
                shape,
                faults,
                delay,
                n,
                seeds: 2,
                retry: None,
            });
        };
    let node = NodeId::new;
    let tick = SimTime::from_ticks;

    // Fault-free bursts across sizes — the paper's Figure 4/5 regime.
    for n in [8usize, 12, 16, 24] {
        push(
            format!("burst-n{n}"),
            ShapeSpec::Burst,
            FaultPlan::none(),
            DelayModel::paper_constant(),
            n,
        );
    }
    // Non-FIFO bursts: the algorithm's headline claim.
    for n in [8usize, 16] {
        push(
            format!("burst-jitter-n{n}"),
            ShapeSpec::Burst,
            FaultPlan::none(),
            DelayModel::paper_jittered(),
            n,
        );
    }
    // Exponential mean 5 capped at 40: heavy-tailed, aggressive reordering.
    push(
        "burst-heavytail-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::none(),
        DelayModel::Exponential { mean: 5.0, cap: 40 },
        12,
    );

    // Poisson load points (the paper's Figure 6/7 regime, shorter horizon).
    for (label, mean) in [("heavy", 20.0), ("mid", 60.0), ("light", 200.0)] {
        push(
            format!("poisson-{label}-n12"),
            ShapeSpec::Poisson {
                mean,
                horizon: 20_000,
            },
            FaultPlan::none(),
            DelayModel::paper_constant(),
            12,
        );
    }
    push(
        "poisson-jitter-mid-n12".into(),
        ShapeSpec::Poisson {
            mean: 60.0,
            horizon: 20_000,
        },
        FaultPlan::none(),
        DelayModel::paper_jittered(),
        12,
    );

    // Saturation: back-to-back re-requests.
    for n in [8usize, 12] {
        push(
            format!("saturation-n{n}-r3"),
            ShapeSpec::Saturation { rounds: 3 },
            FaultPlan::none(),
            DelayModel::paper_constant(),
            n,
        );
    }

    // Hot-spot skewed demand: 3 hot nodes hammer, 13 cold ones linger.
    let hotspot = ShapeSpec::HotSpot {
        hot: 3,
        hot_mean: 40.0,
        cold_mean: 600.0,
        horizon: 15_000,
    };
    push(
        "hotspot-n16".into(),
        hotspot.clone(),
        FaultPlan::none(),
        DelayModel::paper_constant(),
        16,
    );
    push(
        "hotspot-jitter-n16".into(),
        hotspot,
        FaultPlan::none(),
        DelayModel::paper_jittered(),
        16,
    );

    // Phased load ramp: light (mean 300) ramping to heavy (mean 25).
    let ramp = ShapeSpec::Ramp {
        start_mean: 300.0,
        end_mean: 25.0,
        steps: 4,
        step_ticks: 3_000,
    };
    push(
        "ramp-n12".into(),
        ramp.clone(),
        FaultPlan::none(),
        DelayModel::paper_constant(),
        12,
    );
    push(
        "ramp-jitter-n12".into(),
        ramp,
        FaultPlan::none(),
        DelayModel::paper_jittered(),
        12,
    );

    // Message loss under burst and under sustained load (safety-only).
    push(
        "loss-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::losing(17),
        DelayModel::paper_constant(),
        12,
    );
    push(
        "loss-poisson-n12".into(),
        ShapeSpec::Poisson {
            mean: 80.0,
            horizon: 10_000,
        },
        FaultPlan::losing(29),
        DelayModel::paper_constant(),
        12,
    );

    // Duplication pressure (RCV only — guards proven by the fault battery).
    push(
        "dup-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::duplicating(3),
        DelayModel::paper_constant(),
        12,
    );
    push(
        "dup-jitter-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::duplicating(1),
        DelayModel::paper_jittered(),
        12,
    );

    // Slow-node stragglers: liveness must survive a 8x slower node.
    push(
        "straggler-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::straggler(node(0), 8),
        DelayModel::paper_constant(),
        12,
    );
    push(
        "straggler-poisson-n12".into(),
        ShapeSpec::Poisson {
            mean: 120.0,
            horizon: 10_000,
        },
        FaultPlan::straggler(node(1), 6),
        DelayModel::paper_constant(),
        12,
    );
    push(
        "straggler-jitter-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::straggler(node(0), 8),
        DelayModel::paper_jittered(),
        12,
    );

    // Churn-adjacent cancellation: node 2 issues at t=0 (burst) and
    // crash-stops at t=12 — mid-wait for these parameters — abandoning its
    // request (the closest observable to a client cancelling a request
    // this protocol family admits). Safety-only; the fingerprint pins who
    // else still completes.
    push(
        "cancel-burst-n12".into(),
        ShapeSpec::Burst,
        FaultPlan::crash(node(2), tick(12)),
        DelayModel::paper_constant(),
        12,
    );

    // The harshest crash: inside a CS window (t=25 lands within the first
    // holder's execution for Tn=5, Tc=10 at this scale).
    push(
        "crash-holder-burst-n10".into(),
        ShapeSpec::Burst,
        FaultPlan::crash(node(0), tick(25)),
        DelayModel::paper_constant(),
        10,
    );

    // Everything at once: loss + duplication + straggler under jitter.
    push(
        "stacked-burst-n10".into(),
        ShapeSpec::Burst,
        FaultPlan::losing(23)
            .with_duplication(7)
            .with_straggler(node(1), 4),
        DelayModel::paper_jittered(),
        10,
    );

    // Large-N scaling cells: the paper stops at N=30; these prove the
    // engine's per-event cost stays flat far beyond it (the superlinear
    // Exchange/normalize scaling defect fixed in the large-N PR). Single
    // seed — the N=1,000 RCV burst is the grid's most expensive cell by
    // two orders of magnitude, and one deterministic run pins the
    // fingerprint just as hard. The usual exclusion rules apply unchanged
    // (burst + constant delay + fault-free ⇒ all eight algorithms).
    for n in [200usize, 1000] {
        specs.push(ScenarioSpec {
            name: format!("scale-burst-n{n}"),
            shape: ShapeSpec::Burst,
            faults: FaultPlan::none(),
            delay: DelayModel::paper_constant(),
            n,
            seeds: 1,
            retry: None,
        });
    }

    // Chaos regime: crash **windows** — the node is down during `[down,
    // up)`, deliveries into the window vanish, and at `up` it must rejoin
    // via its protocol's restart hook. RCV-only (the baselines have
    // no recovery story) and, because every cell carries a retransmission
    // policy, liveness is DEMANDED despite the outage: a crashed holder is
    // evicted and its resumed request must re-enter; waiters starved by
    // messages swallowed in the window must be healed by the restart
    // broadcast plus backoff-driven re-campaigns. Window timing at the
    // paper's Tn=5/Tc=10 scale: t=25 lands inside the first CS execution
    // (holder crash), t=12 lands mid-campaign (waiter crash); the Poisson
    // cell parks the outage in a light arrival stream where the node is
    // typically idle (bystander crash).
    let chaos_retry = Some(RetryPolicy::backoff(400, 3_200));
    let mut chaos =
        |name: &str, shape: ShapeSpec, faults: FaultPlan, delay: DelayModel, n: usize| {
            specs.push(ScenarioSpec {
                name: name.into(),
                shape,
                faults,
                delay,
                n,
                seeds: 2,
                retry: chaos_retry,
            });
        };
    let window =
        |n: u32, down: u64, up: u64| FaultPlan::crash_restart(node(n), tick(down), tick(up));
    chaos(
        "chaos-restart-holder-burst-n8",
        ShapeSpec::Burst,
        window(0, 25, 120),
        DelayModel::paper_constant(),
        8,
    );
    chaos(
        "chaos-restart-waiter-burst-n8",
        ShapeSpec::Burst,
        window(2, 12, 100),
        DelayModel::paper_constant(),
        8,
    );
    chaos(
        "chaos-restart-bystander-poisson-n8",
        ShapeSpec::Poisson {
            mean: 150.0,
            horizon: 6_000,
        },
        window(3, 2_000, 2_600),
        DelayModel::paper_constant(),
        8,
    );
    // The harshest liveness demand: a crash window stacked with message
    // loss and a straggler.
    chaos(
        "chaos-stacked-burst-n8",
        ShapeSpec::Burst,
        FaultPlan::losing(31)
            .with_straggler(node(2), 3)
            .with_crash_restart(node(1), tick(30), tick(150)),
        DelayModel::paper_jittered(),
        8,
    );

    specs
}

/// Expands the registry into the flat, deterministically ordered cell list
/// the runner and the CI shards index into.
pub fn cells(specs: &[ScenarioSpec]) -> Vec<Cell> {
    specs
        .iter()
        .flat_map(|s| {
            s.algorithms().into_iter().map(move |algo| Cell {
                scenario: s.clone(),
                algo,
            })
        })
        .collect()
}

/// The shard `(index, modulus)` slice of the cell list: cells whose
/// position ≡ `index` (mod `modulus`). Striding (rather than chunking)
/// balances heavy scenario families across shards.
pub fn shard(all: Vec<Cell>, index: usize, modulus: usize) -> Vec<Cell> {
    assert!(
        modulus >= 1 && index < modulus,
        "invalid shard {index}/{modulus}"
    );
    all.into_iter().skip(index).step_by(modulus).collect()
}

/// Runs a slice of cells in parallel (order-preserving).
pub fn run_cells(cells: Vec<Cell>, threads: usize) -> Vec<CellResult> {
    parmap(cells, threads, |c| run_cell(&c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique() {
        let specs = registry();
        let names: BTreeSet<_> = specs.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
    }

    #[test]
    fn grid_has_at_least_100_cells() {
        let n = cells(&registry()).len();
        assert!(n >= 100, "grid shrank to {n} cells");
    }

    #[test]
    fn every_family_is_represented() {
        let specs = registry();
        for family in ["burst", "poisson", "saturation", "hotspot", "ramp"] {
            assert!(
                specs.iter().any(|s| s.shape.family() == family),
                "family {family} missing"
            );
        }
        assert!(specs.iter().any(|s| s.faults.drop_every.is_some()));
        assert!(specs.iter().any(|s| !s.faults.stragglers.is_empty()));
        assert!(specs.iter().any(|s| s.name.starts_with("cancel")));
        // Stacked: loss, duplication and a straggler in one plan.
        assert!(specs.iter().any(|s| {
            let f = &s.faults;
            f.drop_every.is_some() && f.duplicate_every.is_some() && !f.stragglers.is_empty()
        }));
        assert!(specs
            .iter()
            .any(|s| matches!(s.delay, DelayModel::Exponential { .. })));
    }

    #[test]
    fn fifo_algorithms_never_meet_jitter() {
        for spec in registry() {
            if spec.delay.can_reorder() {
                for algo in spec.algorithms() {
                    assert!(!algo.requires_fifo(), "{} runs {}", spec.name, algo.name());
                }
            }
        }
    }

    #[test]
    fn duplication_cells_are_rcv_only() {
        for spec in registry() {
            if spec.faults.duplicate_every.is_some() {
                for algo in spec.algorithms() {
                    assert!(
                        matches!(algo, Algo::Rcv(_)),
                        "{} runs {}",
                        spec.name,
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cell_seed_is_stable_and_collision_scattered() {
        // Pinned value: changing the derivation silently re-seeds every
        // cell, which would masquerade as behavioral drift.
        assert_eq!(
            cell_seed("burst-n8", "Ricart", 0),
            cell_seed("burst-n8", "Ricart", 0)
        );
        let mut seen = BTreeSet::new();
        for s in ["a", "b", "burst-n8"] {
            for a in ["Ricart", "RCV (ours)"] {
                for i in 0..4 {
                    seen.insert(cell_seed(s, a, i));
                }
            }
        }
        assert_eq!(seen.len(), 24, "seed collisions across nearby cells");
    }

    #[test]
    fn every_registry_regime_renders_one_way_onto_the_real_tiers() {
        use rcv_runtime::NetDelay;
        use std::time::Duration;

        // What each delay regime becomes at rtmatrix's default 200 µs
        // tick — written out by hand, so a change to the rendering shows
        // up here.
        let us = Duration::from_micros;
        let pinned = [
            (
                DelayModel::paper_constant(),
                NetDelay::Uniform {
                    min: us(1_000),
                    max: us(1_000),
                },
            ),
            (
                DelayModel::paper_jittered(),
                NetDelay::Uniform {
                    min: us(200),
                    max: us(1_800),
                },
            ),
            (
                DelayModel::Exponential { mean: 5.0, cap: 40 },
                NetDelay::Exponential {
                    mean: us(1_000),
                    cap: us(8_000),
                },
            ),
        ];
        let pinned_delay = |delay: &DelayModel| {
            let pin = pinned.iter().find(|(model, _)| model == delay);
            pin.expect("every registry delay model is pinned").1
        };

        for spec in registry() {
            let name = &spec.name;
            // The simulator runs exactly the plan and the model.
            let cfg = spec.sim_config(7);
            assert_eq!(cfg.faults, spec.faults, "{name}");
            assert_eq!(cfg.delay, spec.delay, "{name}");

            // The real tiers run the same plan, or nothing.
            let served = rcv_runtime::serves(&spec.faults, spec.n).is_ok();
            assert_eq!(
                served,
                spec.faults.crashes.is_empty(),
                "{name}: only permanent crash-stop may be refused"
            );
            assert_eq!(
                NetDelay::from_model(&cfg.delay, us(200)),
                pinned_delay(&spec.delay),
                "{name}"
            );
            let shape_ok = matches!(
                spec.shape,
                ShapeSpec::Burst | ShapeSpec::Saturation { .. } | ShapeSpec::Poisson { .. }
            );
            assert_eq!(
                spec.runtime_mappable(),
                shape_ok && spec.n <= 64 && served,
                "{name}"
            );
        }
    }

    #[test]
    fn shard_striping_partitions_the_grid() {
        let all = cells(&registry());
        let total = all.len();
        let mut got = 0;
        for i in 0..4 {
            got += shard(all.clone(), i, 4).len();
        }
        assert_eq!(got, total);
        assert_eq!(shard(all.clone(), 0, 1).len(), total);
    }

    #[test]
    fn fault_free_burst_cell_passes() {
        let spec = ScenarioSpec {
            name: "burst-n8".into(),
            shape: ShapeSpec::Burst,
            faults: FaultPlan::none(),
            delay: DelayModel::paper_constant(),
            n: 8,
            seeds: 2,
            retry: None,
        };
        let r = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Ricart,
        });
        assert!(r.passed(), "{}", r.verdict);
        assert_eq!(r.completed, 16, "8 nodes x 2 seeds");
        assert!(r.expect_live);
        assert_eq!(r.violations, 0);
        assert!(r.nme > 0.0 && r.rt_mean > 0.0);
    }

    #[test]
    fn loss_cell_is_safe_but_not_required_live() {
        let spec = ScenarioSpec {
            name: "loss-burst-n12".into(),
            shape: ShapeSpec::Burst,
            faults: FaultPlan::losing(17),
            delay: DelayModel::paper_constant(),
            n: 12,
            seeds: 2,
            retry: None,
        };
        assert!(!spec.expect_live());
        let r = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Broadcast,
        });
        assert!(r.passed(), "{}", r.verdict);
        assert_eq!(r.violations, 0);
        assert!(r.lost > 0, "the loss regime must actually drop messages");
    }

    #[test]
    fn run_cell_is_deterministic() {
        let spec = ScenarioSpec {
            name: "hotspot-n16".into(),
            shape: ShapeSpec::HotSpot {
                hot: 3,
                hot_mean: 40.0,
                cold_mean: 600.0,
                horizon: 5_000,
            },
            faults: FaultPlan::none(),
            delay: DelayModel::paper_jittered(),
            n: 16,
            seeds: 2,
            retry: None,
        };
        let a = run_cell(&Cell {
            scenario: spec.clone(),
            algo: Algo::Broadcast,
        });
        let b = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Broadcast,
        });
        assert_eq!(a, b, "identical cell, identical fingerprint");
    }
}
