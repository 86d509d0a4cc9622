//! The one description of a real-tier run.
//!
//! [`Spec`] holds the run parameters every tier understands — how many
//! nodes, how many rounds, think and CS times, the injected delay and
//! faults, the tick scale, the seed, the deadline, RCV's retransmission
//! policy — plus one tier-specific extension `ext`. Its three
//! instantiations are the whole vocabulary:
//!
//! * [`RunSpec`] (`ext = ()`): the parameters alone, what the
//!   algorithm-agnostic entry points of `rcv-workload` take;
//! * [`crate::ClusterSpec`]: plus the thread tier's on-wire message hook;
//! * [`crate::orchestrator::ProcessSpec`]: plus the socket tier's protocol
//!   tag, socket family and kill drill.
//!
//! Each parameter has one field and one builder, here. What one node
//! runs is a [`NodeSpec`], and [`Spec::node`] is the one place it is
//! derived: the thread tier hands it to the node's thread, the socket hub
//! ships it to the worker in `Start`.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcv_simnet::{FaultPlan, NodeId, RetryPolicy};

use crate::cluster::NetDelay;

/// Run parameters plus a tier-specific extension; see the module docs.
///
/// Construct with the instantiation's `quick` and refine through the
/// fluent builders (`.rounds(..)`, `.faults(..)`, `.tick(..)`, ...).
#[derive(Clone, Debug)]
pub struct Spec<X> {
    /// Number of nodes.
    pub n: usize,
    /// CS requests each node performs.
    pub rounds: u32,
    /// Pause between a node's CS completion and its next request.
    pub think: Duration,
    /// How long the CS is held.
    pub cs_duration: Duration,
    /// Per-message network delay model.
    pub delay: NetDelay,
    /// The simulator's fault plan, in ticks of [`Spec::tick`], applied at
    /// the fabric boundary (the sending node thread or the hub); it must
    /// pass [`crate::serves`].
    pub faults: FaultPlan,
    /// Wall-clock length of one simulator tick: protocol timers armed via
    /// `Ctx::set_timer`, the `Ctx::now()` clock and the crash window all
    /// use this scale, so tick-denominated protocol logic keeps its
    /// proportions when delays are scaled up to schedulable magnitudes.
    pub tick: Duration,
    /// Master seed; per-node RNG seeds derive from it identically on
    /// every tier.
    pub seed: u64,
    /// Soft deadline: the run reports `timed_out` after this long (the
    /// socket tier kills stragglers).
    pub timeout: Duration,
    /// RCV retransmission policy (`None` = the paper's retransmission-free
    /// configuration). Baselines ignore it. Each [`NodeSpec`] carries it;
    /// on the thread tier the caller builds the nodes, so the caller
    /// applies it (`rcv_workload::Algo::run_threaded` does).
    pub retry: Option<RetryPolicy>,
    /// What the tier needs beyond the shared parameters.
    pub ext: X,
}

/// The run parameters alone.
pub type RunSpec = Spec<()>;

impl RunSpec {
    /// A small default: `n` nodes, one request each, jittered non-FIFO
    /// delivery, no faults, a 1 µs tick.
    pub fn quick(n: usize, seed: u64) -> Self {
        Spec {
            n,
            rounds: 1,
            think: Duration::from_millis(1),
            cs_duration: Duration::from_millis(2),
            delay: NetDelay::Uniform {
                min: Duration::from_micros(50),
                max: Duration::from_millis(2),
            },
            faults: FaultPlan::none(),
            tick: Duration::from_micros(1),
            seed,
            timeout: Duration::from_secs(30),
            retry: None,
            ext: (),
        }
    }
}

impl<X> Spec<X> {
    /// Sets the number of CS requests per node.
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the pause between a node's CS completion and its next request.
    pub fn think(mut self, think: Duration) -> Self {
        self.think = think;
        self
    }

    /// Sets how long each CS is held.
    pub fn cs_duration(mut self, cs: Duration) -> Self {
        self.cs_duration = cs;
        self
    }

    /// Sets the per-message delay model.
    pub fn delay(mut self, delay: NetDelay) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the wall-clock length of one simulator tick.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the soft deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the RCV retransmission policy (baselines ignore it).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// The same run parameters with a different tier extension.
    pub fn with<Y>(self, ext: Y) -> Spec<Y> {
        Spec {
            n: self.n,
            rounds: self.rounds,
            think: self.think,
            cs_duration: self.cs_duration,
            delay: self.delay,
            faults: self.faults,
            tick: self.tick,
            seed: self.seed,
            timeout: self.timeout,
            retry: self.retry,
            ext,
        }
    }

    /// Total CS executions a fully live run must complete.
    pub fn expected(&self) -> u64 {
        self.n as u64 * self.rounds as u64
    }

    /// Wall-clock length of `count` simulator ticks on this run's scale.
    pub fn ticks(&self, count: u64) -> Duration {
        ticks(self.tick, count)
    }

    /// Whether the fault plan gives any node a crash window: RCV's anomaly
    /// accounting excuses UL exhaustion in such runs.
    pub fn restartable(&self) -> bool {
        !self.faults.restarts.is_empty()
    }

    /// Node `i`'s share of the run: its seed (the `i`-th draw from the
    /// master seed, on every tier), its crash window and the run's
    /// parameters, with the tick at least 1 µs.
    pub fn node(&self, i: usize) -> NodeSpec {
        let mut seeder = SmallRng::seed_from_u64(self.seed);
        NodeSpec {
            node: NodeId::new(i as u32),
            n: self.n,
            seed: std::iter::repeat_with(|| seeder.gen())
                .nth(i)
                .expect("endless"),
            rounds: self.rounds,
            think: self.think,
            cs_duration: self.cs_duration,
            delay: self.delay,
            tick: self.tick.max(Duration::from_micros(1)),
            crash: self
                .faults
                .restarts
                .iter()
                .find(|w| w.node.index() == i)
                .map(|w| (w.down_at.ticks(), w.up_at.ticks())),
            retry: self.retry,
            restartable: self.restartable(),
        }
    }
}

/// What one node runs: everything its driver needs besides the instant
/// its clock starts. [`Spec::node`] derives it; the socket tier's `Start`
/// frame carries it verbatim.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpec {
    /// This node.
    pub node: NodeId,
    /// Cluster size.
    pub n: usize,
    /// This node's RNG seed.
    pub seed: u64,
    /// CS requests this node performs.
    pub rounds: u32,
    /// Pause between a CS completion and the next request.
    pub think: Duration,
    /// How long the CS is held.
    pub cs_duration: Duration,
    /// Per-message delay model (the node samples, the fabric applies).
    pub delay: NetDelay,
    /// Wall-clock length of one simulator tick, at least 1 µs.
    pub tick: Duration,
    /// This node's crash window `(down, up)` in ticks from the clock's
    /// start, if the fault plan gives it one.
    pub crash: Option<(u64, u64)>,
    /// RCV retransmission policy (baselines ignore it).
    pub retry: Option<RetryPolicy>,
    /// [`Spec::restartable`]: cluster-wide knowledge a node cannot infer
    /// from its own `crash`.
    pub restartable: bool,
}

/// Wall-clock length of `count` ticks of length `tick`.
pub(crate) fn ticks(tick: Duration, count: u64) -> Duration {
    tick.saturating_mul(count.min(u32::MAX as u64) as u32)
}
