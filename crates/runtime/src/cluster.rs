//! The thread-per-node cluster: runs any [`MutexProtocol`] over real OS
//! threads and crossbeam channels, with an impairment layer that injects
//! random per-message delays (and therefore reordering — the channels stop
//! being FIFO, exactly the property the RCV algorithm claims not to need)
//! and, optionally, wire-level faults mirroring the simulator's
//! `FaultPlan`: message loss, duplicated delivery and per-endpoint
//! straggler slowdowns, all applied by the calling thread as it routes.
//!
//! Topology:
//!
//! ```text
//! node thread 0 ─┐                        ┌─▶ node inbox 0
//! node thread 1 ─┼─▶ calling thread ──────┼─▶ node inbox 1
//!      ...       │   (delay heap,         └─▶ ...
//! node thread N ─┘    loss/dup/straggler)
//! ```
//!
//! Each node thread owns its protocol state machine, issues its workload's
//! requests, executes the CS by *sleeping* for `cs_duration` (registering
//! entry/exit with the one shared [`SafetyMonitor`]), and keeps serving
//! protocol messages between and after its own requests until the whole
//! cluster is done. The caller of [`run_cluster_collecting`] serves the delay queue
//! itself — a run creates exactly `n` threads. Every cluster thread, the
//! caller included, registers a [`crate::watchdog::StatusCell`], so a
//! deadlocked run can be post-mortemed with
//! [`crate::watchdog::thread_dump`].

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcv_simnet::{DelayModel, FaultPlan, MutexProtocol, NodeId, SafetyMonitor, SimDuration};

use crate::checker::{lock, tally};
use crate::node::{NodeDriver, NodeParams};
use crate::spec::{ticks, Spec};
use crate::transport::chan::{ChanTransport, Packet, Submitted};
use crate::transport::frame::WorkerReport;
use crate::transport::netq::FaultQueue;
use crate::watchdog::StatusCell;

/// Per-message network impairment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDelay {
    /// Deliver as fast as the channels go (still asynchronous).
    None,
    /// Uniformly random delay in `[min, max]` — reorders messages.
    Uniform {
        /// Minimum injected delay.
        min: Duration,
        /// Maximum injected delay.
        max: Duration,
    },
    /// Exponential delay with the given mean, capped — heavy-tailed,
    /// aggressive reordering (the runtime mirror of the simulator's
    /// `DelayModel::Exponential`).
    Exponential {
        /// Mean of the exponential distribution.
        mean: Duration,
        /// Hard cap on a single sample.
        cap: Duration,
    },
}

impl NetDelay {
    /// Renders a simulator delay model at `tick` per simulator tick — the
    /// one way a tick-denominated delay reaches the real tiers. A constant
    /// model becomes a degenerate uniform one (per-pair FIFO).
    pub fn from_model(model: &DelayModel, tick: Duration) -> Self {
        let uniform = |min: SimDuration, max: SimDuration| NetDelay::Uniform {
            min: ticks(tick, min.ticks()),
            max: ticks(tick, max.ticks()),
        };
        match *model {
            DelayModel::Constant(d) => uniform(d, d),
            DelayModel::Uniform { min, max } => uniform(min, max),
            DelayModel::Exponential { mean, cap } => NetDelay::Exponential {
                mean: Duration::from_nanos((tick.as_nanos() as f64 * mean).round() as u64),
                cap: ticks(tick, cap),
            },
        }
    }

    pub(crate) fn sample(&self, rng: &mut SmallRng) -> Duration {
        match *self {
            NetDelay::None => Duration::ZERO,
            NetDelay::Uniform { min, max } => {
                let span = max.saturating_sub(min);
                min + span.mul_f64(rng.gen::<f64>())
            }
            NetDelay::Exponential { mean, cap } => {
                // Inverse-CDF sampling; `1 - u` is in (0, 1], so the log is
                // finite or the cap applies.
                let u: f64 = rng.gen();
                let d = -mean.as_secs_f64() * (1.0 - u).ln();
                Duration::from_secs_f64(d.min(cap.as_secs_f64()))
            }
        }
    }
}

/// Wire-level fault injection, applied at the fabric boundary (the thread
/// tier's caller or the hub) — what a `rcv_simnet::FaultPlan` renders to on the real
/// tiers (`WireFaults::try_from(&plan)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireFaults {
    /// Every `k`-th message crossing the fabric is dropped.
    pub loss_every: Option<u64>,
    /// Every `k`-th delivered message is delivered twice (the duplicate
    /// arrives later, after an extra delay).
    pub dup_every: Option<u64>,
    /// `(node index, factor)`: messages to or from this node take
    /// `factor ×` the sampled delay — a slow node, FIFO-breaking even
    /// under otherwise constant delays.
    pub straggler: Option<(u32, u32)>,
    /// `(node index, down_ticks, up_ticks)`: a bounded outage measured
    /// from cluster start on the [`Spec::tick`] scale. During the
    /// window the network black-holes every delivery to the node (counted
    /// in [`ClusterReport::crash_dropped`], separately from loss), the
    /// node thread freezes — aborting a held CS, which evicts it from the
    /// safety monitor — and at the window's end the thread re-runs the
    /// protocol's [`rcv_simnet::MutexProtocol::on_restart`] hook and rejoins.
    pub crash_restart: Option<(u32, u64, u64)>,
}

impl WireFaults {
    /// No faults — the paper's reliable model.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds message loss with period `every` (must be ≥ 1).
    pub fn with_loss(mut self, every: u64) -> Self {
        assert!(every >= 1, "loss period must be >= 1");
        self.loss_every = Some(every);
        self
    }

    /// Adds duplicated delivery with period `every` (must be ≥ 1).
    pub fn with_duplication(mut self, every: u64) -> Self {
        assert!(every >= 1, "duplication period must be >= 1");
        self.dup_every = Some(every);
        self
    }

    /// Makes `node`'s links `factor ×` slower (factor must be ≥ 1).
    pub fn with_straggler(mut self, node: u32, factor: u32) -> Self {
        assert!(factor >= 1, "straggler factor must be >= 1");
        self.straggler = Some((node, factor));
        self
    }

    /// Crashes `node` at `down_ticks` from cluster start and restarts it
    /// at `up_ticks` (both on the spec's tick scale; `down < up`).
    pub fn with_crash_restart(mut self, node: u32, down_ticks: u64, up_ticks: u64) -> Self {
        assert!(
            down_ticks < up_ticks,
            "crash window must end after it starts"
        );
        self.crash_restart = Some((node, down_ticks, up_ticks));
        self
    }

    /// Whether messages can vanish — the one regime that voids the
    /// liveness guarantee of every retransmission-free algorithm.
    pub fn lossy(&self) -> bool {
        self.loss_every.is_some()
    }
}

impl TryFrom<&FaultPlan> for WireFaults {
    type Error = String;

    /// The real-tier rendering of a simulator fault plan; periods, factors
    /// and window ticks carry over unchanged. Partial: a **permanent**
    /// crash-stop needs a node to vanish forever, which neither joinable
    /// threads nor watched worker processes can express — only bounded
    /// crash *windows* map — and the wire layer holds one straggler and one
    /// window.
    fn try_from(plan: &FaultPlan) -> Result<WireFaults, String> {
        if let Some(&(node, at)) = plan.crashes.first() {
            return Err(format!(
                "permanent crash-stop ({node} at t={}) has no wire-level rendering",
                at.ticks()
            ));
        }
        if plan.stragglers.len() > 1 || plan.restarts.len() > 1 {
            return Err(format!(
                "{} stragglers and {} crash windows exceed the wire layer's one of each",
                plan.stragglers.len(),
                plan.restarts.len()
            ));
        }
        let straggler = match plan.stragglers.first() {
            Some(&(node, factor)) => Some((
                node.raw(),
                u32::try_from(factor)
                    .map_err(|_| format!("straggler factor {factor} exceeds u32"))?,
            )),
            None => None,
        };
        Ok(WireFaults {
            loss_every: plan.drop_every,
            dup_every: plan.duplicate_every,
            straggler,
            crash_restart: plan
                .restarts
                .first()
                .map(|w| (w.node.raw(), w.down_at.ticks(), w.up_at.ticks())),
        })
    }
}

/// Hook applied to every message on the wire (e.g. the codec round-trip of
/// [`crate::wire::verifying_hook`]).
pub type WireHook<M> = Arc<dyn Fn(M) -> M + Send + Sync>;

/// Parameters of a thread-tier run: the shared run parameters plus an
/// optional on-wire message hook (`ext`).
pub type ClusterSpec<M> = Spec<Option<WireHook<M>>>;

impl<M> ClusterSpec<M> {
    /// [`crate::RunSpec::quick`] with no wire hook. Customize with the
    /// fluent builder methods:
    ///
    /// ```
    /// # use rcv_runtime::{ClusterSpec, WireFaults};
    /// # use std::time::Duration;
    /// let spec: ClusterSpec<rcv_core::RcvMessage> = ClusterSpec::quick(4, 7)
    ///     .rounds(3)
    ///     .faults(WireFaults::none().with_duplication(2))
    ///     .tick(Duration::from_micros(200));
    /// ```
    pub fn quick(n: usize, seed: u64) -> Self {
        crate::RunSpec::quick(n, seed).with(None)
    }

    /// Installs an on-wire message hook (codec verification, tampering).
    pub fn wire_hook(mut self, hook: WireHook<M>) -> Self {
        self.ext = Some(hook);
        self
    }
}

/// What a real-tier run observed (either tier).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// CS executions completed across all nodes.
    pub completed: u64,
    /// CS entries seen by the safety monitor (should equal `completed`).
    pub cs_entries: u64,
    /// Mutual exclusion violations (0 ⇔ safe).
    pub violations: u64,
    /// Protocol-internal anomalies summed over nodes
    /// (`rcv_core::RcvNodeStats::anomalies_under`; 0 for protocols without
    /// the notion).
    pub anomalies: u64,
    /// Messages the nodes submitted to the fabric.
    pub messages: u64,
    /// Messages dropped by wire-level loss injection.
    pub lost: u64,
    /// Extra copies delivered by wire-level duplication injection.
    pub duplicated: u64,
    /// Deliveries black-holed because the receiver was inside its crash
    /// window (counted separately from `lost`: loss is a network fault,
    /// this is a dead process).
    pub crash_dropped: u64,
    /// Node restarts performed (0 or 1 per run with the current
    /// single-window [`WireFaults::crash_restart`]).
    pub restarts: u64,
    /// True if the run hit the timeout before all rounds completed.
    pub timed_out: bool,
}

impl ClusterReport {
    /// Whether the run was safe, fully live and anomaly-free.
    pub fn is_clean(&self, expected: u64) -> bool {
        !self.timed_out && self.violations == 0 && self.anomalies == 0 && self.completed == expected
    }

    /// Folds a finished run into its report: the nodes' own counters, the
    /// safety monitor's `(entries, violations)`, the delay queue's fault
    /// counters and whether the deadline cut the run short.
    pub(crate) fn fold<'a, T>(
        nodes: impl Iterator<Item = &'a WorkerReport>,
        (cs_entries, violations): (u64, u64),
        q: &FaultQueue<T>,
        timed_out: bool,
    ) -> Self {
        let mut report = ClusterReport {
            cs_entries,
            violations,
            lost: q.lost,
            duplicated: q.duplicated,
            // The queue black-holes in-window deliveries; the node-side
            // inbox drain at the crash instant adds the already-delivered
            // ones.
            crash_dropped: q.crash_dropped,
            timed_out,
            ..ClusterReport::default()
        };
        for r in nodes {
            report.completed += r.completed;
            report.anomalies += r.anomalies;
            report.messages += r.messages;
            report.crash_dropped += r.crash_dropped;
            report.restarts += r.restarts;
        }
        report
    }
}

/// Runs a cluster of `spec.n` protocol nodes to completion and hands
/// back, with the report, every node's final protocol state (in node-id
/// order) — the runtime analogue of the simulator's
/// `Engine::run_collecting`, used e.g. to read RCV's internal anomaly
/// counters after a real-thread run.
///
/// The calling thread is the fabric: it routes every message through the
/// `FaultQueue` until each node has announced `Done`, then shuts the
/// nodes down — the life cycle of [`crate::orchestrator`]'s hub, over
/// channels.
pub fn run_cluster_collecting<P>(
    spec: ClusterSpec<P::Message>,
    mut make_node: impl FnMut(NodeId, usize) -> P,
) -> (ClusterReport, Vec<P>)
where
    P: MutexProtocol + Send + 'static,
{
    assert!(spec.n >= 1);
    let n = spec.n;
    let monitor = Arc::new(Mutex::new(SafetyMonitor::new()));
    let start = Instant::now();

    // Node threads: each runs the transport-generic driver over the
    // channel fabric.
    let (net_tx, net_rx) = unbounded::<Submitted<P::Message>>();
    let mut inboxes = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for (idx, seed) in spec.node_seeds().into_iter().enumerate() {
        let me = NodeId::new(idx as u32);
        let (tx, rx) = unbounded::<Packet<P::Message>>();
        inboxes.push(tx);
        let driver = NodeDriver::new(
            me,
            make_node(me, n),
            ChanTransport::new(me, net_tx.clone(), rx),
            Arc::clone(&monitor),
            SmallRng::seed_from_u64(seed),
            NodeParams::new(
                spec.rounds,
                spec.think,
                spec.cs_duration,
                spec.delay,
                spec.tick,
                start,
                spec.crash_ticks(idx),
            ),
            StatusCell::register(format!("rcv-node-{idx}")),
        );
        handles.push(
            std::thread::Builder::new()
                .name(format!("rcv-node-{idx}"))
                .spawn(move || {
                    let (proto, _transport, report) = driver.run();
                    (proto, report)
                })
                .expect("spawn node thread"),
        );
    }
    drop(net_tx);

    // Serve: deliver what is due, then wait on the one inbound channel
    // until the next delivery falls due or the deadline passes.
    let status = StatusCell::register("rcv-net");
    let mut q: FaultQueue<P::Message> = FaultQueue::new(spec.faults, spec.crash_window(start));
    let deadline = Instant::now() + spec.timeout;
    let mut done = 0usize;
    let timed_out = loop {
        let now = Instant::now();
        while let Some((from, to, msg)) = q.pop_due(now) {
            let msg = match &spec.ext {
                Some(hook) => hook(msg),
                None => msg,
            };
            status.bump();
            // A closed inbox just means that node's thread is gone.
            let _ = inboxes[to].send(Packet::Msg {
                from: NodeId::new(from as u32),
                msg,
            });
        }
        if done == n {
            break false;
        }
        if now >= deadline {
            break true;
        }
        let wake = q.next_due().map_or(deadline, |due| due.min(deadline));
        match net_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(Submitted::Msg {
                from,
                to,
                msg,
                delay,
            }) => {
                status.bump();
                q.submit(from.index(), to.index(), delay, msg);
                // Periodic status only: formatting per message would put
                // an allocation in the cluster's single serialization
                // point (StatusCell's own contract: transitions, not
                // events — progress is visible through bump()).
                if q.seen() % 1024 == 1 {
                    status.set(format!("in-flight {} (seen {})", q.in_flight(), q.seen()));
                }
            }
            Ok(Submitted::Done) => done += 1,
            Err(RecvTimeoutError::Timeout) => {}
            // Every node thread is gone without being told to: they
            // panicked, and the joins below say how.
            Err(RecvTimeoutError::Disconnected) => break false,
        }
    };

    // Tear down. Node panics (protocol bugs, codec failures) must surface,
    // not be swallowed into a mystery timeout.
    status.set("shutting down");
    for tx in &inboxes {
        let _ = tx.send(Packet::Shutdown);
    }
    let mut nodes = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for h in handles {
        match h.join() {
            Ok((proto, report)) => {
                nodes.push(proto);
                reports.push(report);
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let report = ClusterReport::fold(reports.iter(), tally(&lock(&monitor)), &q, timed_out);
    (report, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_baselines::RicartAgrawala;

    #[test]
    fn net_delay_samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = NetDelay::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(900),
        };
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            assert!(s >= Duration::from_micros(100) && s <= Duration::from_micros(900));
        }
        let e = NetDelay::Exponential {
            mean: Duration::from_micros(200),
            cap: Duration::from_millis(2),
        };
        for _ in 0..200 {
            assert!(e.sample(&mut rng) <= Duration::from_millis(2));
        }
        assert_eq!(NetDelay::None.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn wire_faults_builder_composes() {
        let f = WireFaults::none()
            .with_loss(17)
            .with_duplication(5)
            .with_straggler(2, 8);
        assert_eq!(f.loss_every, Some(17));
        assert_eq!(f.dup_every, Some(5));
        assert_eq!(f.straggler, Some((2, 8)));
        assert!(f.lossy());
        assert!(!WireFaults::none().with_duplication(3).lossy());
    }

    #[test]
    #[should_panic(expected = "loss period")]
    fn zero_loss_period_is_rejected() {
        let _ = WireFaults::none().with_loss(0);
    }

    #[test]
    fn total_loss_stalls_into_a_timeout_verdict() {
        // Every message is dropped, so no reply ever arrives: the serving
        // loop must give up at the soft deadline, not hang or spin.
        let timeout = Duration::from_millis(300);
        let started = Instant::now();
        let report = crate::run_with_watchdog("thread-stall", Duration::from_secs(30), move || {
            let spec = ClusterSpec::quick(2, 1)
                .faults(WireFaults::none().with_loss(1))
                .timeout(timeout);
            run_cluster_collecting(spec, RicartAgrawala::new).0
        });
        assert!(report.timed_out, "{report:?}");
        assert_eq!((report.completed, report.violations), (0, 0), "{report:?}");
        assert!(
            report.lost > 0 && report.lost == report.messages,
            "{report:?}"
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed >= timeout && elapsed < Duration::from_secs(10),
            "{elapsed:?}"
        );
    }

    #[test]
    fn zero_rounds_cluster_returns_clean_at_once() {
        // Every node is `Done` before any message exists.
        let spec = ClusterSpec::quick(3, 1).rounds(0);
        let timeout = spec.timeout;
        let started = Instant::now();
        let (report, nodes) = run_cluster_collecting(spec, RicartAgrawala::new);
        assert!(report.is_clean(0), "{report:?}");
        assert_eq!((report.messages, nodes.len()), (0, 3));
        assert!(started.elapsed() < timeout / 10, "{:?}", started.elapsed());
    }
}
