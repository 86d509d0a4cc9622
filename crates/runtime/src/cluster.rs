//! The thread-per-node cluster: runs any [`MutexProtocol`] over real OS
//! threads sharing one delay queue, with an impairment layer that injects
//! random per-message delays (and therefore reordering — delivery stops
//! being FIFO, exactly the property the RCV algorithm claims not to need)
//! and, optionally, the simulator's own `FaultPlan` — loss, duplication
//! and straggler slowdowns applied by the sending thread as it queues,
//! crash windows served by the crashed node's own thread.
//!
//! Topology:
//!
//! ```text
//!                 ┌──────────── Switchboard (one Mutex) ────────────┐
//! node thread 0 ──┼─ send ─▶ FaultQueue: plan, counters, lateness,  │
//!      ...        │          one (due, seq) heap per receiver       │
//! node thread N ◀─┼─ recv ── pops its own due deliveries ───────────┤
//!                 │  one Condvar per node; one for the caller,      │
//!                 │  which waits for Done × N, then shuts down      │
//!                 └─────────────────────────────────────────────────┘
//! ```
//!
//! Each node thread owns its protocol state machine, issues its workload's
//! requests, executes the CS by *sleeping* for `cs_duration` (registering
//! entry/exit with the one shared [`SafetyMonitor`]), and keeps serving
//! protocol messages between and after its own requests until the whole
//! cluster is done. It serves its own deliveries: it sleeps until the next
//! one is due (or its own next request, timer or crash instant), and a
//! sender wakes it only when the new delivery is due before that. No
//! thread routes — a run creates exactly `n` threads, and the caller of
//! [`run_cluster_collecting`] just waits for the end. Every node thread
//! registers a [`crate::watchdog::StatusCell`], so a deadlocked run can be
//! post-mortemed with [`crate::watchdog::thread_dump`].

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use rcv_simnet::{DelayModel, FaultPlan, MutexProtocol, NodeId, SafetyMonitor, SimDuration};

use crate::checker::{lock, tally};
use crate::node::NodeDriver;
use crate::spec::{ticks, Spec};
use crate::transport::chan::Switchboard;
use crate::transport::frame::WorkerReport;
use crate::transport::netq::{FaultQueue, Lateness};
use crate::transport::readiness::ExactTimers;
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

/// Whether the real tiers can run `plan` on `n` nodes as the simulator
/// would: `Ok`, or why not. A plan they cannot hold is refused whole:
///
/// * every node the plan names is one of the `n` (`FaultPlan::unknown_node`);
/// * a **permanent** crash-stop needs a node to vanish forever, which
///   neither joinable threads nor watched worker processes can express —
///   only bounded crash *windows* run;
/// * a node's driver serves one crash window, so a node may have at most
///   one;
/// * a straggler stretches a `Duration`, which scales by `u32`.
pub fn serves(plan: &FaultPlan, n: usize) -> Result<(), String> {
    if let Some(node) = plan.unknown_node(n) {
        return Err(format!("{node} is not one of the {n} nodes"));
    }
    if let Some(&(node, at)) = plan.crashes.first() {
        return Err(format!(
            "permanent crash-stop ({node} at t={}) has no real-tier rendering",
            at.ticks()
        ));
    }
    for (i, w) in plan.restarts.iter().enumerate() {
        if plan.restarts[..i].iter().any(|v| v.node == w.node) {
            return Err(format!("{} has more than one crash window", w.node));
        }
    }
    match plan.stragglers.iter().find(|&&(_, f)| f > u32::MAX as u64) {
        Some(&(node, factor)) => Err(format!("straggler factor {factor} of {node} exceeds u32")),
        None => Ok(()),
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
    /// # use rcv_runtime::ClusterSpec;
    /// # use rcv_simnet::FaultPlan;
    /// # use std::time::Duration;
    /// let spec: ClusterSpec<rcv_core::RcvMessage> = ClusterSpec::quick(4, 7)
    ///     .rounds(3)
    ///     .faults(FaultPlan::duplicating(2))
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
    /// Messages dropped by the plan's loss (`FaultPlan::drops`).
    pub lost: u64,
    /// Extra copies delivered by the plan's duplication
    /// (`FaultPlan::duplicates`).
    pub duplicated: u64,
    /// Deliveries a node discarded inside its crash window (not `lost`:
    /// loss is a network fault, this is a dead process).
    pub crash_dropped: u64,
    /// Node restarts performed (one per served crash window in the
    /// plan's [`FaultPlan::restarts`]).
    pub restarts: u64,
    /// How late each delivery was taken from the delay queue, past the
    /// due time the injected delay set; a delivery to a crashed node
    /// counts too. On the socket tier the hub takes them: its wake-up
    /// precision. On the thread tier the receiving node thread does, so
    /// the figure also holds the time the receiver was busy (handling
    /// another message, or in its CS) when the delivery fell due — it is
    /// not comparable with the socket tier's.
    pub late: Lateness,
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
    /// and lateness counters and whether the deadline cut the run short.
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
            late: q.late,
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
/// The node threads are the fabric: each queues what it sends in the
/// receiver's heap of one shared `Switchboard` and serves its own
/// deliveries. The calling thread only waits until each node has
/// announced `Done` (or one is gone, or the deadline passes), then shuts
/// the nodes down — the life cycle of [`crate::orchestrator`]'s hub,
/// without the routing.
pub fn run_cluster_collecting<P>(
    spec: ClusterSpec<P::Message>,
    mut make_node: impl FnMut(NodeId, usize) -> P,
) -> (ClusterReport, Vec<P>)
where
    P: MutexProtocol + Send + 'static,
{
    assert!(spec.n >= 1);
    let n = spec.n;
    serves(&spec.faults, n).expect("the thread tier runs this fault plan");
    let monitor = Arc::new(Mutex::new(SafetyMonitor::new()));
    let start = Instant::now();
    let net = Switchboard::new(n, &spec.faults, spec.ext.clone());

    // Node threads: each runs the transport-generic driver over its
    // connection to the switchboard.
    let mut handles = Vec::with_capacity(n);
    for idx in 0..n {
        let node = spec.node(idx);
        let driver = NodeDriver::new(
            make_node(node.node, n),
            net.transport(node.node),
            Arc::clone(&monitor),
            &node,
            start,
            StatusCell::register(format!("rcv-node-{idx}")),
        );
        handles.push(
            std::thread::Builder::new()
                .name(format!("rcv-node-{idx}"))
                .spawn(move || {
                    // A node thread sleeps until its next delivery is due:
                    // its waits end on injected delays, so it runs with
                    // exact timers.
                    let _exact = ExactTimers::new();
                    let (proto, _transport, report) = driver.run();
                    (proto, report)
                })
                .expect("spawn node thread"),
        );
    }
    let timed_out = net.run_until_done(Instant::now() + spec.timeout);

    // Node panics (protocol bugs, codec failures) must surface, not be
    // swallowed into a mystery timeout.
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
    let tally = tally(&lock(&monitor));
    let report = ClusterReport::fold(reports.iter(), tally, &net.lock().q, timed_out);
    (report, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rcv_baselines::RicartAgrawala;
    use rcv_simnet::SimTime;

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
    fn serves_what_the_drivers_hold() {
        let at = SimTime::from_ticks;
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let two_slow = FaultPlan::straggler(a, 2).with_straggler(b, 3);
        assert_eq!(serves(&two_slow, 2), Ok(()));
        let two_windows =
            FaultPlan::crash_restart(a, at(5), at(10)).with_crash_restart(b, at(5), at(10));
        assert_eq!(serves(&two_windows, 2), Ok(()));

        assert!(serves(&FaultPlan::crash(a, at(5)), 2).is_err());
        let twice =
            FaultPlan::crash_restart(a, at(5), at(10)).with_crash_restart(a, at(20), at(30));
        assert!(serves(&twice, 2).is_err());
        assert!(serves(&FaultPlan::straggler(a, u64::MAX), 2).is_err());
        assert!(serves(&FaultPlan::straggler(a, u32::MAX as u64), 2).is_ok());

        // A node outside the cluster is refused, whatever names it.
        let (n5, n9) = (NodeId::new(5), NodeId::new(9));
        let outside = FaultPlan::crash_restart(n5, at(100), at(200)).with_straggler(n9, 50);
        let err = serves(&outside, 3).expect_err("N5 and N9 are not in a 3-node cluster");
        assert!(err.contains("N5 is not one of the 3"), "{err}");
        assert!(serves(&FaultPlan::straggler(n9, 50), 3).is_err());
        assert!(serves(&FaultPlan::crash_restart(b, at(1), at(2)), 1).is_err());
        assert_eq!(serves(&outside, 10), Ok(()));
    }

    #[test]
    fn total_loss_stalls_into_a_timeout_verdict() {
        // Every message is dropped, so no reply ever arrives: the serving
        // loop must give up at the soft deadline, not hang or spin.
        let timeout = Duration::from_millis(300);
        let started = Instant::now();
        let report = crate::run_with_watchdog("thread-stall", Duration::from_secs(30), move || {
            let spec = ClusterSpec::quick(2, 1)
                .faults(FaultPlan::losing(1))
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

    /// Every delivery is measured for lateness. Ricart–Agrawala's last
    /// exit sends nothing, so in a clean run every message is delivered
    /// before the last `Done`; the caller's timer slack is left as it was
    /// (only node threads run with exact timers).
    #[test]
    fn a_clean_run_measures_the_lateness_of_every_delivery() {
        let slack = crate::transport::readiness::timer_slack_ns();
        let (r, _) =
            run_cluster_collecting(ClusterSpec::quick(3, 5).rounds(2), RicartAgrawala::new);
        assert_eq!(crate::transport::readiness::timer_slack_ns(), slack);
        assert!(r.is_clean(6), "{r:?}");
        assert_eq!(r.late.count, r.messages - r.lost + r.duplicated, "{r:?}");
        assert!(r.late.count > 0 && r.late.max >= r.late.mean(), "{r:?}");
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

    /// The wire hook runs once per delivery, on the receiving node thread,
    /// which holds exact timers: with every second message doubled, it
    /// still runs exactly as often as a delivery is measured.
    #[test]
    fn the_wire_hook_runs_once_per_measured_delivery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = Arc::new(AtomicU64::new(0));
        let inexact = Arc::new(AtomicU64::new(0));
        let (counter, slack) = (Arc::clone(&calls), Arc::clone(&inexact));
        let spec = ClusterSpec::quick(3, 9)
            .rounds(3)
            .faults(FaultPlan::duplicating(2))
            .wire_hook(Arc::new(move |m| {
                counter.fetch_add(1, Ordering::Relaxed);
                if crate::transport::readiness::timer_slack_ns() != Some(1) {
                    slack.fetch_add(1, Ordering::Relaxed);
                }
                m
            }));
        let (r, _) = run_cluster_collecting(spec, RicartAgrawala::new);
        assert!(r.is_clean(9) && r.duplicated > 0, "{r:?}");
        assert_eq!(calls.load(Ordering::Relaxed), r.late.count, "{r:?}");
        assert_eq!(inexact.load(Ordering::Relaxed), 0);
    }

    /// A node thread that panics ends the run at once — the others, left
    /// waiting for it, would otherwise hold the caller to the deadline —
    /// and the panic comes back out of the caller.
    #[test]
    fn a_panicking_node_ends_the_run_and_its_panic_resurfaces() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let timeout = Duration::from_secs(60);
        let armed = Arc::new(AtomicBool::new(true));
        let spec = ClusterSpec::quick(3, 2)
            .rounds(2)
            .timeout(timeout)
            .wire_hook(Arc::new(move |m| {
                assert!(!armed.swap(false, Ordering::Relaxed), "tampered frame");
                m
            }));
        let started = Instant::now();
        let panic = crate::run_with_watchdog("thread-panic", Duration::from_secs(30), move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_cluster_collecting(spec, RicartAgrawala::new)
            }))
            .err()
            .map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()))
        });
        let elapsed = started.elapsed();
        assert_eq!(panic, Some(Some("tampered frame".to_string())));
        assert!(elapsed < timeout / 6, "{elapsed:?}");
    }
}
