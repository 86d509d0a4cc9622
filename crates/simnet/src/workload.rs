//! Workload abstraction: *when does each node want the critical section?*
//!
//! Concrete generators (burst, Poisson, trace replay) live in the
//! `rcv-workload` crate; the engine only needs this narrow interface. The
//! system model (§3 of the paper) allows at most one outstanding request per
//! node, so the natural shape is: schedule initial arrivals up front, then
//! schedule each node's *next* arrival when its previous request completes.

use rand::rngs::SmallRng;

use crate::ids::NodeId;
use crate::time::SimTime;

/// Collector for arrivals scheduled by a [`Workload`].
///
/// Wraps the raw list so workload implementations cannot reorder or drop
/// entries already scheduled, and so the engine can validate timestamps.
#[derive(Debug, Default)]
pub struct ArrivalSink {
    pending: Vec<(SimTime, NodeId)>,
}

impl ArrivalSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `node` to request the CS at `at`.
    pub fn schedule(&mut self, at: SimTime, node: NodeId) {
        self.pending.push((at, node));
    }

    /// Drains scheduled arrivals (engine-side).
    pub fn drain(&mut self) -> impl Iterator<Item = (SimTime, NodeId)> + '_ {
        self.pending.drain(..)
    }

    /// Number of queued arrivals not yet drained.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no arrivals are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// A source of CS request arrivals.
pub trait Workload {
    /// Called once before the simulation starts; schedule the initial
    /// arrival(s). `n` is the node count.
    fn init(&mut self, n: usize, rng: &mut SmallRng, sink: &mut ArrivalSink);

    /// Called when `node`'s request completes (it exited the CS) at `now`;
    /// may schedule that node's next arrival. Must only schedule times
    /// `>= now`.
    fn on_complete(
        &mut self,
        node: NodeId,
        now: SimTime,
        rng: &mut SmallRng,
        sink: &mut ArrivalSink,
    );
}

/// A boxed workload is a workload: one engine call covers shapes chosen
/// at run time.
impl<W: Workload + ?Sized> Workload for Box<W> {
    fn init(&mut self, n: usize, rng: &mut SmallRng, sink: &mut ArrivalSink) {
        (**self).init(n, rng, sink)
    }

    fn on_complete(
        &mut self,
        node: NodeId,
        now: SimTime,
        rng: &mut SmallRng,
        sink: &mut ArrivalSink,
    ) {
        (**self).on_complete(node, now, rng, sink)
    }
}

/// The trivial workload: every node requests exactly once, all at `t = 0`.
///
/// This is the paper's Figure 4/5 scenario ("all nodes are requesting the CS
/// simultaneously as soon as the system is initialized. Every node only
/// requests once."). Kept here (rather than `rcv-workload`) because the
/// simnet unit tests need *some* workload.
#[derive(Clone, Debug, Default)]
pub struct BurstOnce;

impl Workload for BurstOnce {
    fn init(&mut self, n: usize, _rng: &mut SmallRng, sink: &mut ArrivalSink) {
        for node in NodeId::all(n) {
            sink.schedule(SimTime::ZERO, node);
        }
    }

    fn on_complete(
        &mut self,
        _node: NodeId,
        _now: SimTime,
        _rng: &mut SmallRng,
        _sink: &mut ArrivalSink,
    ) {
    }
}

/// A workload driven by an explicit list of `(time, node)` arrivals.
///
/// The engine enforces the one-outstanding-request rule, so a trace that
/// schedules a node again before its previous request finished is a test
/// bug and will panic; use completion-driven workloads for closed loops.
#[derive(Clone, Debug)]
pub struct FixedTrace {
    arrivals: Vec<(SimTime, NodeId)>,
}

impl FixedTrace {
    /// Builds a trace workload; arrivals are sorted by `(time, node)`.
    pub fn new(mut arrivals: Vec<(SimTime, NodeId)>) -> Self {
        arrivals.sort_by_key(|&(t, n)| (t, n));
        FixedTrace { arrivals }
    }
}

impl Workload for FixedTrace {
    fn init(&mut self, _n: usize, _rng: &mut SmallRng, sink: &mut ArrivalSink) {
        for &(at, node) in &self.arrivals {
            sink.schedule(at, node);
        }
    }

    fn on_complete(
        &mut self,
        _node: NodeId,
        _now: SimTime,
        _rng: &mut SmallRng,
        _sink: &mut ArrivalSink,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn burst_schedules_everyone_at_zero() {
        let mut w = BurstOnce;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut sink = ArrivalSink::new();
        w.init(4, &mut rng, &mut sink);
        let all: Vec<_> = sink.drain().collect();
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|&(t, _)| t == SimTime::ZERO));
    }

    #[test]
    fn fixed_trace_sorts() {
        let mut w = FixedTrace::new(vec![
            (SimTime::from_ticks(9), NodeId::new(1)),
            (SimTime::from_ticks(2), NodeId::new(0)),
        ]);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut sink = ArrivalSink::new();
        w.init(2, &mut rng, &mut sink);
        let all: Vec<_> = sink.drain().collect();
        assert_eq!(all[0].0.ticks(), 2);
        assert_eq!(all[1].0.ticks(), 9);
    }

    #[test]
    fn sink_len_tracks() {
        let mut sink = ArrivalSink::new();
        assert!(sink.is_empty());
        sink.schedule(SimTime::ZERO, NodeId::new(0));
        assert_eq!(sink.len(), 1);
        let _ = sink.drain().count();
        assert!(sink.is_empty());
    }
}
