//! Simulation events and the deterministic event queue.
//!
//! The queue is a **calendar (bucket) queue**: a ring of per-tick FIFO
//! buckets covering the near future, with a sorted overflow heap for
//! far-future events. The paper's delay model (`Tn = 5`, `Tc = 10`,
//! constant delay) schedules almost every event a small bounded distance
//! ahead of the clock, so in steady state every `schedule`/`pop` is O(1)
//! and allocation-free (bucket storage is reused across the run). Events
//! beyond the horizon — protocol timers, fault plans, Poisson
//! inter-arrival gaps — fall back to a binary heap, preserving exact
//! `(time, seq)` order across both structures.

use core::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// What happens when an event fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<M> {
    /// A message sent by `from` reaches `to`'s incoming message queue.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// The workload makes `node` request the critical section.
    Arrival {
        /// The requesting node.
        node: NodeId,
    },
    /// `node` finishes executing the critical section.
    CsExit {
        /// The node leaving the CS.
        node: NodeId,
        /// The engine's per-node CS generation at grant time. A crash
        /// eviction bumps the generation, so the dead hold's pending exit
        /// can never terminate a CS the node re-entered after recovery.
        epoch: u64,
    },
    /// A timer set by `node` via [`crate::Ctx::set_timer`] fires.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The tag the protocol attached when arming the timer.
        tag: u64,
    },
    /// Start of a crash window: `node` goes down.
    Crash {
        /// The node that dies.
        node: NodeId,
    },
    /// End of a crash window: `node` comes back and its
    /// [`crate::MutexProtocol::on_restart`] hook runs.
    Restart {
        /// The node that restarts.
        node: NodeId,
    },
}

impl<M> EventKind<M> {
    /// The node the event fires at (the receiver, for a delivery).
    pub fn node(&self) -> NodeId {
        match *self {
            EventKind::Deliver { to, .. } => to,
            EventKind::Arrival { node }
            | EventKind::CsExit { node, .. }
            | EventKind::Timer { node, .. }
            | EventKind::Crash { node }
            | EventKind::Restart { node } => node,
        }
    }

    /// The same event with its message, if any, replaced by `f(&msg)`.
    pub fn map_msg<N>(&self, f: impl FnOnce(&M) -> N) -> EventKind<N> {
        match *self {
            EventKind::Deliver { from, to, ref msg } => EventKind::Deliver {
                from,
                to,
                msg: f(msg),
            },
            EventKind::Arrival { node } => EventKind::Arrival { node },
            EventKind::CsExit { node, epoch } => EventKind::CsExit { node, epoch },
            EventKind::Timer { node, tag } => EventKind::Timer { node, tag },
            EventKind::Crash { node } => EventKind::Crash { node },
            EventKind::Restart { node } => EventKind::Restart { node },
        }
    }
}

/// An event scheduled at a virtual time.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub at: SimTime,
    /// What fires.
    pub kind: EventKind<M>,
}

/// Queue entry; carries the insertion sequence number so that events that
/// tie on time fire in insertion order, keeping runs bit-for-bit
/// deterministic.
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Where the queue's earliest event is stored.
#[derive(Clone, Copy)]
enum Head {
    /// Front of the bucket of this tick.
    Ring(u64),
    /// Top of the overflow heap.
    Overflow,
}

/// Default near-future coverage when no horizon is given: enough for the
/// paper's `max(Tn, Tc) = 10` with headroom.
const DEFAULT_HORIZON_TICKS: u64 = 15;

/// Hard cap on the bucket ring so a pathological horizon (e.g. a huge
/// `cs_duration`) cannot balloon memory; everything past the ring simply
/// uses the overflow heap.
const MAX_BUCKETS: u64 = 4096;

/// Deterministic future-event list (calendar queue).
///
/// Events within `horizon` ticks of the clock go into a ring of per-tick
/// FIFO buckets (O(1) push/pop, storage reused); later events go into a
/// sorted overflow heap. `pop` always yields the globally smallest
/// `(time, seq)` pair, so (a) equal timestamps fire in insertion order and
/// (b) a seed fully determines a run. Scheduling into the past is a
/// causality bug in the caller and is rejected with a debug assertion.
pub struct EventQueue<M> {
    /// `buckets[t & mask]` holds the events at tick `t`; all entries of one
    /// bucket share a tick because the ring only covers `[now, now + len)`
    /// and ticks are fully drained before the window moves past them.
    buckets: Vec<VecDeque<Scheduled<M>>>,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    /// Events currently in the ring (not counting the overflow heap).
    ring_len: usize,
    /// Far-future events, min-ordered by `(time, seq)`.
    overflow: BinaryHeap<Scheduled<M>>,
    /// Lower bound on the earliest occupied ring tick: pops advance it to
    /// the tick they found, schedules lower it when inserting earlier.
    /// Keeps the next-tick scan amortized O(1) even when the ring is
    /// large and sparsely occupied.
    scan_from: u64,
    next_seq: u64,
    now: SimTime,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue positioned at `t = 0` with a default
    /// near-future horizon; use [`EventQueue::with_horizon`] to size the
    /// ring to the actual scheduling distances of the workload.
    pub fn new() -> Self {
        Self::with_horizon(SimDuration::from_ticks(DEFAULT_HORIZON_TICKS))
    }

    /// Creates an empty queue whose bucket ring covers at least
    /// `[now, now + horizon]`: every event scheduled at most `horizon`
    /// ticks ahead is guaranteed the O(1) bucket path. The ring is rounded
    /// up to a power of two and capped (far-future events are still
    /// correct — they take the overflow heap).
    pub fn with_horizon(horizon: SimDuration) -> Self {
        let want = horizon.ticks().saturating_add(1).clamp(1, MAX_BUCKETS);
        let len = want.next_power_of_two();
        EventQueue {
            buckets: (0..len).map(|_| VecDeque::new()).collect(),
            mask: len - 1,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            scan_from: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events currently on the O(1) bucket-ring path.
    ///
    /// The ring covers `[now, now + ring_capacity())`: an event lands here
    /// iff its delay from `now` at schedule time is **strictly less** than
    /// [`EventQueue::ring_capacity`]. Exposed so tests can pin the
    /// ring/overflow boundary exactly; the split is a performance detail,
    /// never an ordering one.
    pub fn ring_len(&self) -> usize {
        self.ring_len
    }

    /// Events currently on the far-future overflow-heap path
    /// (scheduled at `now + ring_capacity()` or later).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Number of per-tick buckets in the ring: the `with_horizon` request
    /// `+ 1`, rounded up to a power of two and capped. The first delay
    /// that takes the overflow path is exactly this many ticks.
    pub fn ring_capacity(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Schedules `kind` to fire at `at`.
    ///
    /// `at` must not precede the current clock; this is a causality bug in
    /// the caller and is rejected with a debug assertion (release builds
    /// clamp to `now` rather than corrupt the ring).
    pub fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, kind };
        if at.ticks() - self.now.ticks() < self.buckets.len() as u64 {
            self.buckets[(at.ticks() & self.mask) as usize].push_back(s);
            self.ring_len += 1;
            self.scan_from = self.scan_from.min(at.ticks());
        } else {
            self.overflow.push(s);
        }
    }

    /// Tick of the earliest non-empty bucket, if the ring holds anything.
    ///
    /// Every ring event lies in `[now, now + len)` — it was scheduled within
    /// the horizon of a clock that has only moved forward since — and
    /// `scan_from` is a lower bound on the earliest of them, so a bounded
    /// scan from `max(now, scan_from)` finds the earliest occupied tick
    /// without re-walking buckets earlier pops already saw empty. (Every
    /// tick the scan visits is ≥ `now` and within one ring length of the
    /// earliest event, so an occupied bucket it meets holds exactly that
    /// tick's events — no modulo aliasing.)
    fn next_ring_tick(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = self.now.ticks().max(self.scan_from);
        (start..start + self.buckets.len() as u64)
            .find(|&t| !self.buckets[(t & self.mask) as usize].is_empty())
    }

    /// Where the earliest event sits: the FIFO front of the earliest
    /// non-empty bucket (minimal seq for its tick, since seq grows with
    /// insertion) or the overflow top — the smaller `(time, seq)` wins.
    fn head(&mut self) -> Option<Head> {
        let ring_tick = self.next_ring_tick();
        if let Some(t) = ring_tick {
            // Cache the scan result: `t` is the earliest occupied ring
            // tick, a valid lower bound until an earlier schedule lowers
            // it — so overflow pops interleaved before a distant ring
            // event don't re-walk the same empty buckets.
            self.scan_from = t;
        }
        match (ring_tick, self.overflow.peek()) {
            (None, None) => None,
            (None, Some(_)) => Some(Head::Overflow),
            (Some(t), None) => Some(Head::Ring(t)),
            (Some(t), Some(o)) => {
                let front = self.buckets[(t & self.mask) as usize]
                    .front()
                    .expect("scanned non-empty");
                Some(if (o.at.ticks(), o.seq) < (t, front.seq) {
                    Head::Overflow
                } else {
                    Head::Ring(t)
                })
            }
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.pop_if(|_, _| true)
    }

    /// Pops the earliest event if `keep(time, kind)` accepts it (one head
    /// search, where [`EventQueue::peek`] then [`EventQueue::pop`] take two).
    pub fn pop_if(
        &mut self,
        keep: impl FnOnce(SimTime, &EventKind<M>) -> bool,
    ) -> Option<Event<M>> {
        let head = self.head()?;
        let s = match head {
            Head::Overflow => self.overflow.peek().expect("peeked above"),
            Head::Ring(t) => self.buckets[(t & self.mask) as usize]
                .front()
                .expect("scanned non-empty"),
        };
        if !keep(s.at, &s.kind) {
            return None;
        }
        let s = match head {
            Head::Overflow => self.overflow.pop().expect("peeked above"),
            Head::Ring(t) => {
                self.ring_len -= 1;
                self.buckets[(t & self.mask) as usize]
                    .pop_front()
                    .expect("scanned non-empty")
            }
        };
        self.now = s.at;
        Some(Event {
            at: s.at,
            kind: s.kind,
        })
    }

    /// The event [`EventQueue::pop`] would return next, without popping
    /// it. Takes `&mut self` only to cache the bucket scan for that pop.
    pub fn peek(&mut self) -> Option<(SimTime, &EventKind<M>)> {
        let s = match self.head()? {
            Head::Overflow => self.overflow.peek().expect("peeked above"),
            Head::Ring(t) => self.buckets[(t & self.mask) as usize]
                .front()
                .expect("scanned non-empty"),
        };
        Some((s.at, &s.kind))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring = self.next_ring_tick().map(SimTime::from_ticks);
        let over = self.overflow.peek().map(|s| s.at);
        match (ring, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn peek_and_pop_if_see_what_pop_returns() {
        // A small ring so the mix exercises both the buckets and the
        // overflow heap, ties included.
        let mut q: EventQueue<u32> = EventQueue::with_horizon(SimDuration::from_ticks(3));
        for (i, at) in [5u64, 1, 9, 1, 3, 40, 9, 2].into_iter().enumerate() {
            q.schedule(
                t(at),
                EventKind::Deliver {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                    msg: i as u32,
                },
            );
        }
        while let Some((at, kind)) = q.peek() {
            let seen = (at, kind.clone());
            assert!(q.pop_if(|_, _| false).is_none(), "refused, not popped");
            let ev = q
                .pop_if(|t, k| (t, k) == (seen.0, &seen.1))
                .expect("peeked");
            assert_eq!(seen, (ev.at, ev.kind));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(
            t(5),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        q.schedule(
            t(1),
            EventKind::Arrival {
                node: NodeId::new(1),
            },
        );
        q.schedule(
            t(3),
            EventKind::Arrival {
                node: NodeId::new(2),
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..8u32 {
            q.schedule(
                t(7),
                EventKind::Arrival {
                    node: NodeId::new(i),
                },
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival { node } => node.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(
            t(4),
            EventKind::CsExit {
                node: NodeId::new(0),
                epoch: 0,
            },
        );
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(t(4)));
        q.pop();
        assert_eq!(q.now(), t(4));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_scheduling() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(
            t(10),
            EventKind::CsExit {
                node: NodeId::new(0),
                epoch: 0,
            },
        );
        q.pop();
        q.schedule(
            t(3),
            EventKind::CsExit {
                node: NodeId::new(0),
                epoch: 0,
            },
        );
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(
            t(2),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        q.pop();
        // Zero-delay local events at the current instant are legal.
        q.schedule(
            q.now() + SimDuration::ZERO,
            EventKind::Arrival {
                node: NodeId::new(1),
            },
        );
        assert_eq!(q.pop().unwrap().at, t(2));
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_stay_ordered() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        // Way beyond any horizon: timers / fault-plan style events.
        q.schedule(
            t(10_000),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 1,
            },
        );
        q.schedule(
            t(500),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 2,
            },
        );
        q.schedule(
            t(2),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![2, 500, 10_000]);
    }

    #[test]
    fn ties_across_ring_and_overflow_respect_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        // seq 0 lands in the overflow heap (beyond horizon at schedule time).
        q.schedule(
            t(100),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 0,
            },
        );
        // Drain the clock close to t=100 so a bucket event can tie with it.
        q.schedule(
            t(99),
            EventKind::Arrival {
                node: NodeId::new(9),
            },
        );
        assert_eq!(q.pop().unwrap().at, t(99));
        // seq 2 at the same tick, but in the ring: must fire AFTER seq 0.
        q.schedule(
            t(100),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 2,
            },
        );
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![0, 2]);
    }

    #[test]
    fn ring_wraps_across_many_horizons() {
        // Chain events far past the ring length; each pop schedules the
        // next, exercising bucket reuse across hundreds of wraps.
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(8));
        q.schedule(
            t(3),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        let mut fired = Vec::new();
        while let Some(e) = q.pop() {
            fired.push(e.at.ticks());
            if fired.len() < 300 {
                q.schedule(
                    e.at + SimDuration::from_ticks(7),
                    EventKind::Arrival {
                        node: NodeId::new(0),
                    },
                );
            }
        }
        assert_eq!(fired.len(), 300);
        assert!(fired.windows(2).all(|w| w[1] == w[0] + 7));
    }

    #[test]
    fn overflow_pops_interleaved_with_pending_ring_event() {
        // Overflow events firing *before* a pending ring event exercise
        // the scan-cursor path (the ring scan result outlives the
        // overflow pops). Order must stay exact throughout.
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(7));
        q.schedule(
            t(50),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 0,
            },
        ); // overflow
        q.schedule(
            t(60),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 1,
            },
        ); // overflow
           // Walk the clock to t=45 with a chain of near-future arrivals.
        q.schedule(
            t(5),
            EventKind::Arrival {
                node: NodeId::new(1),
            },
        );
        while q.now().ticks() < 45 {
            let e = q.pop().unwrap();
            assert!(matches!(e.kind, EventKind::Arrival { .. }));
            if e.at.ticks() < 45 {
                q.schedule(
                    e.at + SimDuration::from_ticks(5),
                    EventKind::Arrival {
                        node: NodeId::new(1),
                    },
                );
            }
        }
        // Pending now: overflow {50, 60} around a ring event at 52.
        q.schedule(
            t(52),
            EventKind::Arrival {
                node: NodeId::new(2),
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![50, 52, 60]);
    }

    #[test]
    fn ring_overflow_boundary_is_exactly_ring_capacity() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        // want = 4 + 1 = 5, rounded up to the next power of two.
        let cap = q.ring_capacity();
        assert_eq!(cap, 8);
        let node = NodeId::new(0);
        // Delay cap-1 is the last ring tick; delay cap is the first
        // overflow tick. The requested horizon itself (4) is well inside.
        q.schedule(t(4), EventKind::Arrival { node });
        q.schedule(t(cap - 1), EventKind::Arrival { node });
        q.schedule(t(cap), EventKind::Arrival { node });
        q.schedule(t(cap + 1), EventKind::Arrival { node });
        assert_eq!((q.ring_len(), q.overflow_len()), (2, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![4, cap - 1, cap, cap + 1]);
    }

    #[test]
    fn boundary_tracks_the_moving_clock() {
        // The ring window is relative to `now`, not to t=0: after the
        // clock advances, the same absolute tick can switch paths.
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        let cap = q.ring_capacity();
        let node = NodeId::new(0);
        q.schedule(t(cap + 2), EventKind::Arrival { node }); // overflow at now=0
        assert_eq!(q.overflow_len(), 1);
        q.schedule(t(3), EventKind::Arrival { node });
        q.pop(); // now = 3; cap+2 is now within the window
        q.schedule(t(cap + 2), EventKind::Arrival { node }); // ring this time
        assert_eq!((q.ring_len(), q.overflow_len()), (1, 1));
        // Both copies fire at the same tick; the overflow one was
        // scheduled first and must keep its insertion-order priority.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![cap + 2, cap + 2]);
    }

    #[test]
    fn ring_capacity_multiples_do_not_alias() {
        // Ticks congruent modulo the ring length share a bucket slot;
        // events exactly one or two whole ring lengths ahead must not be
        // mistaken for the near event occupying the same slot.
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        let cap = q.ring_capacity();
        let node = NodeId::new(0);
        q.schedule(t(5), EventKind::Arrival { node });
        q.schedule(t(5 + cap), EventKind::Arrival { node });
        q.schedule(t(5 + 2 * cap), EventKind::Arrival { node });
        assert_eq!((q.ring_len(), q.overflow_len()), (1, 2));
        let mut fired = Vec::new();
        while let Some(e) = q.pop() {
            fired.push(e.at.ticks());
        }
        assert_eq!(fired, vec![5, 5 + cap, 5 + 2 * cap]);
    }

    #[test]
    fn zero_horizon_still_works() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::ZERO);
        q.schedule(
            t(0),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        q.schedule(
            t(5),
            EventKind::Arrival {
                node: NodeId::new(1),
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![0, 5]);
    }

    #[test]
    fn peek_time_sees_both_structures() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(SimDuration::from_ticks(4));
        q.schedule(
            t(1_000),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: 0,
            },
        );
        assert_eq!(q.peek_time(), Some(t(1_000)));
        q.schedule(
            t(2),
            EventKind::Arrival {
                node: NodeId::new(0),
            },
        );
        assert_eq!(q.peek_time(), Some(t(2)));
    }
}
