//! The fault-injecting delay queue shared by both fabrics.
//!
//! The thread tier's node threads and the multi-process orchestrator hub
//! schedule deliveries through the same [`FaultQueue`], which asks the
//! simulator's own [`FaultPlan`] what to do with each message, so loss,
//! duplication and straggler stretching behave identically whether a
//! message crosses threads, a socket or the simulated network. The queue
//! only delays: a delivery to a node inside its crash window is handed
//! out like any other, and the node's driver discards it
//! (`NodeDriver::serve_crash_window`), as the simulator discards a
//! delivery that finds its node down.
//!
//! The queue keeps one heap per receiver, each in `(due, seq)` order
//! (`seq` is global), and is popped one receiver at a time
//! ([`FaultQueue::pop_due`]): on the thread tier each receiver pops its
//! own, and the socket hub pops every receiver's in turn. Each receiver's
//! `(due, seq)` order is all a node can observe. The payload type is
//! generic: the thread tier queues typed protocol messages, the hub
//! queues already-encoded frames.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rcv_simnet::{FaultPlan, NodeId};

/// Heap entry ordered by due time then insertion sequence.
struct Pending<T> {
    due: Instant,
    seq: u64,
    from: usize,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// How late deliveries left the queue: `now − due` at the moment each was
/// popped, over every delivery popped. Popped by the socket hub, it is the
/// hub's own wake-up precision. Popped by a thread-tier receiver, it also
/// holds the time that receiver was busy (handling, or in its CS) when the
/// delivery fell due, so the two tiers' figures are not comparable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Deliveries measured.
    pub count: u64,
    /// Their lateness, summed.
    pub total: Duration,
    /// The latest one.
    pub max: Duration,
}

impl Lateness {
    /// Mean lateness per delivery (zero when none was measured).
    pub fn mean(&self) -> Duration {
        let nanos = self.total.as_nanos() / u128::from(self.count.max(1));
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    fn record(&mut self, late: Duration) {
        self.count += 1;
        self.total += late;
        self.max = self.max.max(late);
    }
}

/// Delay heaps + fault-plan application, fabric-agnostic.
pub(crate) struct FaultQueue<T> {
    /// One heap per receiver.
    heaps: Vec<BinaryHeap<Reverse<Pending<T>>>>,
    plan: FaultPlan,
    /// Messages submitted so far (the fault periods key off this).
    seen: u64,
    seq: u64,
    /// Messages dropped by loss injection.
    pub(crate) lost: u64,
    /// Extra copies queued by duplication injection.
    pub(crate) duplicated: u64,
    /// How late the pops returned what they returned.
    pub(crate) late: Lateness,
}

impl<T: Clone> FaultQueue<T> {
    /// A queue for `n` receivers running `plan` (which must pass
    /// [`crate::serves`]).
    pub(crate) fn new(plan: &FaultPlan, n: usize) -> Self {
        FaultQueue {
            heaps: (0..n).map(|_| BinaryHeap::new()).collect(),
            plan: plan.clone(),
            seen: 0,
            seq: 0,
            lost: 0,
            duplicated: 0,
            late: Lateness::default(),
        }
    }

    /// Submits one message, sent at `sent`, to the fabric: applies
    /// straggler stretching, then loss, then duplication (in that order),
    /// and schedules the surviving deliveries `delay` after `sent`. A copy
    /// arrives after twice the delay.
    pub(crate) fn submit(
        &mut self,
        from: usize,
        to: usize,
        mut delay: Duration,
        payload: T,
        sent: Instant,
    ) {
        self.seen += 1;
        let factor = self
            .plan
            .delay_factor(NodeId::new(from as u32), NodeId::new(to as u32));
        if factor > 1 {
            delay *= u32::try_from(factor).expect("serves() bounds straggler factors");
        }
        if self.plan.drops(self.seen) {
            self.lost += 1;
            return;
        }
        if self.plan.duplicates(self.seen) {
            self.duplicated += 1;
            self.schedule(sent + delay + delay, from, to, payload.clone());
        }
        self.schedule(sent + delay, from, to, payload);
    }

    /// Queues one delivery, due at `due`.
    fn schedule(&mut self, due: Instant, from: usize, to: usize, payload: T) {
        self.seq += 1;
        let seq = self.seq;
        self.heaps[to].push(Reverse(Pending {
            due,
            seq,
            from,
            payload,
        }));
    }

    /// Pops `to`'s next due delivery as `(from, payload)` and records how
    /// far past its due time `now` is. `None` when nothing to `to` is due
    /// at `now`.
    pub(crate) fn pop_due(&mut self, to: usize, now: Instant) -> Option<(usize, T)> {
        let due = self.heaps[to].peek_mut().filter(|next| next.0.due <= now)?;
        let Reverse(p) = PeekMut::pop(due);
        self.late.record(now - p.due);
        Some((p.from, p.payload))
    }

    /// When the earliest queued delivery to `to` is due.
    pub(crate) fn next_due(&self, to: usize) -> Option<Instant> {
        self.heaps[to].peek().map(|Reverse(p)| p.due)
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_simnet::SimTime;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn loss_and_duplication_fire_on_their_periods() {
        let plan = FaultPlan::losing(3).with_duplication(2);
        let mut q: FaultQueue<u32> = FaultQueue::new(&plan, 2);
        for i in 0..6u32 {
            q.submit(0, 1, Duration::ZERO, i, Instant::now());
        }
        // seen 1..6: loss at 3 and 6 (2 lost); dup at 2 and 4 (6 is lost
        // before the dup check).
        assert_eq!(q.lost, 2);
        assert_eq!(q.duplicated, 2);
        assert_eq!(q.in_flight(), 6, "4 survivors + 2 duplicates");
        assert_eq!(q.seen, 6);
    }

    #[test]
    fn straggler_stretches_due_times() {
        let plan = FaultPlan::straggler(NodeId::new(0), 100);
        let mut q: FaultQueue<u8> = FaultQueue::new(&plan, 3);
        let now = Instant::now();
        q.submit(0, 1, Duration::from_millis(10), 1, now); // from the straggler: 1s
        q.submit(1, 2, Duration::from_millis(10), 2, now); // unaffected: 10ms
        let soon = Instant::now() + Duration::from_millis(500);
        let mut got = Vec::new();
        for to in 0..3 {
            while let Some((_, p)) = q.pop_due(to, soon) {
                got.push(p);
            }
        }
        assert_eq!(got, vec![2], "only the unstretched message is due");
        assert_eq!(q.next_due(1), Some(now + Duration::from_secs(1)));
        assert_eq!(q.next_due(2), None);
        assert_eq!(q.in_flight(), 1);
    }

    #[test]
    fn pop_due_records_how_late_each_delivery_left() {
        let start = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&FaultPlan::none(), 3);
        let us = Duration::from_micros;
        q.schedule(start + us(100), 0, 2, "a");
        q.schedule(start + us(105), 0, 2, "b");
        assert_eq!(q.pop_due(2, start + us(99)), None, "not due yet");
        assert_eq!(q.pop_due(2, start + us(107)), Some((0, "a")));
        assert_eq!(q.late.count, 1);
        assert_eq!((q.late.total, q.late.max), (us(7), us(7)));
        assert_eq!(q.pop_due(2, start + us(107)), Some((0, "b")));
        assert_eq!(q.pop_due(2, start + us(107)), None);
        assert_eq!(
            q.late,
            Lateness {
                count: 2,
                total: us(9),
                max: us(7),
            }
        );
        assert_eq!(q.late.mean(), Duration::from_nanos(4_500));
        assert_eq!(Lateness::default().mean(), Duration::ZERO);
    }

    #[test]
    fn each_receiver_pops_its_own_deliveries_in_due_then_seq_order() {
        let start = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&FaultPlan::none(), 3);
        // Scheduled out of order, two with equal due times, to receivers
        // 1 and 2.
        let us = Duration::from_micros;
        q.schedule(start + us(30), 0, 1, "1@30");
        q.schedule(start + us(10), 0, 2, "2@10");
        q.schedule(start + us(20), 0, 1, "1@20a");
        q.schedule(start + us(20), 2, 1, "1@20b");
        q.schedule(start + us(20), 0, 2, "2@20");
        q.schedule(start + us(5), 1, 2, "2@5");
        assert_eq!(q.next_due(0), None);
        assert_eq!(q.next_due(1), Some(start + us(20)));
        assert_eq!(q.next_due(2), Some(start + us(5)));
        // Only what is due at `now`, and only the asker's.
        assert_eq!(q.pop_due(1, start + us(19)), None);
        let drain = |q: &mut FaultQueue<&'static str>, to| {
            let mut got = Vec::new();
            while let Some((from, p)) = q.pop_due(to, start + MS) {
                got.push((from, p));
            }
            got
        };
        assert_eq!(drain(&mut q, 1), [(0, "1@20a"), (2, "1@20b"), (0, "1@30")]);
        assert_eq!(q.in_flight(), 3);
        assert_eq!(drain(&mut q, 2), [(1, "2@5"), (0, "2@10"), (0, "2@20")]);
        assert_eq!((q.in_flight(), q.late.count), (0, 6));
    }

    #[test]
    fn crash_window_blackholes_only_the_dead_node() {
        // Node 1 is down for the whole run. The queue's part of the black
        // hole is to hand the dead node's deliveries to the dead node
        // alone, as it would with no window (its driver discards them);
        // the live nodes' traffic and the fault counters are untouched.
        let crash = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(0),
            SimTime::from_ticks(60_000),
        );
        let start = Instant::now();
        let run = |plan: &FaultPlan| {
            let mut q: FaultQueue<&'static str> = FaultQueue::new(plan, 3);
            q.submit(0, 1, Duration::ZERO, "to-dead", start);
            q.submit(0, 2, Duration::ZERO, "to-live", start);
            q.submit(1, 0, Duration::ZERO, "from-dead", start);
            let mut delivered = Vec::new();
            for to in 0..3 {
                while let Some((_, p)) = q.pop_due(to, start + MS) {
                    delivered.push((to, p));
                }
            }
            (delivered, q.lost, q.duplicated, q.late.count, q.in_flight())
        };
        let got = run(&crash);
        assert_eq!(
            got.0,
            [(0, "from-dead"), (1, "to-dead"), (2, "to-live")],
            "each delivery reaches its own receiver only"
        );
        assert_eq!(got, run(&FaultPlan::none()));
    }

    #[test]
    fn black_holes_and_lateness_stay_with_their_receiver() {
        // Node 1 is down for the whole run. The queue only delays: the
        // node's driver, not the queue, discards what reaches it, so the
        // dead receiver's delivery is handed out and measured as its own.
        let plan = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(0),
            SimTime::from_ticks(60_000),
        );
        let start = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&plan, 3);
        let us = Duration::from_micros;
        q.submit(0, 1, us(100), "to-dead", start);
        q.submit(0, 2, us(100), "to-live", start);
        q.submit(1, 2, us(200), "from-dead", start);
        assert_eq!(q.pop_due(1, start + us(150)), Some((0, "to-dead")));
        assert_eq!((q.late.count, q.late.max), (1, us(50)));
        // Each receiver's pops are measured against its own due times.
        assert_eq!(q.pop_due(2, start + us(103)), Some((0, "to-live")));
        assert_eq!(q.pop_due(2, start + us(207)), Some((1, "from-dead")));
        assert_eq!(
            q.late,
            Lateness {
                count: 3,
                total: us(60),
                max: us(50),
            }
        );
        assert_eq!((q.lost, q.in_flight()), (0, 0));
    }
}
