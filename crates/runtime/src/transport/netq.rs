//! The fault-injecting delay queue shared by both fabrics.
//!
//! The thread tier's node threads and the multi-process orchestrator hub
//! schedule deliveries through the same [`FaultQueue`], which asks the
//! simulator's own [`FaultPlan`] what to do with each message, so loss,
//! duplication, straggler stretching and crash-window black-holing behave
//! identically whether a message crosses threads, a socket or the
//! simulated network.
//!
//! The queue keeps one heap per receiver, each in `(due, seq)` order
//! (`seq` is global), and is popped one receiver at a time
//! ([`FaultQueue::pop_due`]): on the thread tier each receiver pops its
//! own, and the socket hub pops every receiver's in turn. Each receiver's
//! `(due, seq)` order is all a node can observe. The payload type is
//! generic: the thread tier queues typed protocol messages, the hub
//! queues already-encoded frames.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rcv_simnet::{FaultPlan, NodeId, SimTime};

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
/// popped, over every delivery popped (crash-window black-holes are not
/// deliveries). Popped by the socket hub, it is the hub's own wake-up
/// precision. Popped by a thread-tier receiver, it also holds the time
/// that receiver was busy (handling, or in its CS) when the delivery fell
/// due, so the two tiers' figures are not comparable.
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
    /// Tick 0 of the plan's clock: a delivery due at `start + k·tick`
    /// (rounded down to whole ticks) meets its receiver at tick `k`.
    start: Instant,
    tick: Duration,
    /// Messages submitted so far (the fault periods key off this).
    seen: u64,
    seq: u64,
    /// Messages dropped by loss injection.
    pub(crate) lost: u64,
    /// Extra copies queued by duplication injection.
    pub(crate) duplicated: u64,
    /// Deliveries black-holed by a crash window.
    pub(crate) crash_dropped: u64,
    /// How late the pops returned what they returned.
    pub(crate) late: Lateness,
}

impl<T: Clone> FaultQueue<T> {
    /// A queue for `n` receivers running `plan` (which must pass
    /// [`crate::serves`]) on a clock whose tick 0 is `start` and whose
    /// ticks last `tick`.
    pub(crate) fn new(plan: &FaultPlan, start: Instant, tick: Duration, n: usize) -> Self {
        FaultQueue {
            heaps: (0..n).map(|_| BinaryHeap::new()).collect(),
            plan: plan.clone(),
            start,
            tick,
            seen: 0,
            seq: 0,
            lost: 0,
            duplicated: 0,
            crash_dropped: 0,
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

    /// Pops `to`'s next due delivery as `(from, payload)`, black-holing
    /// any that falls due while `to` is crashed, and records how far past
    /// its due time `now` is. `None` when nothing to `to` is due at `now`.
    pub(crate) fn pop_due(&mut self, to: usize, now: Instant) -> Option<(usize, T)> {
        let heap = &mut self.heaps[to];
        while heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            let Reverse(p) = heap.pop().expect("peeked");
            if !self.plan.restarts.is_empty() {
                let elapsed = p.due.saturating_duration_since(self.start).as_nanos();
                let tick = elapsed / self.tick.as_nanos().max(1);
                let at = SimTime::from_ticks(u64::try_from(tick).unwrap_or(u64::MAX));
                if self.plan.is_crashed(NodeId::new(to as u32), at) {
                    self.crash_dropped += 1;
                    continue;
                }
            }
            self.late.record(now - p.due);
            return Some((p.from, p.payload));
        }
        None
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

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn loss_and_duplication_fire_on_their_periods() {
        let plan = FaultPlan::losing(3).with_duplication(2);
        let mut q: FaultQueue<u32> = FaultQueue::new(&plan, Instant::now(), MS, 2);
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
    fn crash_window_blackholes_only_the_dead_node() {
        let plan = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(0),
            SimTime::from_ticks(60_000),
        );
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&plan, Instant::now(), MS, 3);
        q.submit(0, 1, Duration::ZERO, "to-dead", Instant::now());
        q.submit(0, 2, Duration::ZERO, "to-live", Instant::now());
        let later = Instant::now() + MS;
        let mut delivered = Vec::new();
        for to in 0..3 {
            while let Some((_, p)) = q.pop_due(to, later) {
                delivered.push((to, p));
            }
        }
        assert_eq!(delivered, vec![(2, "to-live")]);
        assert_eq!(q.crash_dropped, 1);
    }

    #[test]
    fn crash_window_is_half_open_on_the_tick_clock() {
        // Down at tick 2, up at tick 5: due exactly at `start + 2·tick` is
        // dead, due exactly at `start + 5·tick` is back.
        let plan = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(2),
            SimTime::from_ticks(5),
        );
        let start = Instant::now() - Duration::from_secs(1);
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&plan, start, MS, 2);
        let ns = Duration::from_nanos(1);
        q.schedule(start + MS * 2 - ns, 0, 1, "before");
        q.schedule(start + MS * 2, 0, 1, "at-down");
        q.schedule(start + MS * 5 - ns, 0, 1, "last-dead");
        q.schedule(start + MS * 5, 0, 1, "at-up");
        let mut delivered = Vec::new();
        while let Some((_, p)) = q.pop_due(1, Instant::now()) {
            delivered.push(p);
        }
        assert_eq!(delivered, vec!["before", "at-up"]);
        assert_eq!(q.crash_dropped, 2);
    }

    #[test]
    fn straggler_stretches_due_times() {
        let plan = FaultPlan::straggler(NodeId::new(0), 100);
        let mut q: FaultQueue<u8> = FaultQueue::new(&plan, Instant::now(), MS, 3);
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
        let plan = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(0),
            SimTime::from_ticks(60_000),
        );
        let start = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&plan, start, MS, 3);
        let us = Duration::from_micros;
        q.schedule(start + us(100), 0, 2, "a");
        q.schedule(start + us(105), 0, 2, "b");
        q.schedule(start + us(100), 0, 1, "to-dead");
        assert_eq!(q.pop_due(2, start + us(107)), Some((0, "a")));
        assert_eq!(q.late.count, 1);
        assert_eq!((q.late.total, q.late.max), (us(7), us(7)));
        // The black-holed delivery is skipped, not measured.
        assert_eq!(q.pop_due(1, start + us(107)), None);
        assert_eq!(q.crash_dropped, 1);
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
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&FaultPlan::none(), start, MS, 3);
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
    fn black_holes_and_lateness_stay_with_their_receiver() {
        let plan = FaultPlan::crash_restart(
            NodeId::new(1),
            SimTime::from_ticks(0),
            SimTime::from_ticks(60_000),
        );
        let start = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(&plan, start, MS, 3);
        let us = Duration::from_micros;
        q.submit(0, 1, us(100), "to-dead", start);
        q.submit(0, 2, us(100), "to-live", start);
        q.submit(1, 2, us(200), "from-dead", start);
        // The dead receiver's pop black-holes its delivery; the live
        // one's heap and lateness are untouched by it.
        assert_eq!(q.pop_due(1, start + us(150)), None);
        assert_eq!((q.crash_dropped, q.late.count), (1, 0));
        assert_eq!(q.pop_due(2, start + us(103)), Some((0, "to-live")));
        assert_eq!(q.pop_due(2, start + us(207)), Some((1, "from-dead")));
        assert_eq!(
            q.late,
            Lateness {
                count: 2,
                total: us(10),
                max: us(7),
            }
        );
        assert_eq!(q.crash_dropped, 1);
    }
}
