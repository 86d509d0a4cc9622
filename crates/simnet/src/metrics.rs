//! Per-run metric collection: the paper's three performance measures.
//!
//! * **NME** — number of messages exchanged per CS execution (§6: "message
//!   complexity"), with a per-message-class breakdown (RM/EM/IM, REQUEST/
//!   REPLY, …).
//! * **RT** — response time: from the instant a request is issued until the
//!   requester *enters* the CS. (The paper's prose definition — "until its CS
//!   execution is over" — is inconsistent with its own light-load formula
//!   `([N/2]+2)·Tn`, which excludes `Tc`; we use the entry-time reading and
//!   record exit times too so either can be reported.)
//! * **Synchronization delay** (§6.1.2) — the gap between one CS exit and
//!   the next CS entry, whoever the two nodes are ([`SimMetrics::sync_gaps`]).
//!
//! Whether mutual exclusion held is not a metric: the
//! [`crate::SafetyMonitor`] checks it.

use std::collections::BTreeMap;

use crate::ids::NodeId;
use crate::stats::Summary;
use crate::time::{SimDuration, SimTime};

/// Lifecycle of one CS request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// The requesting node.
    pub node: NodeId,
    /// When the request was issued (RM initialized).
    pub issued: SimTime,
    /// When the requester entered the CS.
    pub entered: Option<SimTime>,
    /// When the requester left the CS.
    pub exited: Option<SimTime>,
}

impl RequestRecord {
    /// Response time (issue → entry), if the request completed its wait.
    ///
    /// Saturating: a hand-built (or deserialized) record whose `entered`
    /// precedes `issued` reports zero rather than panicking — metric
    /// accessors must stay total even on partial or malformed lifecycles.
    pub fn response_time(&self) -> Option<SimDuration> {
        self.entered.map(|e| e.saturating_since(self.issued))
    }

    /// Total turnaround (issue → exit). Saturating, like
    /// [`RequestRecord::response_time`].
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.exited.map(|e| e.saturating_since(self.issued))
    }
}

/// Aggregated counters for one simulation run.
#[derive(Debug, Default)]
pub struct SimMetrics {
    /// Completed + in-flight request lifecycles.
    records: Vec<RequestRecord>,
    /// Open request per node → index into `records`.
    open: BTreeMap<NodeId, usize>,
    /// Total messages handed to the network.
    messages_sent: u64,
    /// Message counts by protocol-defined class label. A protocol has a
    /// handful of classes at most, so a linear probe beats a tree on the
    /// per-message path.
    by_class: Vec<(&'static str, u64)>,
    /// Total approximate wire bytes.
    wire_bytes: u64,
    /// Deliveries dropped by fault injection (crashed receiver).
    messages_dropped: u64,
    /// Messages lost in the network by fault injection (never delivered).
    messages_lost: u64,
    /// Nodes that went down (crash-stop instants and crash-window starts).
    crashes: u64,
    /// Nodes that came back at the end of a crash window.
    restarts: u64,
    /// Requests abandoned because their node crashed while they were
    /// outstanding.
    requests_aborted: u64,
    /// Interrupted requests re-adopted by their node after a restart.
    requests_resumed: u64,
    /// The last CS exit, until the next entry turns it into a gap.
    last_exit: Option<SimTime>,
    /// Gap between each CS exit and the immediately following CS entry.
    sync_gaps: Vec<SimDuration>,
}

impl SimMetrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A request was issued by `node` at `now`.
    ///
    /// Panics if the node already has an outstanding request — the system
    /// model (§3) forbids that, and the workload layer enforces it.
    pub fn request_issued(&mut self, node: NodeId, now: SimTime) {
        let prev = self.open.insert(node, {
            self.records.push(RequestRecord {
                node,
                issued: now,
                entered: None,
                exited: None,
            });
            self.records.len() - 1
        });
        assert!(
            prev.is_none(),
            "{node:?} issued a second outstanding request"
        );
    }

    /// `node` entered the CS at `now`.
    pub fn cs_entered(&mut self, node: NodeId, now: SimTime) {
        if let Some(exit) = self.last_exit.take() {
            self.sync_gaps.push(now.saturating_since(exit));
        }
        if let Some(&idx) = self.open.get(&node) {
            let rec = &mut self.records[idx];
            assert!(
                rec.entered.is_none(),
                "{node:?} entered the CS twice for one request"
            );
            rec.entered = Some(now);
        }
    }

    /// `node` exited the CS at `now`; its request is now complete. A hold
    /// that ends in a crash reports no exit, so it starts no gap: the wait
    /// to the next entry would measure recovery, not a hand-off.
    pub fn cs_exited(&mut self, node: NodeId, now: SimTime) {
        self.last_exit = Some(now);
        if let Some(idx) = self.open.remove(&node) {
            self.records[idx].exited = Some(now);
        }
    }

    /// One message of class `kind` and approximate size `bytes` was sent.
    pub fn message_sent(&mut self, kind: &'static str, bytes: usize) {
        self.messages_sent += 1;
        match self.by_class.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => self.by_class.push((kind, 1)),
        }
        self.wire_bytes += bytes as u64;
    }

    /// A delivery was dropped because the receiver had crashed.
    pub fn message_dropped(&mut self) {
        self.messages_dropped += 1;
    }

    /// Deliveries dropped by fault injection.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// A sent message was lost in the network by fault injection.
    pub fn message_lost(&mut self) {
        self.messages_lost += 1;
    }

    /// Messages lost in the network by fault injection.
    pub fn messages_lost(&self) -> u64 {
        self.messages_lost
    }

    /// A node went down.
    pub fn node_crashed(&mut self) {
        self.crashes += 1;
    }

    /// A node restarted at the end of its crash window.
    pub fn node_restarted(&mut self) {
        self.restarts += 1;
    }

    /// Nodes that went down.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Nodes that restarted.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// `node` crashed with a request outstanding: the request is abandoned.
    /// Its record stays (for post-mortem inspection) but no longer counts
    /// as outstanding, so a run where every *live* request completed is not
    /// reported as deadlocked. Returns whether a request was actually open.
    pub fn request_aborted(&mut self, node: NodeId) -> bool {
        let aborted = self.open.remove(&node).is_some();
        self.requests_aborted += u64::from(aborted);
        aborted
    }

    /// Requests abandoned by crashes.
    pub fn requests_aborted(&self) -> u64 {
        self.requests_aborted
    }

    /// A restarted node re-adopted the request its crash had interrupted
    /// (write-ahead recovery): a fresh lifecycle opens at `now`, so its
    /// eventual completion is counted and its response time is measured
    /// from the resume instant — the outage is recovery latency, not
    /// protocol wait. The abort recorded at the crash stays counted.
    pub fn request_resumed(&mut self, node: NodeId, now: SimTime) {
        self.requests_resumed += 1;
        self.request_issued(node, now);
    }

    /// Interrupted requests re-adopted by their node after a restart.
    pub fn requests_resumed(&self) -> u64 {
        self.requests_resumed
    }

    /// Whether `node` currently has an outstanding request.
    pub fn has_outstanding(&self, node: NodeId) -> bool {
        self.open.contains_key(&node)
    }

    /// Number of requests that ran to completion (exited the CS).
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.exited.is_some()).count()
    }

    /// Number of requests still waiting or executing.
    pub fn outstanding(&self) -> usize {
        self.open.len()
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total approximate bytes sent.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Message count per class label, sorted by label.
    pub fn messages_by_class(&self) -> BTreeMap<&'static str, u64> {
        self.by_class.iter().copied().collect()
    }

    /// All request records (completed and in-flight).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Raw exit→entry gaps. Under saturation these *are* the paper's
    /// synchronization delay samples; under light load they include idle
    /// time and must be filtered by the caller (see `rcv-workload`).
    pub fn sync_gaps(&self) -> &[SimDuration] {
        &self.sync_gaps
    }

    /// **NME**: mean number of messages exchanged per completed CS
    /// execution. `None` when nothing completed.
    pub fn nme(&self) -> Option<f64> {
        let done = self.completed();
        (done > 0).then(|| self.messages_sent as f64 / done as f64)
    }

    /// Summary of response times over completed waits.
    ///
    /// Total on empty and partial runs: requests that never entered the
    /// CS contribute no sample, and an empty sample set yields the empty
    /// [`Summary`] (`count == 0`) rather than a panic.
    pub fn response_time(&self) -> Summary {
        let samples: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.response_time())
            .map(|d| d.as_f64())
            .collect();
        Summary::of(&samples)
    }

    /// Summary of turnaround times (issue → CS exit) over completed
    /// requests — the paper's alternative prose reading of "response
    /// time" (see the module docs). Total on empty and partial runs,
    /// like [`SimMetrics::response_time`].
    pub fn turnaround(&self) -> Summary {
        let samples: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.turnaround())
            .map(|d| d.as_f64())
            .collect();
        Summary::of(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn lifecycle_and_nme() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.message_sent("RM", 10);
        m.message_sent("RM", 10);
        m.message_sent("EM", 8);
        m.cs_entered(NodeId::new(0), t(15));
        m.cs_exited(NodeId::new(0), t(25));
        assert_eq!(m.completed(), 1);
        assert_eq!(m.messages_sent(), 3);
        assert_eq!(m.nme(), Some(3.0));
        assert_eq!(m.wire_bytes(), 28);
        assert_eq!(m.messages_by_class()["RM"], 2);
        let rt = m.response_time();
        assert_eq!(rt.count, 1);
        assert_eq!(rt.mean, 15.0);
    }

    #[test]
    fn second_request_after_completion_is_fine() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.cs_entered(NodeId::new(0), t(5));
        m.cs_exited(NodeId::new(0), t(10));
        m.request_issued(NodeId::new(0), t(20));
        assert_eq!(m.records().len(), 2);
        assert!(m.has_outstanding(NodeId::new(0)));
    }

    #[test]
    #[should_panic(expected = "second outstanding request")]
    fn double_request_panics() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.request_issued(NodeId::new(0), t(1));
    }

    #[test]
    #[should_panic(expected = "entered the CS twice")]
    fn double_entry_panics() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.cs_entered(NodeId::new(0), t(1));
        m.cs_entered(NodeId::new(0), t(2));
    }

    #[test]
    fn aborted_request_leaves_no_outstanding_trace() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.node_crashed();
        assert!(m.request_aborted(NodeId::new(0)));
        assert_eq!(m.outstanding(), 0, "abandoned request is retired");
        assert_eq!(m.completed(), 0, "but it never completed");
        assert_eq!(m.requests_aborted(), 1);
        assert_eq!(m.crashes(), 1);
        // The node can issue again after its restart.
        m.node_restarted();
        m.request_issued(NodeId::new(0), t(50));
        assert_eq!(m.restarts(), 1);
        assert!(!m.request_aborted(NodeId::new(1)), "nothing open for N1");
    }

    #[test]
    fn resumed_request_opens_a_fresh_lifecycle() {
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.node_crashed();
        assert!(m.request_aborted(NodeId::new(0)));
        m.node_restarted();
        m.request_resumed(NodeId::new(0), t(40));
        assert_eq!(m.requests_resumed(), 1);
        assert!(m.has_outstanding(NodeId::new(0)));
        m.cs_entered(NodeId::new(0), t(45));
        m.cs_exited(NodeId::new(0), t(55));
        assert_eq!(m.completed(), 1);
        // Response time runs from the resume, not the original arrival.
        assert_eq!(m.response_time().mean, 5.0);
        assert_eq!(m.requests_aborted(), 1, "the interruption stays counted");
    }

    fn gaps(m: &SimMetrics) -> Vec<u64> {
        m.sync_gaps().iter().map(|d| d.ticks()).collect()
    }

    #[test]
    fn sync_gaps_measure_exit_to_entry() {
        let mut m = SimMetrics::new();
        m.cs_entered(NodeId::new(0), t(0));
        m.cs_exited(NodeId::new(0), t(10));
        m.cs_entered(NodeId::new(1), t(15)); // gap 5
        m.cs_exited(NodeId::new(1), t(25));
        m.cs_entered(NodeId::new(2), t(30)); // gap 5
        assert_eq!(gaps(&m), vec![5, 5]);
    }

    #[test]
    fn eviction_starts_no_gap() {
        // A holder that crashes reports no exit; the next entry measures
        // crash recovery, not a protocol hand-off, and records nothing.
        let mut m = SimMetrics::new();
        m.cs_entered(NodeId::new(0), t(0));
        m.cs_exited(NodeId::new(0), t(10));
        m.cs_entered(NodeId::new(1), t(12)); // gap 2, then N1 crashes
        m.cs_entered(NodeId::new(2), t(50));
        assert_eq!(gaps(&m), vec![2]);
    }

    #[test]
    fn first_entry_has_no_gap() {
        let mut m = SimMetrics::new();
        m.cs_entered(NodeId::new(0), t(7));
        assert!(m.sync_gaps().is_empty());
    }

    #[test]
    fn nme_none_when_nothing_completed() {
        let mut m = SimMetrics::new();
        m.message_sent("RM", 1);
        assert_eq!(m.nme(), None);
    }

    #[test]
    fn empty_run_is_total() {
        // A run that never issued a request: every accessor answers.
        let m = SimMetrics::new();
        assert_eq!(m.records(), &[]);
        assert_eq!(m.completed(), 0);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.nme(), None);
        assert_eq!(m.response_time().count, 0);
        assert_eq!(m.turnaround().count, 0);
        assert!(m.messages_by_class().is_empty());
    }

    #[test]
    fn partial_run_summaries_skip_incomplete_lifecycles() {
        // Node 0 completes; node 1 entered but never exited (run cut off
        // mid-CS); node 2 is still waiting. No accessor may panic, and
        // each summary counts exactly the lifecycles that reached its
        // stage.
        let mut m = SimMetrics::new();
        m.request_issued(NodeId::new(0), t(0));
        m.cs_entered(NodeId::new(0), t(4));
        m.cs_exited(NodeId::new(0), t(9));
        m.request_issued(NodeId::new(1), t(1));
        m.cs_entered(NodeId::new(1), t(6));
        m.request_issued(NodeId::new(2), t(2));

        assert_eq!(m.completed(), 1);
        assert_eq!(m.outstanding(), 2);
        let rt = m.response_time();
        assert_eq!(rt.count, 2, "both entries produced a response sample");
        assert_eq!(rt.mean, (4.0 + 5.0) / 2.0);
        let ta = m.turnaround();
        assert_eq!(ta.count, 1, "only the completed request has turnaround");
        assert_eq!(ta.mean, 9.0);
        assert_eq!(m.records().len(), 3);
    }

    #[test]
    fn malformed_record_durations_saturate_instead_of_panicking() {
        let r = RequestRecord {
            node: NodeId::new(0),
            issued: t(10),
            entered: Some(t(5)),
            exited: Some(t(7)),
        };
        assert_eq!(r.response_time().unwrap().ticks(), 0);
        assert_eq!(r.turnaround().unwrap().ticks(), 0);
    }

    #[test]
    fn record_durations() {
        let r = RequestRecord {
            node: NodeId::new(3),
            issued: t(10),
            entered: Some(t(30)),
            exited: Some(t(45)),
        };
        assert_eq!(r.response_time().unwrap().ticks(), 20);
        assert_eq!(r.turnaround().unwrap().ticks(), 35);
    }
}
