//! RCV end to end on the thread tier: safety, liveness and anomaly
//! freedom under each fault class the real tiers inject. Test-only; the
//! cluster is [`crate::run_cluster_collecting`], for RCV as for every
//! baseline.

mod tests {
    use std::time::Duration;

    use rcv_core::{RcvConfig, RcvNode};
    use rcv_simnet::{FaultPlan, NodeId, RetryPolicy, SimTime};

    use crate::cluster::{run_cluster_collecting, ClusterReport, ClusterSpec, NetDelay};
    use crate::wire::verifying_hook;

    /// Runs an RCV cluster per `spec`, with `anomalies` summed over the
    /// nodes' counters as `rcv_workload::Algo::run_threaded` sums them.
    fn run_rcv(spec: ClusterSpec<rcv_core::RcvMessage>, config: RcvConfig) -> ClusterReport {
        let restartable = spec.restartable();
        let (mut report, nodes) =
            run_cluster_collecting(spec, |id, n| RcvNode::with_config(id, n, config));
        report.anomalies = nodes
            .iter()
            .map(|n| n.stats().anomalies_under(restartable))
            .sum();
        report
    }

    /// Node 0 is down during ticks `[down, up)`.
    fn window(down: u64, up: u64) -> FaultPlan {
        FaultPlan::crash_restart(
            NodeId::new(0),
            SimTime::from_ticks(down),
            SimTime::from_ticks(up),
        )
    }

    #[test]
    fn rcv_threads_one_round_is_safe() {
        let spec = ClusterSpec::quick(4, 1);
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(4), "{r:?}");
        assert_eq!(r.cs_entries, 4);
    }

    #[test]
    fn rcv_threads_multi_round_contention() {
        let spec = ClusterSpec::quick(5, 2)
            .rounds(3)
            .think(Duration::from_micros(200));
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(15), "{r:?}");
    }

    #[test]
    fn rcv_threads_with_codec_on_the_wire() {
        let spec = ClusterSpec::quick(4, 3).wire_hook(verifying_hook());
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(4), "{r:?}");
        assert!(r.messages > 0);
    }

    #[test]
    fn rcv_threads_without_injected_delay() {
        let spec = ClusterSpec::quick(6, 4).delay(NetDelay::None);
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(6), "{r:?}");
    }

    #[test]
    fn single_node_cluster() {
        let spec = ClusterSpec::quick(1, 5).rounds(3);
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(3), "{r:?}");
        assert_eq!(r.messages, 0, "one node never needs the network");
    }

    #[test]
    fn rcv_threads_report_zero_anomalies() {
        let spec = ClusterSpec::quick(5, 6)
            .rounds(2)
            .wire_hook(verifying_hook());
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(10), "{r:?}");
        assert_eq!(r.anomalies, 0, "RCV internal anomaly counters fired");
    }

    #[test]
    fn rcv_threads_survive_duplication() {
        // Every message delivered twice: RCV's stale-EM / duplicate-IM
        // guards must absorb it — safe AND live.
        let spec = ClusterSpec::quick(5, 7)
            .rounds(2)
            .faults(FaultPlan::duplicating(1))
            .wire_hook(verifying_hook());
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(10), "{r:?}");
        assert!(r.duplicated > 0, "duplication regime must actually fire");
    }

    #[test]
    fn bodies_sized_for_another_system_surface_as_anomalies() {
        // A tampering hook swaps every message for one whose body has
        // three rows; the two nodes must drop them unread (not index past
        // their own two), so nobody is ever granted the CS and the report
        // says why.
        let foreign = rcv_core::MsgBody::snapshot(&rcv_core::Nonl::new(), &rcv_core::Nsit::new(3));
        let spec = ClusterSpec::quick(2, 11)
            .timeout(Duration::from_millis(300))
            .wire_hook(std::sync::Arc::new(move |_| rcv_core::RcvMessage::Rv {
                body: foreign.clone(),
            }));
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(
            r.timed_out && r.completed == 0 && r.violations == 0,
            "{r:?}"
        );
        assert_eq!(r.anomalies, r.messages, "{r:?}");
        assert!(r.anomalies > 0, "{r:?}");
    }

    #[test]
    fn crashed_holder_is_evicted_and_resumes_after_restart() {
        // A single node enters the CS at ~0ms and would hold it for 20ms;
        // the crash window (10ms..30ms at a 1ms tick) kills it mid-hold.
        // The aborted hold is an eviction, not a violation or a completion;
        // `on_restart` resumes the interrupted request (write-ahead
        // recovery), so the round still completes — on the second entry.
        let spec = ClusterSpec::quick(1, 9)
            .tick(Duration::from_millis(1))
            .cs_duration(Duration::from_millis(20))
            .faults(window(10, 30));
        let r = run_rcv(spec, RcvConfig::paper());
        assert!(r.is_clean(1), "{r:?}");
        assert_eq!(r.restarts, 1, "the crash window must actually fire");
        assert_eq!(
            r.cs_entries, 2,
            "one aborted (evicted) hold plus the resumed, completed one"
        );
    }

    #[test]
    fn rcv_threads_recover_from_crash_restart_with_retransmission() {
        // The chaos-restart-holder regime at unit-test scale: node 0 dies
        // inside the opening burst (window 25..120 ticks at a 200µs tick),
        // it discards what reaches it while down, and backoff-driven
        // retransmission must restore full liveness after the restart.
        let spec = ClusterSpec::quick(8, 10)
            .tick(Duration::from_micros(200))
            .cs_duration(Duration::from_millis(2))
            .think(Duration::ZERO)
            .delay(NetDelay::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(1),
            })
            .faults(window(25, 120))
            .timeout(Duration::from_secs(60));
        let config = RcvConfig {
            retry: Some(RetryPolicy::backoff(400, 3_200)),
            ..RcvConfig::paper()
        };
        let r = run_rcv(spec, config);
        assert!(r.is_clean(8), "{r:?}");
        assert_eq!(r.anomalies, 0, "Lemma 6 must hold across the restart");
        assert_eq!(r.restarts, 1, "the crash window must actually fire");
        assert!(
            r.crash_dropped > 0,
            "the burst must land deliveries inside the outage: {r:?}"
        );
        // The node discards what the queue hands it while down; the queue
        // itself drops nothing to a crashed node.
        assert!(r.crash_dropped <= r.late.count, "{r:?}");
    }

    #[test]
    fn rcv_threads_recover_from_loss_with_retransmission() {
        // Message loss voids retransmission-free liveness; with the
        // retransmit extension armed, RCV must still complete every CS.
        let spec = ClusterSpec::quick(4, 8)
            .rounds(2)
            .faults(FaultPlan::losing(9))
            .timeout(Duration::from_secs(60));
        let r = run_rcv(spec, RcvConfig::with_retry(RetryPolicy::fixed(2_000)));
        assert!(r.is_clean(8), "{r:?}");
        assert!(r.lost > 0, "loss regime must actually drop messages");
    }
}
