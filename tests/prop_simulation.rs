//! Property-based end-to-end tests: proptest generates whole scenarios
//! (system size, seeds, delay models, request schedules) and the full RCV
//! stack must stay safe and live on every one of them.

mod common;

use common::arb_delay;
use proptest::prelude::*;
use rcv_core::{check_nonl_consistency, total_anomalies, ForwardPolicy, RcvConfig, RcvNode};
use rcv_simnet::{Engine, FixedTrace, NodeId, SimConfig, SimDuration, SimTime};

fn arb_policy() -> impl Strategy<Value = ForwardPolicy> {
    prop_oneof![
        Just(ForwardPolicy::Random),
        Just(ForwardPolicy::Sequential),
        Just(ForwardPolicy::MostStale),
        Just(ForwardPolicy::Freshest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Arbitrary open-loop schedules: each node requests at most once, at
    /// an arbitrary time. Safety, deadlock freedom and starvation freedom
    /// must hold under every delay model and forwarding policy.
    #[test]
    fn random_single_shot_schedules_are_clean(
        n in 2usize..14,
        seed in 0u64..1_000_000,
        delay in arb_delay(),
        policy in arb_policy(),
        times in proptest::collection::vec(0u64..200, 2..14),
    ) {
        let arrivals: Vec<(SimTime, NodeId)> = times
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, &t)| (SimTime::from_ticks(t), NodeId::new(i as u32)))
            .collect();
        let expected = arrivals.len();
        let trace = FixedTrace::new(arrivals);
        let cfg = SimConfig { delay, ..SimConfig::paper(n, seed) };
        let (report, nodes) = Engine::new(cfg, trace, |id, n| {
            RcvNode::with_config(id, n, RcvConfig { forward: policy, ..RcvConfig::paper() })
        })
        .run_collecting();

        prop_assert!(report.is_safe(), "violation: n={n} seed={seed}");
        prop_assert!(!report.deadlocked, "deadlock: n={n} seed={seed}");
        prop_assert_eq!(report.metrics.completed(), expected, "starvation");
        prop_assert_eq!(total_anomalies(&nodes), 0);
        prop_assert!(check_nonl_consistency(&nodes).is_ok());
    }

    /// Closed-loop repeated requests with random per-node round counts.
    #[test]
    fn random_round_counts_are_clean(
        n in 2usize..10,
        seed in 0u64..1_000_000,
        rounds in proptest::collection::vec(0u32..4, 2..10),
    ) {
        struct Rounds(Vec<u32>);
        impl rcv_simnet::Workload for Rounds {
            fn init(
                &mut self,
                n: usize,
                _rng: &mut rand::rngs::SmallRng,
                sink: &mut rcv_simnet::ArrivalSink,
            ) {
                for node in NodeId::all(n) {
                    sink.schedule(SimTime::ZERO, node);
                }
            }
            fn on_complete(
                &mut self,
                node: NodeId,
                now: SimTime,
                _rng: &mut rand::rngs::SmallRng,
                sink: &mut rcv_simnet::ArrivalSink,
            ) {
                if self.0[node.index()] > 0 {
                    self.0[node.index()] -= 1;
                    sink.schedule(now + SimDuration::from_ticks(2), node);
                }
            }
        }
        let mut per_node = rounds;
        per_node.resize(n, 0);
        let expected: usize = per_node.iter().map(|&r| r as usize + 1).sum();
        let cfg = SimConfig::paper_non_fifo(n, seed);
        let (report, nodes) =
            Engine::new(cfg, Rounds(per_node), RcvNode::new).run_collecting();

        prop_assert!(report.is_safe());
        prop_assert!(!report.deadlocked);
        prop_assert_eq!(report.metrics.completed(), expected);
        prop_assert_eq!(total_anomalies(&nodes), 0);
    }

    /// The wire codec round-trips arbitrary protocol-shaped messages
    /// (node ids folded into the table's size: the decoder rejects a
    /// message naming a node its own MSIT has no row for).
    #[test]
    fn wire_codec_roundtrips(
        tag in 0u8..3,
        home_n in 0u32..8,
        home_ts in 1u64..100,
        ul in proptest::collection::vec(0u32..8, 0..8),
        monl in proptest::collection::vec((0u32..8, 1u64..50), 0..6),
        rows in proptest::collection::vec(
            (0u64..100, proptest::collection::vec((0u32..8, 1u64..50), 0..5)),
            1..8
        ),
    ) {
        use rcv_core::{MsgBody, Nonl, Nsit, RcvMessage, ReqTuple};
        use rcv_runtime::wire::{decode, encode};

        let id = |node: u32| NodeId::new(node % rows.len() as u32);
        let mut body = MsgBody { monl: Nonl::new(), msit: Nsit::new(rows.len()) };
        for (node, ts) in monl {
            body.monl.append(ReqTuple::new(id(node), ts));
        }
        for (i, (ts, tuples)) in rows.iter().enumerate() {
            let row = body.msit.row_mut(NodeId::new(i as u32));
            row.ts = *ts;
            for &(node, t) in tuples {
                row.mnl.push(ReqTuple::new(id(node), t));
            }
        }
        let home = ReqTuple::new(id(home_n), home_ts);
        let msg = match tag {
            0 => RcvMessage::Rm {
                home,
                ul: ul.into_iter().map(id).collect(),
                body,
            },
            1 => RcvMessage::Em { for_req: home, body },
            _ => RcvMessage::Im {
                pred: home,
                next: ReqTuple::new(id(home_n), home_ts + 1),
                body,
            },
        };
        prop_assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }
}
