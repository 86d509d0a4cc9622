//! Pins the public surface `benchmark/` compiles against. That package is
//! outside this workspace (own manifest, own lock file), so without this
//! file a refactor that breaks `benchmark/src/{workloads,layers}.rs` is
//! noticed only when the benchmark is next built. Each test spells the
//! builder chains, entry points and import paths exactly as the benchmark
//! does and runs them at N=2, one round.

use std::fmt::Debug;
use std::time::Duration;

use bytes::Bytes;
use rcv::core::{RcvMessage, RcvNode};
use rcv::runtime::orchestrator::{run_process_cluster, run_worker, ProcessSpec};
use rcv::runtime::transport::frame::{encode_frame, CtrlFrame, FrameBuf};
use rcv::runtime::wire::{verifying_hook, WireCodec, WireError};
use rcv::runtime::{run_cluster_collecting, ClusterSpec, NetDelay, SocketNet};
use rcv::simnet::{MutexProtocol, NodeId, SimConfig};
use rcv::workload::{Algo, PoissonWorkload};

const DELAY: NetDelay = NetDelay::Uniform {
    min: Duration::from_micros(20),
    max: Duration::from_micros(200),
};
const TIMEOUT: Duration = Duration::from_secs(60);

/// `run_tier`'s thread arm, bounds included.
fn thread_tier<P>(n: usize, make: impl Fn(NodeId, usize) -> P)
where
    P: MutexProtocol + Send + 'static,
    P::Message: WireCodec + PartialEq + Debug + Send + Sync,
{
    let cluster = ClusterSpec::quick(n, 1)
        .rounds(1)
        .think(Duration::ZERO)
        .cs_duration(Duration::ZERO)
        .delay(DELAY)
        .timeout(TIMEOUT)
        .wire_hook(verifying_hook());
    let (report, nodes) = run_cluster_collecting(cluster, make);
    assert!(report.is_clean(n as u64), "{report:?}");
    assert_eq!((report.completed, nodes.len()), (n as u64, n));
    assert!(report.messages > 0);
}

/// `run_tier`'s socket arm: thread workers calling `run_worker`.
fn uds_tier<P>(
    n: usize,
    tag: &'static str,
    delay: NetDelay,
    make: impl Fn(NodeId, usize) -> P + Clone + Send + 'static,
) where
    P: MutexProtocol + Send + 'static,
    P::Message: WireCodec + PartialEq + Debug + Send + Sync,
{
    let cluster = ProcessSpec::quick(n, 1, tag)
        .rounds(1)
        .think(Duration::ZERO)
        .cs_duration(Duration::ZERO)
        .delay(delay)
        .timeout(TIMEOUT)
        .net(SocketNet::Uds);
    let mut workers = Vec::new();
    let report = run_process_cluster(&cluster, |addr| {
        for node in 0..n as u32 {
            let (addr, make) = (addr.to_string(), make.clone());
            workers.push(std::thread::spawn(move || {
                run_worker(&addr, node, tag, |id, n, _cfg| make(id, n), |_p, _cfg| 0)
            }));
        }
        Ok(Vec::new())
    })
    .expect("socket cluster starts");
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
    assert!(report.is_clean(n as u64), "{report:?}");
    assert_eq!(report.report.completed, n as u64);
    assert!(report.report.messages > 0);
}

#[test]
fn thread_tier_chain_runs() {
    thread_tier(2, RcvNode::new);
}

#[test]
fn socket_tier_chain_runs() {
    uds_tier(2, "rcv", DELAY, RcvNode::new);
    uds_tier(2, "rcv", NetDelay::None, RcvNode::new);
}

/// A message type of the benchmark's own (`layers::Token`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Token;

impl WireCodec for Token {
    const PROTOCOL: &'static str = "pingpong";

    fn encode_wire(&self) -> Bytes {
        Bytes::from(vec![0u8])
    }

    fn decode_wire(buf: Bytes) -> Result<Self, WireError> {
        match *buf.as_slice() {
            [] => Err(WireError::Truncated),
            [0] => Ok(Token),
            [tag] => Err(WireError::BadTag(tag)),
            [_, ref rest @ ..] => Err(WireError::Trailing(rest.len())),
        }
    }
}

#[test]
fn codec_and_framing_shapes_hold() {
    assert_eq!(Token::decode_wire(Token.encode_wire()), Ok(Token));
    assert!(Token::decode_wire(Bytes::from(vec![0u8, 0])).is_err());

    let payload = Token.encode_wire();
    let frame: Bytes = encode_frame(&CtrlFrame::Deliver {
        from: 0,
        payload: payload.clone(),
    });
    let mut fb = FrameBuf::new();
    fb.extend(frame.as_ref());
    match fb.next_frame().expect("frame decodes") {
        Some(CtrlFrame::Deliver {
            from: 0,
            payload: p,
        }) => assert_eq!(p, payload),
        other => panic!("unexpected frame {other:?}"),
    }

    // `probe`'s capture hook and the codec micro-measurements.
    let encode: fn(&RcvMessage) -> Bytes = |m| m.encode_wire();
    let _ = encode;
}

#[test]
fn simulator_baseline_entry_point_runs() {
    let algo = Algo::Ricart;
    let report = algo.run(SimConfig::paper(4, 1), PoissonWorkload::paper(100.0));
    assert!(
        report.is_safe() && report.all_completed(),
        "{}",
        algo.name()
    );
}
