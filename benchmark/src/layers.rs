//! Micro-measurements of single layers, taken in the traced run.
//!
//! Each calls the layer's public entry points on fixed inputs (or on the
//! messages the probes sampled from the workload's own traced pass) and
//! reports the median of a few repetitions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rcv_core::RcvMessage;
use rcv_runtime::transport::frame::{encode_frame, CtrlFrame, FrameBuf};
use rcv_runtime::wire::{WireCodec, WireError};
use rcv_runtime::NetDelay;
use rcv_simnet::{
    Ctx, EventKind, EventQueue, MutexProtocol, NodeId, ProtocolMessage, SimConfig, SimDuration,
};
use rcv_workload::{Algo, PoissonWorkload};

use crate::workloads::{run_tier, Tier, TierSpec, DELAY, NODES};

const REPS: usize = 5;

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `EventQueue` schedule+pop pairs per second in steady state: the delta
/// mix of `engine_throughput`'s queue bench (deliveries at Tn=5, CS exits
/// at Tc=10, a same-tick event, one far-future timer per cycle).
pub fn queue_ops_per_s() -> f64 {
    const DELTAS: [u64; 5] = [5, 5, 10, 0, 500];
    const OPS: u64 = 1_000_000;
    let timer = |tag| EventKind::Timer {
        node: NodeId::new(0),
        tag,
    };
    let rates = (0..REPS).map(|_| {
        let mut q: EventQueue<u64> = EventQueue::with_horizon(SimDuration::from_ticks(10));
        for i in 0..64u64 {
            let at = q.now() + SimDuration::from_ticks(DELTAS[(i % 5) as usize]);
            q.schedule(at, timer(i));
        }
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..OPS {
            let e = q.pop().expect("queue stays warm");
            acc = acc.wrapping_add(e.at.ticks());
            let at = e.at + SimDuration::from_ticks(DELTAS[(i % 5) as usize]);
            q.schedule(at, timer(i));
        }
        black_box(acc);
        OPS as f64 / t0.elapsed().as_secs_f64()
    });
    median(rates.collect())
}

/// `(events/s, messages per CS)` of a baseline on the simulator: N=30,
/// Poisson arrivals at 1/λ=100 under FIFO constant delay (Maekawa needs
/// FIFO). Their handlers are trivial, so events/s is bound by the engine.
pub fn baseline(algo: Algo, seed: u64) -> (f64, f64) {
    let mut msgs_per_cs = 0.0;
    let rates = (0..REPS).map(|_| {
        let t0 = Instant::now();
        let report = algo.run(SimConfig::paper(30, seed), PoissonWorkload::paper(100.0));
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            report.is_safe() && report.all_completed(),
            "{} baseline run is not clean",
            algo.name()
        );
        msgs_per_cs = report.metrics.nme().expect("baseline completed CSs");
        report.events as f64 / wall
    });
    (median(rates.collect()), msgs_per_cs)
}

/// Mean cost per message of the wire codec and the socket framing.
pub struct Codec {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_msg: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
}

/// Times `WireCodec` and `encode_frame`/`FrameBuf` over the wire-encoded
/// messages the probes sampled from the traced pass.
pub fn codec(wire: &[Bytes]) -> Codec {
    assert!(!wire.is_empty(), "the traced pass sampled no message");
    let decode_all = || -> Vec<RcvMessage> {
        wire.iter()
            .map(|b| RcvMessage::decode_wire(b.clone()).expect("sampled message decodes"))
            .collect()
    };
    let msgs = decode_all();
    let frames: Vec<Bytes> = wire
        .iter()
        .map(|payload| {
            encode_frame(&CtrlFrame::Deliver {
                from: 0,
                payload: payload.clone(),
            })
        })
        .collect();
    // Enough rounds that a repetition is at least ~20k messages or 64 MB.
    let bytes: usize = wire.iter().map(Bytes::len).sum();
    let rounds = (20_000 / wire.len()).min((64 << 20) / bytes.max(1)).max(1);
    let per_msg = |f: &mut dyn FnMut()| {
        let times = (0..REPS).map(|_| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (rounds * wire.len()) as f64
        });
        median(times.collect())
    };
    Codec {
        encode_ns: per_msg(&mut || {
            for m in &msgs {
                black_box(m.encode_wire());
            }
        }),
        decode_ns: per_msg(&mut || {
            black_box(decode_all());
        }),
        bytes_per_msg: bytes as f64 / wire.len() as f64,
        frame_encode_ns: per_msg(&mut || {
            for payload in wire {
                black_box(encode_frame(&CtrlFrame::Deliver {
                    from: 0,
                    payload: payload.clone(),
                }));
            }
        }),
        frame_decode_ns: per_msg(&mut || {
            let mut fb = FrameBuf::new();
            for f in &frames {
                fb.extend(f.as_ref());
                black_box(fb.next_frame().expect("frame decodes"));
            }
        }),
    }
}

/// Wall milliseconds of a one-round RCV cluster on `tier`: thread spawn,
/// or bind + handshake + Start + Report + Shutdown. The fixed cost inside
/// every real-tier pass.
pub fn startup_ms(tier: Tier, seed: u64) -> f64 {
    let times = (0..REPS).map(|_| {
        let spec = TierSpec {
            n: NODES,
            rounds: 1,
            delay: DELAY,
            seed,
            tag: "rcv",
        };
        let run = run_tier(tier, spec, rcv_core::RcvNode::new, |_| ());
        assert!(run.clean, "one-round {tier:?} cluster is not clean");
        run.wall_s * 1e3
    });
    median(times.collect())
}

/// One-way hop time in microseconds on `tier` with no injected delay: a
/// 2-node ping-pong over the tier's own fabric and wire codec.
pub fn hop_us(tier: Tier) -> f64 {
    let trips = match tier {
        Tier::Thread => 4_000,
        Tier::Uds => 1_000,
    };
    let times = (0..3).map(|_| {
        let spec = TierSpec {
            n: 2,
            rounds: 1,
            delay: NetDelay::None,
            seed: 1,
            tag: "pingpong",
        };
        let run = run_tier(
            tier,
            spec,
            move |id, _n| PingPong::new(id, trips),
            |p: &PingPong| p.elapsed,
        );
        assert!(run.clean, "ping-pong on {tier:?} is not clean");
        let elapsed = run.harvest[0].expect("node 0 finished its trips");
        elapsed.as_secs_f64() * 1e6 / (2 * trips) as f64
    });
    median(times.collect())
}

/// The ping-pong protocol's messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    Ping,
    Pong,
    /// Node 0 has left its CS: node 1 may take its turn.
    Done,
}

impl ProtocolMessage for Token {
    fn kind(&self) -> &'static str {
        match self {
            Token::Ping => "PING",
            Token::Pong => "PONG",
            Token::Done => "DONE",
        }
    }
}

impl WireCodec for Token {
    const PROTOCOL: &'static str = "pingpong";

    fn encode_wire(&self) -> Bytes {
        Bytes::from(vec![*self as u8])
    }

    fn decode_wire(buf: Bytes) -> Result<Self, WireError> {
        match *buf.as_slice() {
            [] => Err(WireError::Truncated),
            [0] => Ok(Token::Ping),
            [1] => Ok(Token::Pong),
            [2] => Ok(Token::Done),
            [tag] => Err(WireError::BadTag(tag)),
            [_, ref rest @ ..] => Err(WireError::Trailing(rest.len())),
        }
    }
}

/// Node 0 bounces a token off node 1 `trips` times, timing the whole
/// exchange, then enters the CS; node 1 enters after node 0 has left, so
/// the run is a valid (if trivial) mutual-exclusion run on any tier.
pub struct PingPong {
    me: NodeId,
    trips_left: u32,
    started: Option<Instant>,
    /// Node 0: first Ping sent → last Pong received.
    pub elapsed: Option<Duration>,
    waiting: bool,
    peer_done: bool,
}

impl PingPong {
    pub fn new(me: NodeId, trips: u32) -> Self {
        PingPong {
            me,
            trips_left: trips,
            started: None,
            elapsed: None,
            waiting: false,
            peer_done: false,
        }
    }
}

impl MutexProtocol for PingPong {
    type Message = Token;

    fn name(&self) -> &'static str {
        "pingpong"
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Token>) {
        if self.me.index() == 0 {
            self.started = Some(Instant::now());
            ctx.send(NodeId::new(1), Token::Ping);
        } else if self.peer_done {
            ctx.enter_cs();
        } else {
            self.waiting = true;
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut Ctx<'_, Token>) {
        match msg {
            Token::Ping => ctx.send(from, Token::Pong),
            Token::Pong => {
                self.trips_left -= 1;
                if self.trips_left > 0 {
                    ctx.send(from, Token::Ping);
                } else {
                    self.elapsed = self.started.map(|t| t.elapsed());
                    ctx.enter_cs();
                }
            }
            Token::Done => {
                self.peer_done = true;
                if std::mem::take(&mut self.waiting) {
                    ctx.enter_cs();
                }
            }
        }
    }

    fn on_cs_released(&mut self, ctx: &mut Ctx<'_, Token>) {
        if self.me.index() == 0 {
            ctx.send(NodeId::new(1), Token::Done);
        }
    }
}
