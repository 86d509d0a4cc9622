//! The orchestrator ⇄ worker control-plane protocol: length-prefixed
//! frames over a Unix-domain or TCP stream.
//!
//! ```text
//! frame    := len:u32 body          (len = body length, bounded)
//! body     := kind:u8 payload
//! Hello    := magic:u32 version:u16 node:u32 protocol:str
//! Reject   := reason:str
//! Start    := NodeSpec cs_log:str
//! Send     := to:u32 delay_us:u64 wire-bytes   (worker → hub)
//! Deliver  := from:u32 wire-bytes              (hub → worker)
//! Done     := node:u32
//! Report   := node:u32 completed:u64 messages:u64 crash_dropped:u64
//!             restarts:u64 anomalies:u64
//! Fault    := node:u32 detail:str
//! Shutdown := ε
//! NodeSpec := node:u32 n:u32 seed:u64 rounds:u32 think:dur cs:dur delay
//!             tick:dur crash:opt<down:u64 up:u64>
//!             retry:opt<deadline:u64 max_deadline:u64 budget:opt<u32>>
//!             restartable:u8
//! delay    := 0:u8 dur dur | 1:u8 min:dur max:dur | 2:u8 mean:dur cap:dur
//! dur      := nanos:u64
//! opt<x>   := 0:u8 | 1:u8 x
//! str      := len:u16 utf8
//! ```
//!
//! `Start` carries the worker's [`NodeSpec`], exactly as
//! [`crate::Spec::node`] derived it on the hub, plus the path of the
//! shared CS log: the codec is the only translation between what the hub
//! means and what the worker runs.
//!
//! The `wire-bytes` inside `Send`/`Deliver` are a protocol message in its
//! [`WireCodec`](crate::wire::WireCodec) encoding — the hub routes them
//! without knowing the protocol's message type. Decoders here are strict
//! and total like every other codec in [`crate::wire`], and failures are
//! [`WireError::Framed`] with the `"hub-ctl"` protocol tag so a corrupt
//! control frame names itself.

use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rcv_simnet::{NodeId, RetryPolicy};

use crate::cluster::NetDelay;
use crate::spec::NodeSpec;
use crate::wire::{get_flag, get_u16, get_u32, get_u64, get_u8, need, WireError};

/// Protocol tag used in [`WireError::Framed`] contexts for this codec.
pub const CTRL_PROTOCOL: &str = "hub-ctl";

/// Handshake magic: "RCVW".
pub const HELLO_MAGIC: u32 = 0x5243_5657;

/// Control-plane schema version; a worker built against a different
/// schema is rejected at handshake, before any protocol traffic.
pub const SCHEMA_VERSION: u16 = 4;

/// Upper bound on a frame body: one protocol message (codec sanity limit
/// 1 MiB) plus control headers. Anything larger is an attack or a bug.
pub const MAX_FRAME: usize = (1 << 20) + 1024;

/// Per-node counters reported by a worker after shutdown — the process
/// backend's share of a [`crate::ClusterReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Reporting node.
    pub node: u32,
    /// CS executions completed.
    pub completed: u64,
    /// Messages this node submitted to the fabric.
    pub messages: u64,
    /// Deliveries the node discarded while inside its crash window.
    pub crash_dropped: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Protocol-internal anomaly count (RCV Lemma-6 / UL-exhaustion).
    pub anomalies: u64,
}

/// One control-plane frame.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlFrame {
    /// Worker → hub: identify and version-check before anything else.
    Hello {
        /// Must be [`HELLO_MAGIC`].
        magic: u32,
        /// Must be [`SCHEMA_VERSION`].
        version: u16,
        /// The worker's claimed node index.
        node: u32,
        /// The worker's algorithm tag (must match the cluster's).
        protocol: String,
    },
    /// Hub → worker: handshake refused; the connection closes.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Hub → worker: handshake accepted; run this node.
    Start {
        /// The node to run (argv stays minimal: address, node index,
        /// algorithm).
        node: Box<NodeSpec>,
        /// Path of the shared append-only CS log.
        cs_log: String,
    },
    /// Worker → hub: route these wire bytes to `to` after `delay_us`.
    Send {
        /// Destination node.
        to: u32,
        /// Node-sampled base delay in µs.
        delay_us: u64,
        /// The protocol message, wire-encoded.
        payload: Bytes,
    },
    /// Hub → worker: wire bytes from `from`.
    Deliver {
        /// Originating node.
        from: u32,
        /// The protocol message, wire-encoded.
        payload: Bytes,
    },
    /// Worker → hub: all rounds completed (still serving peers).
    Done {
        /// Announcing node.
        node: u32,
    },
    /// Worker → hub: final counters; the worker exits after sending.
    Report(WorkerReport),
    /// Worker → hub: a fatal error (e.g. a wire decode failure, already
    /// protocol/variant-framed) — the run cannot be trusted.
    Fault {
        /// Reporting node.
        node: u32,
        /// Rendered error, e.g. `"RCV/Rm: truncated message"`.
        detail: String,
    },
    /// Hub → worker: stop serving and send your `Report`.
    Shutdown,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    let len = get_u16(buf)? as usize;
    need(buf, len)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.as_slice().to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
}

fn put_duration(buf: &mut Vec<u8>, d: Duration) {
    buf.put_u64(d.as_nanos().min(u64::MAX as u128) as u64);
}

fn get_duration(buf: &mut Bytes) -> Result<Duration, WireError> {
    get_u64(buf).map(Duration::from_nanos)
}

fn put_node_spec(buf: &mut Vec<u8>, spec: &NodeSpec) {
    buf.put_u32(spec.node.raw());
    buf.put_u32(spec.n as u32);
    buf.put_u64(spec.seed);
    buf.put_u32(spec.rounds);
    put_duration(buf, spec.think);
    put_duration(buf, spec.cs_duration);
    let (tag, a, b) = match spec.delay {
        NetDelay::None => (0, Duration::ZERO, Duration::ZERO),
        NetDelay::Uniform { min, max } => (1, min, max),
        NetDelay::Exponential { mean, cap } => (2, mean, cap),
    };
    buf.put_u8(tag);
    put_duration(buf, a);
    put_duration(buf, b);
    put_duration(buf, spec.tick);
    buf.put_u8(spec.crash.is_some() as u8);
    if let Some((down, up)) = spec.crash {
        buf.put_u64(down);
        buf.put_u64(up);
    }
    buf.put_u8(spec.retry.is_some() as u8);
    if let Some(r) = spec.retry {
        buf.put_u64(r.deadline);
        buf.put_u64(r.max_deadline);
        buf.put_u8(r.budget.is_some() as u8);
        if let Some(budget) = r.budget {
            buf.put_u32(budget);
        }
    }
    buf.put_u8(spec.restartable as u8);
}

fn get_node_spec(buf: &mut Bytes) -> Result<NodeSpec, WireError> {
    let node = NodeId::new(get_u32(buf)?);
    let n = get_u32(buf)? as usize;
    let seed = get_u64(buf)?;
    let rounds = get_u32(buf)?;
    let think = get_duration(buf)?;
    let cs_duration = get_duration(buf)?;
    let (tag, a, b) = (get_u8(buf)?, get_duration(buf)?, get_duration(buf)?);
    let delay = match tag {
        0 => NetDelay::None,
        1 => NetDelay::Uniform { min: a, max: b },
        2 => NetDelay::Exponential { mean: a, cap: b },
        t => return Err(WireError::BadTag(t)),
    };
    let tick = get_duration(buf)?;
    if tick.is_zero() {
        return Err(WireError::Malformed("zero tick"));
    }
    let crash = if get_flag(buf)? {
        Some((get_u64(buf)?, get_u64(buf)?))
    } else {
        None
    };
    let retry = if get_flag(buf)? {
        Some(RetryPolicy {
            deadline: get_u64(buf)?,
            max_deadline: get_u64(buf)?,
            budget: if get_flag(buf)? {
                Some(get_u32(buf)?)
            } else {
                None
            },
        })
    } else {
        None
    };
    Ok(NodeSpec {
        node,
        n,
        seed,
        rounds,
        think,
        cs_duration,
        delay,
        tick,
        crash,
        retry,
        restartable: get_flag(buf)?,
    })
}

/// Encodes one frame, **including** its length prefix, ready to write to
/// the stream.
pub fn encode_frame(frame: &CtrlFrame) -> Bytes {
    let mut out = Vec::with_capacity(64);
    encode_frame_into(&mut out, frame);
    Bytes::from(out)
}

/// Appends one frame, length prefix included, to `out` — the hub's write
/// path encodes straight into a worker's output buffer.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, frame: &CtrlFrame) {
    let prefix = out.len();
    out.put_u32(0); // patched below, once the body length is known
    let body = &mut *out;
    match frame {
        CtrlFrame::Hello {
            magic,
            version,
            node,
            protocol,
        } => {
            body.put_u8(0);
            body.put_u32(*magic);
            body.put_u16(*version);
            body.put_u32(*node);
            put_str(body, protocol);
        }
        CtrlFrame::Reject { reason } => {
            body.put_u8(1);
            put_str(body, reason);
        }
        CtrlFrame::Start { node, cs_log } => {
            body.put_u8(2);
            put_node_spec(body, node);
            put_str(body, cs_log);
        }
        CtrlFrame::Send {
            to,
            delay_us,
            payload,
        } => {
            body.put_u8(3);
            body.put_u32(*to);
            body.put_u64(*delay_us);
            body.put_slice(payload.as_ref());
        }
        CtrlFrame::Deliver { from, payload } => {
            body.put_u8(4);
            body.put_u32(*from);
            body.put_slice(payload.as_ref());
        }
        CtrlFrame::Done { node } => {
            body.put_u8(5);
            body.put_u32(*node);
        }
        CtrlFrame::Report(r) => {
            body.put_u8(6);
            body.put_u32(r.node);
            body.put_u64(r.completed);
            body.put_u64(r.messages);
            body.put_u64(r.crash_dropped);
            body.put_u64(r.restarts);
            body.put_u64(r.anomalies);
        }
        CtrlFrame::Fault { node, detail } => {
            body.put_u8(7);
            body.put_u32(*node);
            put_str(body, detail);
        }
        CtrlFrame::Shutdown => {
            body.put_u8(8);
        }
    }
    let len = out.len() - prefix - 4;
    debug_assert!(len <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    out[prefix..prefix + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Decodes one frame **body** (without the length prefix). Strict: the
/// whole buffer must be one frame.
pub fn decode_ctrl(mut buf: Bytes) -> Result<CtrlFrame, WireError> {
    let tag = get_u8(&mut buf).map_err(|e| e.in_protocol(CTRL_PROTOCOL))?;
    let variant = match tag {
        0 => "Hello",
        1 => "Reject",
        2 => "Start",
        3 => "Send",
        4 => "Deliver",
        5 => "Done",
        6 => "Report",
        7 => "Fault",
        8 => "Shutdown",
        t => return Err(WireError::BadTag(t).in_protocol(CTRL_PROTOCOL)),
    };
    crate::wire::framed(CTRL_PROTOCOL, variant, || {
        let frame = match tag {
            0 => {
                let magic = get_u32(&mut buf)?;
                let version = get_u16(&mut buf)?;
                let node = get_u32(&mut buf)?;
                let protocol = get_str(&mut buf)?;
                CtrlFrame::Hello {
                    magic,
                    version,
                    node,
                    protocol,
                }
            }
            1 => CtrlFrame::Reject {
                reason: get_str(&mut buf)?,
            },
            2 => CtrlFrame::Start {
                node: Box::new(get_node_spec(&mut buf)?),
                cs_log: get_str(&mut buf)?,
            },
            3 => {
                let to = get_u32(&mut buf)?;
                let delay_us = get_u64(&mut buf)?;
                let payload = buf.split_to(buf.remaining());
                CtrlFrame::Send {
                    to,
                    delay_us,
                    payload,
                }
            }
            4 => {
                let from = get_u32(&mut buf)?;
                let payload = buf.split_to(buf.remaining());
                CtrlFrame::Deliver { from, payload }
            }
            5 => CtrlFrame::Done {
                node: get_u32(&mut buf)?,
            },
            6 => CtrlFrame::Report(WorkerReport {
                node: get_u32(&mut buf)?,
                completed: get_u64(&mut buf)?,
                messages: get_u64(&mut buf)?,
                crash_dropped: get_u64(&mut buf)?,
                restarts: get_u64(&mut buf)?,
                anomalies: get_u64(&mut buf)?,
            }),
            7 => CtrlFrame::Fault {
                node: get_u32(&mut buf)?,
                detail: get_str(&mut buf)?,
            },
            _ => CtrlFrame::Shutdown,
        };
        if buf.remaining() == 0 {
            Ok(frame)
        } else {
            Err(WireError::Trailing(buf.remaining()))
        }
    })
}

/// Incremental frame decoder over an arbitrary byte stream: feed chunks
/// of any size (down to one byte), pop complete frames. This is the only
/// path from socket bytes to frames, so partial reads and short writes
/// are handled by construction.
#[derive(Default)]
pub struct FrameBuf {
    buf: BytesMut,
}

impl FrameBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    /// A length prefix above [`MAX_FRAME`] is rejected immediately — the
    /// stream is corrupt and nothing after it can be trusted.
    pub fn next_frame(&mut self) -> Result<Option<CtrlFrame>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(WireError::LengthOverflow(len as u32).in_protocol(CTRL_PROTOCOL));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        let body = self.buf.split_to(len).freeze();
        decode_ctrl(body).map(Some)
    }

    /// Bytes currently buffered (incomplete frame tail).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Validates a worker's `Hello` against the cluster's expectations.
/// Returns the node index it may occupy. Pure — unit-testable without a
/// socket in sight.
pub fn validate_hello(
    frame: &CtrlFrame,
    expected_n: u32,
    expected_protocol: &str,
    taken: &[bool],
) -> Result<u32, String> {
    let CtrlFrame::Hello {
        magic,
        version,
        node,
        protocol,
    } = frame
    else {
        return Err(format!("expected Hello, got {frame:?}"));
    };
    if *magic != HELLO_MAGIC {
        return Err(format!(
            "bad magic {magic:#010x} (expected {HELLO_MAGIC:#010x})"
        ));
    }
    if *version != SCHEMA_VERSION {
        return Err(format!(
            "schema version mismatch: worker speaks v{version}, hub speaks v{SCHEMA_VERSION}"
        ));
    }
    if protocol != expected_protocol {
        return Err(format!(
            "protocol mismatch: worker runs {protocol:?}, cluster runs {expected_protocol:?}"
        ));
    }
    if *node >= expected_n {
        return Err(format!("node {node} out of range (n = {expected_n})"));
    }
    if taken[*node as usize] {
        return Err(format!("node {node} already connected"));
    }
    Ok(*node)
}

/// A well-formed `Hello` for the current build.
pub fn hello(node: u32, protocol: &str) -> CtrlFrame {
    CtrlFrame::Hello {
        magic: HELLO_MAGIC,
        version: SCHEMA_VERSION,
        node,
        protocol: protocol.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node() -> NodeSpec {
        NodeSpec {
            node: NodeId::new(3),
            n: 8,
            seed: 0xDEAD_BEEF,
            rounds: 2,
            think: Duration::from_millis(1),
            cs_duration: Duration::from_millis(2),
            delay: NetDelay::Uniform {
                min: Duration::from_micros(50),
                max: Duration::from_millis(2),
            },
            tick: Duration::from_micros(200),
            crash: Some((25, 120)),
            retry: Some(RetryPolicy::backoff(400, 3_200).with_budget(5)),
            restartable: true,
        }
    }

    fn start(node: NodeSpec) -> CtrlFrame {
        CtrlFrame::Start {
            node: Box::new(node),
            cs_log: "/tmp/cs.log".into(),
        }
    }

    fn frames() -> Vec<CtrlFrame> {
        vec![
            hello(5, "maekawa"),
            CtrlFrame::Reject {
                reason: "schema version mismatch".into(),
            },
            start(sample_node()),
            CtrlFrame::Send {
                to: 2,
                delay_us: 777,
                payload: Bytes::from(&[1u8, 2, 3][..]),
            },
            CtrlFrame::Deliver {
                from: 0,
                payload: Bytes::from(&[9u8][..]),
            },
            CtrlFrame::Done { node: 7 },
            CtrlFrame::Report(WorkerReport {
                node: 1,
                completed: 4,
                messages: 100,
                crash_dropped: 2,
                restarts: 1,
                anomalies: 0,
            }),
            CtrlFrame::Fault {
                node: 3,
                detail: "RCV/Rm: truncated message".into(),
            },
            CtrlFrame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for f in frames() {
            let wire = encode_frame(&f);
            let mut fb = FrameBuf::new();
            fb.extend(wire.as_ref());
            assert_eq!(fb.next_frame().unwrap(), Some(f.clone()), "{f:?}");
            assert_eq!(fb.next_frame().unwrap(), None);
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn empty_payload_send_roundtrips() {
        let f = CtrlFrame::Send {
            to: 0,
            delay_us: 0,
            payload: Bytes::new(),
        };
        let mut fb = FrameBuf::new();
        fb.extend(encode_frame(&f).as_ref());
        assert_eq!(fb.next_frame().unwrap(), Some(f));
    }

    #[test]
    fn config_with_no_options_roundtrips() {
        let f = start(NodeSpec {
            crash: None,
            retry: None,
            delay: NetDelay::None,
            ..sample_node()
        });
        let mut fb = FrameBuf::new();
        fb.extend(encode_frame(&f).as_ref());
        assert_eq!(fb.next_frame().unwrap(), Some(f));
    }

    /// What a worker decodes from `Start` is the hub's `spec.node(i)`,
    /// field for field, for a spec that sets every field a node runs by.
    #[test]
    fn a_worker_decodes_the_node_the_hub_derived() {
        use rcv_simnet::{FaultPlan, SimTime};
        let spec = crate::RunSpec::quick(5, 0xC0FFEE)
            .rounds(3)
            .think(Duration::from_micros(1_250))
            .cs_duration(Duration::from_nanos(2_000_500))
            .delay(NetDelay::Exponential {
                mean: Duration::from_nanos(333_333),
                cap: Duration::from_millis(4),
            })
            .tick(Duration::from_micros(200))
            .faults(FaultPlan::crash_restart(
                NodeId::new(2),
                SimTime::from_ticks(25),
                SimTime::from_ticks(120),
            ))
            .retry(RetryPolicy::backoff(400, 3_200).with_budget(7));
        for i in 0..spec.n {
            let node = spec.node(i);
            let f = start(node);
            let body = encode_frame(&f).slice(4..);
            let CtrlFrame::Start { node: got, .. } = decode_ctrl(body).unwrap() else {
                panic!("not a Start");
            };
            assert_eq!(*got, node);
            assert_eq!(got.crash.is_some(), i == 2, "{got:?}");
            assert!(got.restartable && got.retry.is_some());
        }
    }

    #[test]
    fn a_zero_tick_is_refused() {
        let wire = encode_frame(&start(NodeSpec {
            tick: Duration::ZERO,
            ..sample_node()
        }));
        let err = decode_ctrl(wire.slice(4..)).unwrap_err();
        assert_eq!(err.to_string(), "hub-ctl/Start: malformed field: zero tick");
    }

    #[test]
    fn hello_validation_rejects_each_mismatch() {
        let taken = vec![false, true, false];
        assert_eq!(validate_hello(&hello(0, "rcv"), 3, "rcv", &taken), Ok(0));
        let bad_magic = CtrlFrame::Hello {
            magic: 0,
            version: SCHEMA_VERSION,
            node: 0,
            protocol: "rcv".into(),
        };
        assert!(validate_hello(&bad_magic, 3, "rcv", &taken)
            .unwrap_err()
            .contains("magic"));
        let bad_version = CtrlFrame::Hello {
            magic: HELLO_MAGIC,
            version: SCHEMA_VERSION + 1,
            node: 0,
            protocol: "rcv".into(),
        };
        assert!(validate_hello(&bad_version, 3, "rcv", &taken)
            .unwrap_err()
            .contains("schema version mismatch"));
        assert!(validate_hello(&hello(0, "lamport"), 3, "rcv", &taken)
            .unwrap_err()
            .contains("protocol mismatch"));
        assert!(validate_hello(&hello(9, "rcv"), 3, "rcv", &taken)
            .unwrap_err()
            .contains("out of range"));
        assert!(validate_hello(&hello(1, "rcv"), 3, "rcv", &taken)
            .unwrap_err()
            .contains("already connected"));
        assert!(validate_hello(&CtrlFrame::Shutdown, 3, "rcv", &taken)
            .unwrap_err()
            .contains("expected Hello"));
    }

    #[test]
    fn corrupt_control_frames_name_themselves() {
        // A Done frame cut off mid-node-id.
        let mut fb = FrameBuf::new();
        fb.extend(&[0, 0, 0, 1, 5]);
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.to_string(), "hub-ctl/Done: truncated message");
    }
}
