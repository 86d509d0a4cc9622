//! Binary wire codecs for every baseline algorithm's message type —
//! extending the paper-§3 "messages are plain data" proof from RCV to the
//! whole comparator suite, so all 8 algorithms can run on the threaded
//! cluster with byte-level codec verification on every hop.
//!
//! Formats are tag-prefixed like the RCV codec in the parent module:
//!
//! ```text
//! RaMessage  := 0 ts:u64 | 1                         (Ricart–Agrawala)
//! RdMessage  := 0 ts:u64 | 1                         (Roucairol–Carvalho)
//! LpMessage  := 0 ts:u64 | 1 ts:u64 | 2 ts:u64       (Lamport)
//! MkMessage  := 0 ts:u64 | 1 | 2 | 3 | 4 | 5         (Maekawa)
//! SkMessage  := 0 seq:u64                            (Suzuki–Kasami)
//!             | 1 list<u64> (LN) list<u32> (queue)
//! RyMessage  := 0 | 1                                (Raymond)
//! ```
//!
//! All decoders are strict (whole-buffer, sane length prefixes) and total
//! (adversarial bytes return `Err`, never panic).

use bytes::{BufMut, Bytes, BytesMut};
use rcv_baselines::{LpMessage, MkMessage, RaMessage, RdMessage, RyMessage, SkMessage, Token};
use rcv_simnet::NodeId;

use super::{finish, framed, get_len, get_u32, get_u64, get_u8, WireCodec, WireError};

/// `tag` alone (parameterless variants).
fn bare(tag: u8) -> Bytes {
    let mut buf = BytesMut::with_capacity(1);
    buf.put_u8(tag);
    buf.freeze()
}

/// `tag` plus one `u64` field.
fn tagged_u64(tag: u8, v: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(9);
    buf.put_u8(tag);
    buf.put_u64(v);
    buf.freeze()
}

impl WireCodec for RaMessage {
    const PROTOCOL: &'static str = "Ricart";

    fn encode_wire(&self) -> Bytes {
        match *self {
            RaMessage::Request { ts } => tagged_u64(0, ts),
            RaMessage::Reply => bare(1),
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = RaMessage::PROTOCOL;
        let variant = match get_u8(&mut buf).map_err(|e| e.in_protocol(P))? {
            0 => "Request",
            1 => "Reply",
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || {
            let msg = match variant {
                "Request" => RaMessage::Request {
                    ts: get_u64(&mut buf)?,
                },
                _ => RaMessage::Reply,
            };
            finish(&buf, msg)
        })
    }
}

impl WireCodec for RdMessage {
    const PROTOCOL: &'static str = "RA-dynamic";

    fn encode_wire(&self) -> Bytes {
        match *self {
            RdMessage::Request { ts } => tagged_u64(0, ts),
            RdMessage::Reply => bare(1),
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = RdMessage::PROTOCOL;
        let variant = match get_u8(&mut buf).map_err(|e| e.in_protocol(P))? {
            0 => "Request",
            1 => "Reply",
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || {
            let msg = match variant {
                "Request" => RdMessage::Request {
                    ts: get_u64(&mut buf)?,
                },
                _ => RdMessage::Reply,
            };
            finish(&buf, msg)
        })
    }
}

impl WireCodec for LpMessage {
    const PROTOCOL: &'static str = "Lamport";

    fn encode_wire(&self) -> Bytes {
        match *self {
            LpMessage::Request { ts } => tagged_u64(0, ts),
            LpMessage::Ack { ts } => tagged_u64(1, ts),
            LpMessage::Release { ts } => tagged_u64(2, ts),
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = LpMessage::PROTOCOL;
        let tag = get_u8(&mut buf).map_err(|e| e.in_protocol(P))?;
        let variant = match tag {
            0 => "Request",
            1 => "Ack",
            2 => "Release",
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || {
            let ts = get_u64(&mut buf)?;
            let msg = match tag {
                0 => LpMessage::Request { ts },
                1 => LpMessage::Ack { ts },
                _ => LpMessage::Release { ts },
            };
            finish(&buf, msg)
        })
    }
}

impl WireCodec for MkMessage {
    const PROTOCOL: &'static str = "Maekawa";

    fn encode_wire(&self) -> Bytes {
        match *self {
            MkMessage::Request { ts } => tagged_u64(0, ts),
            MkMessage::Locked => bare(1),
            MkMessage::Failed => bare(2),
            MkMessage::Inquire => bare(3),
            MkMessage::Yield => bare(4),
            MkMessage::Release => bare(5),
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = MkMessage::PROTOCOL;
        let tag = get_u8(&mut buf).map_err(|e| e.in_protocol(P))?;
        let (variant, msg) = match tag {
            0 => (
                "Request",
                MkMessage::Request {
                    ts: framed(P, "Request", || get_u64(&mut buf))?,
                },
            ),
            1 => ("Locked", MkMessage::Locked),
            2 => ("Failed", MkMessage::Failed),
            3 => ("Inquire", MkMessage::Inquire),
            4 => ("Yield", MkMessage::Yield),
            5 => ("Release", MkMessage::Release),
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || finish(&buf, msg))
    }
}

impl WireCodec for SkMessage {
    const PROTOCOL: &'static str = "Broadcast";

    fn encode_wire(&self) -> Bytes {
        match self {
            SkMessage::Request { seq } => tagged_u64(0, *seq),
            SkMessage::Token(token) => {
                let mut buf = BytesMut::with_capacity(
                    1 + 4 + 8 * token.last_served.len() + 4 + 4 * token.queue.len(),
                );
                buf.put_u8(1);
                buf.put_u32(token.last_served.len() as u32);
                for &ln in &token.last_served {
                    buf.put_u64(ln);
                }
                buf.put_u32(token.queue.len() as u32);
                for node in &token.queue {
                    buf.put_u32(node.raw());
                }
                buf.freeze()
            }
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = SkMessage::PROTOCOL;
        let tag = get_u8(&mut buf).map_err(|e| e.in_protocol(P))?;
        let variant = match tag {
            0 => "Request",
            1 => "Token",
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || {
            let msg = match tag {
                0 => SkMessage::Request {
                    seq: get_u64(&mut buf)?,
                },
                _ => {
                    let ln_len = get_len(&mut buf)?;
                    let mut last_served = Vec::with_capacity(ln_len.min(1024) as usize);
                    for _ in 0..ln_len {
                        last_served.push(get_u64(&mut buf)?);
                    }
                    let q_len = get_len(&mut buf)?;
                    let mut queue =
                        std::collections::VecDeque::with_capacity(q_len.min(1024) as usize);
                    for _ in 0..q_len {
                        queue.push_back(NodeId::new(get_u32(&mut buf)?));
                    }
                    SkMessage::Token(Box::new(Token { last_served, queue }))
                }
            };
            finish(&buf, msg)
        })
    }
}

impl WireCodec for RyMessage {
    const PROTOCOL: &'static str = "Raymond";

    fn encode_wire(&self) -> Bytes {
        match *self {
            RyMessage::Request => bare(0),
            RyMessage::Privilege => bare(1),
        }
    }

    fn decode_wire(mut buf: Bytes) -> Result<Self, WireError> {
        const P: &str = RyMessage::PROTOCOL;
        let (variant, msg) = match get_u8(&mut buf).map_err(|e| e.in_protocol(P))? {
            0 => ("Request", RyMessage::Request),
            1 => ("Privilege", RyMessage::Privilege),
            t => return Err(WireError::BadTag(t).in_protocol(P)),
        };
        framed(P, variant, || finish(&buf, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One example per variant of every baseline message enum; the
    /// exhaustive per-variant property coverage lives in
    /// `tests/prop_wire_roundtrip.rs`.
    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.encode_wire();
        assert_eq!(M::decode_wire(bytes.clone()).as_ref(), Ok(&msg));
        // Strictness: every strict prefix fails, and trailing bytes fail.
        for cut in 0..bytes.len() {
            assert!(
                M::decode_wire(bytes.slice(..cut)).is_err(),
                "{}: {cut}-byte prefix of {msg:?} decoded",
                M::PROTOCOL
            );
        }
        let mut padded = BytesMut::with_capacity(bytes.len() + 1);
        padded.put_slice(bytes.as_slice());
        padded.put_u8(0);
        let err = M::decode_wire(padded.freeze())
            .expect_err(&format!("{}: trailing byte accepted", M::PROTOCOL));
        assert_eq!(err.kind(), &WireError::Trailing(1));
        assert_eq!(
            err.protocol(),
            Some(M::PROTOCOL),
            "the error must name the protocol it happened in"
        );
    }

    #[test]
    fn every_baseline_variant_roundtrips_strictly() {
        roundtrip(RaMessage::Request { ts: 42 });
        roundtrip(RaMessage::Reply);
        roundtrip(RdMessage::Request { ts: u64::MAX });
        roundtrip(RdMessage::Reply);
        roundtrip(LpMessage::Request { ts: 7 });
        roundtrip(LpMessage::Ack { ts: 8 });
        roundtrip(LpMessage::Release { ts: 9 });
        roundtrip(MkMessage::Request { ts: 3 });
        roundtrip(MkMessage::Locked);
        roundtrip(MkMessage::Failed);
        roundtrip(MkMessage::Inquire);
        roundtrip(MkMessage::Yield);
        roundtrip(MkMessage::Release);
        roundtrip(SkMessage::Request { seq: 11 });
        roundtrip(SkMessage::Token(Box::new(Token {
            last_served: vec![0, 3, 9, u64::MAX],
            queue: VecDeque::from([NodeId::new(2), NodeId::new(0)]),
        })));
        roundtrip(SkMessage::Token(Box::new(Token {
            last_served: Vec::new(),
            queue: VecDeque::new(),
        })));
        roundtrip(RyMessage::Request);
        roundtrip(RyMessage::Privilege);
    }

    #[test]
    fn bad_tags_are_rejected_per_protocol() {
        fn bad_tag<M: WireCodec + std::fmt::Debug>(buf: Bytes, tag: u8) {
            let err = M::decode_wire(buf).expect_err("bad tag accepted");
            assert_eq!(err.kind(), &WireError::BadTag(tag));
            assert_eq!(err.protocol(), Some(M::PROTOCOL));
        }
        bad_tag::<RaMessage>(bare(9), 9);
        bad_tag::<RdMessage>(bare(7), 7);
        bad_tag::<LpMessage>(tagged_u64(3, 0), 3);
        bad_tag::<MkMessage>(bare(6), 6);
        bad_tag::<SkMessage>(bare(2), 2);
        bad_tag::<RyMessage>(bare(2), 2);
    }

    #[test]
    fn token_length_overflow_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(1); // Token
        buf.put_u32(u32::MAX); // absurd LN length
        let err = SkMessage::decode_wire(buf.freeze()).expect_err("overflow accepted");
        assert!(matches!(err.kind(), WireError::LengthOverflow(_)));
        assert_eq!(
            err.to_string(),
            "Broadcast/Token: implausible length prefix 4294967295",
            "the error must name the offending frame"
        );
    }

    #[test]
    fn empty_input_is_truncated_for_every_protocol() {
        let empty = Bytes::new();
        for err in [
            RaMessage::decode_wire(empty.clone()).unwrap_err(),
            SkMessage::decode_wire(empty.clone()).unwrap_err(),
            RyMessage::decode_wire(empty).unwrap_err(),
        ] {
            assert_eq!(err.kind(), &WireError::Truncated);
            assert!(err.protocol().is_some());
        }
    }

    #[test]
    fn truncated_payload_names_the_variant() {
        // A Lamport Request tag with no timestamp: the error should say
        // which of the 20 wire variants was being parsed.
        let err = LpMessage::decode_wire(bare(0)).unwrap_err();
        assert_eq!(err.to_string(), "Lamport/Request: truncated message");
    }
}
