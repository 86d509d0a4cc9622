//! Binary wire codec for [`RcvMessage`] — proof that the protocol's
//! messages are plain data that can cross a real network, with no shared
//! memory behind the scenes (system model, paper §3).
//!
//! The format is a straightforward length-prefixed layout built with
//! `bytes`:
//!
//! ```text
//! message   := tag:u8 payload
//! tag       := 0 (RM) | 1 (EM) | 2 (IM)
//! tuple     := node:u32 ts:u64
//! list<T>   := len:u32 T*
//! row       := ts:u64 list<tuple>
//! body      := list<tuple> (MONL)  list<row> (MSIT)
//! RM        := tuple (home) list<u32> (UL) body
//! EM        := tuple (for_req) body
//! IM        := tuple (pred) tuple (next) body
//! ```
//!
//! The threaded cluster round-trips every message through its codec on
//! delivery when [`verifying_hook`] is installed as its wire hook; the
//! socket tier always does.
//!
//! The [`WireCodec`] trait extends the same guarantee to **every** message
//! type in the workspace: RCV plus all baseline algorithms (see
//! [`baselines`]). Decoders are strict — trailing garbage is an error, a
//! strict prefix of a valid encoding is an error, and adversarial bytes
//! must never panic (property-tested in `tests/prop_wire_roundtrip.rs`).

pub mod baselines;

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rcv_core::{MsgBody, Nonl, Nsit, RcvMessage, ReqTuple};
use rcv_simnet::NodeId;

use crate::cluster::WireHook;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A length prefix exceeded the sanity limit.
    LengthOverflow(u32),
    /// Bytes remained after a complete message (this many).
    Trailing(usize),
    /// Structurally well-formed but semantically invalid content (e.g. a
    /// string field that is not UTF-8).
    Malformed(&'static str),
    /// A decode failure annotated with the protocol (and, when the tag was
    /// readable, the message variant) it happened in — with 20 message
    /// variants across 7 protocols on the wire, an anonymous `Truncated`
    /// names nothing a human can act on.
    Framed {
        /// Protocol label ([`WireCodec::PROTOCOL`] or a control-plane tag).
        protocol: &'static str,
        /// Message variant, when the tag had been parsed before the error.
        variant: Option<&'static str>,
        /// The underlying structural error.
        cause: Box<WireError>,
    },
}

impl WireError {
    /// Wraps a structural error with protocol + variant context. No-op on
    /// an already-framed error, so the innermost (most precise) frame wins.
    pub fn in_variant(self, protocol: &'static str, variant: &'static str) -> Self {
        match self {
            WireError::Framed { .. } => self,
            cause => WireError::Framed {
                protocol,
                variant: Some(variant),
                cause: Box::new(cause),
            },
        }
    }

    /// Wraps a structural error with protocol context only (the variant
    /// tag itself was unreadable or unknown).
    pub fn in_protocol(self, protocol: &'static str) -> Self {
        match self {
            WireError::Framed { .. } => self,
            cause => WireError::Framed {
                protocol,
                variant: None,
                cause: Box::new(cause),
            },
        }
    }

    /// The underlying structural error, stripped of any `Framed` context.
    pub fn kind(&self) -> &WireError {
        match self {
            WireError::Framed { cause, .. } => cause.kind(),
            other => other,
        }
    }

    /// The protocol named by the outermost frame, if any.
    pub fn protocol(&self) -> Option<&'static str> {
        match self {
            WireError::Framed { protocol, .. } => Some(protocol),
            _ => None,
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::LengthOverflow(l) => write!(f, "implausible length prefix {l}"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Framed {
                protocol,
                variant: Some(v),
                cause,
            } => write!(f, "{protocol}/{v}: {cause}"),
            WireError::Framed {
                protocol,
                variant: None,
                cause,
            } => write!(f, "{protocol}: {cause}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Runs a parse step and frames any error with protocol + variant.
pub(crate) fn framed<T>(
    protocol: &'static str,
    variant: &'static str,
    f: impl FnOnce() -> Result<T, WireError>,
) -> Result<T, WireError> {
    f().map_err(|e| e.in_variant(protocol, variant))
}

const MAX_LEN: u32 = 1 << 20;

/// The checked primitive readers every decoder of this crate goes through
/// (this module, [`baselines`] and the control frames of
/// `transport::frame`): a short buffer is `Truncated`, never a panic.
pub(crate) fn need(buf: &Bytes, bytes: usize) -> Result<(), WireError> {
    if buf.remaining() < bytes {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

pub(crate) fn get_u16(buf: &mut Bytes) -> Result<u16, WireError> {
    need(buf, 2)?;
    Ok(buf.get_u16())
}

pub(crate) fn get_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    need(buf, 4)?;
    Ok(buf.get_u32())
}

pub(crate) fn get_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    need(buf, 8)?;
    Ok(buf.get_u64())
}

/// A list length, bounded by the sanity limit.
pub(crate) fn get_len(buf: &mut Bytes) -> Result<u32, WireError> {
    let len = get_u32(buf)?;
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    Ok(len)
}

/// A presence byte: 0 or 1.
pub(crate) fn get_flag(buf: &mut Bytes) -> Result<bool, WireError> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

/// A message type with a self-contained binary wire format.
///
/// Implementations must uphold, for every value `m`:
///
/// * **round-trip**: `decode_wire(encode_wire(&m)) == Ok(m)`;
/// * **strictness**: decoding any strict prefix of `encode_wire(&m)`, or
///   the encoding followed by trailing bytes, returns `Err`;
/// * **total decoding**: `decode_wire` returns `Err` (never panics) on
///   arbitrary byte soup.
pub trait WireCodec: Sized {
    /// Protocol label used in diagnostics ("RCV", "Ricart", …).
    const PROTOCOL: &'static str;

    /// Serializes the message.
    fn encode_wire(&self) -> Bytes;

    /// Parses a message, consuming the whole buffer.
    fn decode_wire(buf: Bytes) -> Result<Self, WireError>;
}

/// Finishes a strict decode: `v` is the parsed message, `buf` must be
/// fully consumed.
pub(crate) fn finish<T>(buf: &Bytes, v: T) -> Result<T, WireError> {
    if buf.remaining() == 0 {
        Ok(v)
    } else {
        Err(WireError::Trailing(buf.remaining()))
    }
}

/// A [`WireHook`] that serializes every message to bytes and parses it
/// back on delivery, panicking loudly if the codec is lossy — the proof
/// that the protocol state crossing the network is plain data.
pub fn verifying_hook<M>() -> WireHook<M>
where
    M: WireCodec + PartialEq + core::fmt::Debug + Send + Sync + 'static,
{
    Arc::new(|msg: M| {
        let bytes = msg.encode_wire();
        let decoded = M::decode_wire(bytes).unwrap_or_else(|e| {
            panic!(
                "{} wire codec failed to round-trip a live message: {e} ({msg:?})",
                M::PROTOCOL
            )
        });
        assert_eq!(
            decoded,
            msg,
            "{} wire codec round-trip altered a message",
            M::PROTOCOL
        );
        decoded
    })
}

fn put_tuple(buf: &mut BytesMut, t: &ReqTuple) {
    buf.put_u32(t.node.raw());
    buf.put_u64(t.ts);
}

/// Reads one tuple and raises `nodes`, the number of table rows the
/// message's node ids imply so far, to cover it.
fn get_tuple(buf: &mut Bytes, nodes: &mut u32) -> Result<ReqTuple, WireError> {
    let node = get_u32(buf)?;
    let ts = get_u64(buf)?;
    // The packed row storage holds 16-bit node ids and 48-bit timestamps;
    // the codec is the trust boundary, so out-of-domain values are a
    // decode error here, not a panic in `Mnl::push` later.
    if node > rcv_core::MAX_PACKED_NODE {
        return Err(WireError::Malformed("tuple node id out of range"));
    }
    if ts > rcv_core::MAX_PACKED_TS {
        return Err(WireError::Malformed("tuple timestamp out of range"));
    }
    *nodes = (*nodes).max(node + 1);
    Ok(ReqTuple::new(NodeId::new(node), ts))
}

fn put_tuple_list(buf: &mut BytesMut, len: usize, items: impl Iterator<Item = ReqTuple>) {
    buf.put_u32(len as u32);
    for t in items {
        put_tuple(buf, &t);
    }
}

fn put_body(buf: &mut BytesMut, body: &MsgBody) {
    put_tuple_list(buf, body.monl.len(), body.monl.iter().copied());
    buf.put_u32(body.msit.n() as u32);
    for (_, row) in body.msit.iter() {
        buf.put_u64(row.ts);
        put_tuple_list(buf, row.mnl.len(), row.mnl.iter());
    }
}

/// Reads the body, the last field of every variant. `nodes` arrives
/// covering the header's node ids; a message naming a node its own table
/// has no row for is rejected here — the receiver indexes rows by node id.
fn get_body(buf: &mut Bytes, mut nodes: u32) -> Result<MsgBody, WireError> {
    let monl_len = get_len(buf)?;
    let mut monl = Nonl::new();
    for _ in 0..monl_len {
        monl.append(get_tuple(buf, &mut nodes)?);
    }
    let n = get_len(buf)?;
    let mut msit = Nsit::new(n as usize);
    for i in 0..n {
        let ts = get_u64(buf)?;
        let row = msit.row_mut(NodeId::new(i));
        row.ts = ts;
        let mnl_len = get_len(buf)?;
        for _ in 0..mnl_len {
            row.mnl.push(get_tuple(buf, &mut nodes)?);
        }
    }
    if nodes > n {
        return Err(WireError::Malformed("node id beyond the message's table"));
    }
    Ok(MsgBody { monl, msit })
}

/// Serializes an [`RcvMessage`].
pub fn encode(msg: &RcvMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match msg {
        RcvMessage::Rm { home, ul, body } => {
            buf.put_u8(0);
            put_tuple(&mut buf, home);
            buf.put_u32(ul.len() as u32);
            for h in ul {
                buf.put_u32(h.raw());
            }
            put_body(&mut buf, body);
        }
        RcvMessage::Em { for_req, body } => {
            buf.put_u8(1);
            put_tuple(&mut buf, for_req);
            put_body(&mut buf, body);
        }
        RcvMessage::Im { pred, next, body } => {
            buf.put_u8(2);
            put_tuple(&mut buf, pred);
            put_tuple(&mut buf, next);
            put_body(&mut buf, body);
        }
        RcvMessage::Rv { body } => {
            buf.put_u8(3);
            put_body(&mut buf, body);
        }
    }
    buf.freeze()
}

/// Deserializes an [`RcvMessage`]. Strict: the whole buffer must be one
/// message — trailing bytes are a [`WireError::Trailing`] error. Failures
/// come back [`WireError::Framed`] with the protocol/variant they hit.
pub fn decode(mut buf: Bytes) -> Result<RcvMessage, WireError> {
    const P: &str = <RcvMessage as WireCodec>::PROTOCOL;
    let tag = get_u8(&mut buf).map_err(|e| e.in_protocol(P))?;
    let variant = match tag {
        0 => "Rm",
        1 => "Em",
        2 => "Im",
        3 => "Rv",
        t => return Err(WireError::BadTag(t).in_protocol(P)),
    };
    let msg = framed(P, variant, || {
        let mut nodes = 0u32;
        Ok(match tag {
            0 => {
                let home = get_tuple(&mut buf, &mut nodes)?;
                let ul_len = get_len(&mut buf)?;
                let mut ul = Vec::with_capacity(ul_len as usize);
                for _ in 0..ul_len {
                    let hop = get_u32(&mut buf)?;
                    nodes = nodes.max(hop.saturating_add(1));
                    ul.push(NodeId::new(hop));
                }
                let body = get_body(&mut buf, nodes)?;
                RcvMessage::Rm { home, ul, body }
            }
            1 => {
                let for_req = get_tuple(&mut buf, &mut nodes)?;
                let body = get_body(&mut buf, nodes)?;
                RcvMessage::Em { for_req, body }
            }
            2 => {
                let pred = get_tuple(&mut buf, &mut nodes)?;
                let next = get_tuple(&mut buf, &mut nodes)?;
                let body = get_body(&mut buf, nodes)?;
                RcvMessage::Im { pred, next, body }
            }
            _ => {
                let body = get_body(&mut buf, nodes)?;
                RcvMessage::Rv { body }
            }
        })
    })?;
    framed(P, variant, || finish(&buf, msg))
}

impl WireCodec for RcvMessage {
    const PROTOCOL: &'static str = "RCV";

    fn encode_wire(&self) -> Bytes {
        encode(self)
    }

    fn decode_wire(buf: Bytes) -> Result<Self, WireError> {
        decode(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    fn sample_body() -> MsgBody {
        let mut monl = Nonl::new();
        monl.append(t(1, 3));
        monl.append(t(0, 2));
        let mut msit = Nsit::new(3);
        msit.row_mut(NodeId::new(0)).ts = 7;
        msit.row_mut(NodeId::new(0)).mnl.push(t(2, 1));
        msit.row_mut(NodeId::new(2)).ts = 4;
        msit.row_mut(NodeId::new(2)).mnl.push(t(2, 1));
        msit.row_mut(NodeId::new(2)).mnl.push(t(0, 2));
        MsgBody { monl, msit }
    }

    #[test]
    fn rm_roundtrip() {
        let msg = RcvMessage::Rm {
            home: t(0, 2),
            ul: vec![NodeId::new(1), NodeId::new(2)],
            body: sample_body(),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn em_roundtrip() {
        let msg = RcvMessage::Em {
            for_req: t(1, 3),
            body: sample_body(),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn im_roundtrip() {
        let msg = RcvMessage::Im {
            pred: t(0, 2),
            next: t(1, 3),
            body: sample_body(),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn rv_roundtrip() {
        let msg = RcvMessage::Rv {
            body: sample_body(),
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn empty_structures_roundtrip() {
        let msg = RcvMessage::Em {
            for_req: t(0, 1),
            body: MsgBody {
                monl: Nonl::new(),
                msit: Nsit::new(1),
            },
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn truncation_is_detected() {
        let full = encode(&RcvMessage::Em {
            for_req: t(1, 3),
            body: sample_body(),
        });
        for cut in 0..full.len() {
            let partial = full.slice(..cut);
            assert!(
                decode(partial).is_err(),
                "decoding a {cut}-byte prefix of a {}-byte message succeeded",
                full.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let full = encode(&RcvMessage::Em {
            for_req: t(1, 3),
            body: sample_body(),
        });
        let mut extended = BytesMut::with_capacity(full.len() + 1);
        extended.put_slice(full.as_slice());
        extended.put_u8(0xAA);
        let err = decode(extended.freeze()).expect_err("trailing garbage must not decode");
        assert_eq!(err.kind(), &WireError::Trailing(1));
        assert_eq!(
            err.to_string(),
            "RCV/Em: 1 trailing byte(s) after message",
            "the error must name the protocol and variant"
        );
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        let err = decode(buf.freeze()).expect_err("bad tag must not decode");
        assert_eq!(err.kind(), &WireError::BadTag(9));
        assert_eq!(err.protocol(), Some("RCV"));
    }

    #[test]
    fn length_overflow_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(1); // EM
        buf.put_u32(0); // for_req node
        buf.put_u64(1); // for_req ts
        buf.put_u32(u32::MAX); // absurd MONL length
        let err = decode(buf.freeze()).expect_err("overflow must not decode");
        assert!(matches!(err.kind(), WireError::LengthOverflow(_)));
        assert_eq!(
            err.to_string(),
            "RCV/Em: implausible length prefix 4294967295"
        );
    }

    #[test]
    fn node_ids_beyond_the_messages_own_table_are_rejected() {
        // Each encodes fine and used to decode too — and then index past
        // the receiver's tables in Exchange. Node 9 of 3 in the MONL, in a
        // row, in the header and in the UL:
        let mut in_monl = sample_body();
        in_monl.monl.append(t(9, 1));
        let mut in_row = sample_body();
        in_row.msit.row_mut(NodeId::new(1)).mnl.push(t(9, 1));
        let bad = [
            RcvMessage::Rv { body: in_monl },
            RcvMessage::Rv { body: in_row },
            RcvMessage::Em {
                for_req: t(9, 1),
                body: sample_body(),
            },
            RcvMessage::Im {
                pred: t(0, 2),
                next: t(3, 1),
                body: sample_body(),
            },
            RcvMessage::Rm {
                home: t(0, 2),
                ul: vec![NodeId::new(1), NodeId::new(u32::MAX)],
                body: sample_body(),
            },
        ];
        for msg in bad {
            let err = decode(encode(&msg)).expect_err("out-of-table node id must not decode");
            assert_eq!(
                err.kind(),
                &WireError::Malformed("node id beyond the message's table"),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn framing_context_does_not_nest() {
        let inner = WireError::Truncated.in_variant("RCV", "Rm");
        let rewrapped = inner.clone().in_variant("Ricart", "Reply");
        assert_eq!(rewrapped, inner, "the innermost frame must win");
        assert_eq!(rewrapped.kind(), &WireError::Truncated);
    }
}
