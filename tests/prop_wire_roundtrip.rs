//! Property battery for the binary wire codecs of **every** message type
//! in the workspace — RCV plus all six baseline message enums.
//!
//! For arbitrary messages of each protocol:
//!
//! * encode → decode must round-trip to an equal message;
//! * every strict prefix of a valid encoding must `Err` (never panic);
//! * a valid encoding with trailing bytes must `Err`;
//! * a valid encoding with one byte flipped must never panic (it may
//!   decode to a different valid message — a flipped timestamp byte is
//!   still a well-formed message — but it must not crash the decoder);
//! * pure byte soup must never panic;
//! * whatever the RCV decoder accepts — a valid message, a byte-flipped
//!   one, soup — can be handed to an `RcvNode` without panicking it: the
//!   decoder is the trust boundary for everything Exchange indexes by.
//!
//! A deterministic companion test pins one example per enum variant, so
//! "every variant is covered" does not depend on sampler luck.

use bytes::Bytes;
use proptest::prelude::*;
use rcv::baselines::{LpMessage, MkMessage, RaMessage, RdMessage, RyMessage, SkMessage, Token};
use rcv::core::{MsgBody, Nonl, Nsit, RcvMessage, RcvNode, ReqTuple};
use rcv::runtime::wire::WireCodec;
use rcv::simnet::{Ctx, MutexProtocol, NodeId, SimTime};

/// A raw `(node, ts)` pair; [`tuple_in`] folds the node into a table size.
fn arb_tuple() -> impl Strategy<Value = (u32, u64)> {
    (0u32..64, 0u64..1_000_000)
}

/// The tuple a well-formed message of an `n`-row table may carry.
fn tuple_in(n: usize, (node, ts): (u32, u64)) -> ReqTuple {
    ReqTuple::new(NodeId::new(node % n as u32), ts)
}

/// A body and its table size, so header fields can stay inside it (half
/// the bodies have the three rows the delivery property's node expects).
fn arb_body() -> impl Strategy<Value = (usize, MsgBody)> {
    (
        proptest::collection::vec(arb_tuple(), 0..6),
        prop_oneof![Just(3usize), 1usize..5],
        proptest::collection::vec(
            (0u64..100, proptest::collection::vec(arb_tuple(), 0..4)),
            0..5,
        ),
    )
        .prop_map(|(monl_tuples, n, rows)| {
            let mut monl = Nonl::new();
            for t in monl_tuples {
                monl.append(tuple_in(n, t));
            }
            let mut msit = Nsit::new(n);
            for (i, (ts, mnl)) in rows.into_iter().enumerate().take(n) {
                let row = msit.row_mut(NodeId::new(i as u32));
                row.ts = ts;
                for t in mnl {
                    row.mnl.push(tuple_in(n, t));
                }
            }
            (n, MsgBody { monl, msit })
        })
}

fn arb_rcv() -> impl Strategy<Value = RcvMessage> {
    prop_oneof![
        (
            arb_tuple(),
            proptest::collection::vec(0u32..64, 0..6),
            arb_body()
        )
            .prop_map(|(home, ul, (n, body))| RcvMessage::Rm {
                home: tuple_in(n, home),
                ul: ul.into_iter().map(|h| NodeId::new(h % n as u32)).collect(),
                body,
            }),
        (arb_tuple(), arb_body()).prop_map(|(for_req, (n, body))| RcvMessage::Em {
            for_req: tuple_in(n, for_req),
            body
        }),
        (arb_tuple(), arb_tuple(), arb_body()).prop_map(|(pred, next, (n, body))| {
            RcvMessage::Im {
                pred: tuple_in(n, pred),
                next: tuple_in(n, next),
                body,
            }
        }),
        arb_body().prop_map(|(_, body)| RcvMessage::Rv { body }),
    ]
}

/// Hands `msg` to an idle node 0 of a 3-node system. Returning at all is
/// the property. (Idle, because a decoder cannot tell a forged grant for
/// the receiver's own request from a real one; the protocol's debug-build
/// lemma checks would, and they are not what is under test.)
fn deliver(msg: RcvMessage) {
    let me = NodeId::new(0);
    let mut node = RcvNode::new(me, 3);
    let mut rng = proptest::test_runner::new_rng(1);
    let (mut outbox, mut enter, mut timers) = (Vec::new(), false, Vec::new());
    let mut ctx = Ctx::new(
        me,
        SimTime::from_ticks(0),
        &mut rng,
        &mut outbox,
        &mut enter,
        &mut timers,
    );
    node.on_message(NodeId::new(1), msg, &mut ctx);
}

fn arb_ra() -> impl Strategy<Value = RaMessage> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|ts| RaMessage::Request { ts }),
        Just(RaMessage::Reply),
    ]
}

fn arb_rd() -> impl Strategy<Value = RdMessage> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|ts| RdMessage::Request { ts }),
        Just(RdMessage::Reply),
    ]
}

fn arb_lp() -> impl Strategy<Value = LpMessage> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|ts| LpMessage::Request { ts }),
        (0u64..u64::MAX).prop_map(|ts| LpMessage::Ack { ts }),
        (0u64..u64::MAX).prop_map(|ts| LpMessage::Release { ts }),
    ]
}

fn arb_mk() -> impl Strategy<Value = MkMessage> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|ts| MkMessage::Request { ts }),
        Just(MkMessage::Locked),
        Just(MkMessage::Failed),
        Just(MkMessage::Inquire),
        Just(MkMessage::Yield),
        Just(MkMessage::Release),
    ]
}

fn arb_sk() -> impl Strategy<Value = SkMessage> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|seq| SkMessage::Request { seq }),
        (
            proptest::collection::vec(0u64..1_000, 0..12),
            proptest::collection::vec(0u32..64, 0..12)
        )
            .prop_map(|(last_served, queue)| {
                SkMessage::Token(Box::new(Token {
                    last_served,
                    queue: queue.into_iter().map(NodeId::new).collect(),
                }))
            }),
    ]
}

fn arb_ry() -> impl Strategy<Value = RyMessage> {
    prop_oneof![Just(RyMessage::Request), Just(RyMessage::Privilege)]
}

/// The shared per-message property: round-trip, strict prefixes,
/// trailing garbage, single-byte mutation.
fn check_codec<M>(msg: M, cut: usize, flip_at: usize, flip: u8) -> Result<(), String>
where
    M: WireCodec + PartialEq + Clone + std::fmt::Debug,
{
    let bytes = msg.encode_wire();
    let name = M::PROTOCOL;

    let decoded =
        M::decode_wire(bytes.clone()).map_err(|e| format!("{name}: round-trip failed: {e}"))?;
    if decoded != msg {
        return Err(format!("{name}: round-trip altered {msg:?} -> {decoded:?}"));
    }

    let cut = cut % bytes.len(); // every encoding is at least 1 byte (tag)
    if M::decode_wire(bytes.slice(..cut)).is_ok() {
        return Err(format!(
            "{name}: {cut}-byte prefix of a {}-byte message decoded",
            bytes.len()
        ));
    }

    let mut padded = bytes.as_ref().to_vec();
    padded.push(0xA5);
    if M::decode_wire(Bytes::from(padded)).is_ok() {
        return Err(format!("{name}: trailing byte accepted"));
    }

    let mut mutated = bytes.as_ref().to_vec();
    let at = flip_at % mutated.len();
    mutated[at] ^= flip;
    // Either verdict is fine; panicking is not (this call crashing fails
    // the test).
    let _ = M::decode_wire(Bytes::from(mutated));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    #[test]
    fn rcv_codec_props(msg in arb_rcv(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn ricart_codec_props(msg in arb_ra(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn ra_dynamic_codec_props(msg in arb_rd(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn lamport_codec_props(msg in arb_lp(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn maekawa_codec_props(msg in arb_mk(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn suzuki_kasami_codec_props(msg in arb_sk(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    #[test]
    fn raymond_codec_props(msg in arb_ry(), cut in 0usize..4096, at in 0usize..4096, flip in 1u8..=255) {
        prop_assert_eq!(check_codec(msg, cut, at, flip), Ok(()));
    }

    /// Valid or byte-flipped, what the RCV decoder lets through must be
    /// safe to run Exchange and Order on.
    #[test]
    fn rcv_decodable_bytes_are_deliverable(msg in arb_rcv(), at in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = msg.encode_wire().as_ref().to_vec();
        deliver(msg);
        let at = at % bytes.len();
        bytes[at] ^= flip;
        if let Ok(mutated) = RcvMessage::decode_wire(Bytes::from(bytes)) {
            deliver(mutated);
        }
    }

    /// Pure byte soup: no decoder may panic, whatever the input — and if
    /// the RCV one finds a message in it, neither may its receiver.
    #[test]
    fn byte_soup_never_panics(soup in proptest::collection::vec(0u8..=255, 0..64)) {
        if let Ok(msg) = RcvMessage::decode_wire(Bytes::from(soup.clone())) {
            deliver(msg);
        }
        let _ = RaMessage::decode_wire(Bytes::from(soup.clone()));
        let _ = RdMessage::decode_wire(Bytes::from(soup.clone()));
        let _ = LpMessage::decode_wire(Bytes::from(soup.clone()));
        let _ = MkMessage::decode_wire(Bytes::from(soup.clone()));
        let _ = SkMessage::decode_wire(Bytes::from(soup.clone()));
        let _ = RyMessage::decode_wire(Bytes::from(soup));
    }
}

/// One pinned example per enum variant across all 7 message types (21
/// variants total): coverage is structural, not sampled.
#[test]
fn every_message_variant_roundtrips() {
    fn rt<M: WireCodec + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.encode_wire();
        assert_eq!(
            M::decode_wire(bytes).as_ref(),
            Ok(&msg),
            "{} variant {msg:?}",
            M::PROTOCOL
        );
    }
    let t = |n: u32, ts: u64| ReqTuple::new(NodeId::new(n), ts);
    let body = || {
        let mut monl = Nonl::new();
        monl.append(t(1, 3));
        let mut msit = Nsit::new(2);
        msit.row_mut(NodeId::new(0)).ts = 7;
        msit.row_mut(NodeId::new(0)).mnl.push(t(1, 3));
        MsgBody { monl, msit }
    };

    // RCV: Rm, Em, Im, Rv.
    rt(RcvMessage::Rv { body: body() });
    rt(RcvMessage::Rm {
        home: t(0, 2),
        ul: vec![NodeId::new(1)],
        body: body(),
    });
    rt(RcvMessage::Em {
        for_req: t(1, 3),
        body: body(),
    });
    rt(RcvMessage::Im {
        pred: t(0, 2),
        next: t(1, 3),
        body: body(),
    });
    // Ricart–Agrawala: Request, Reply.
    rt(RaMessage::Request { ts: 9 });
    rt(RaMessage::Reply);
    // Roucairol–Carvalho: Request, Reply.
    rt(RdMessage::Request { ts: 10 });
    rt(RdMessage::Reply);
    // Lamport: Request, Ack, Release.
    rt(LpMessage::Request { ts: 1 });
    rt(LpMessage::Ack { ts: 2 });
    rt(LpMessage::Release { ts: 3 });
    // Maekawa: Request, Locked, Failed, Inquire, Yield, Release.
    rt(MkMessage::Request { ts: 4 });
    rt(MkMessage::Locked);
    rt(MkMessage::Failed);
    rt(MkMessage::Inquire);
    rt(MkMessage::Yield);
    rt(MkMessage::Release);
    // Suzuki–Kasami: Request, Token.
    rt(SkMessage::Request { seq: 5 });
    rt(SkMessage::Token(Box::new(Token {
        last_served: vec![1, 2],
        queue: [NodeId::new(1)].into_iter().collect(),
    })));
    // Raymond: Request, Privilege.
    rt(RyMessage::Request);
    rt(RyMessage::Privilege);
}
