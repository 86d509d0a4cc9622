//! Socket-framing torture tests: the hub-ctl frame codec under every
//! fragmentation the kernel can produce, plus the corruption cases the
//! decoder must refuse rather than misparse.
//!
//! [`FrameBuf`] is the *only* path from socket bytes to control frames,
//! so proving it over every byte-boundary split proves the process tier
//! is immune to partial reads and short writes by construction.

use std::time::Duration;

use rcv_runtime::transport::frame::{
    encode_frame, hello, validate_hello, CtrlFrame, FrameBuf, WorkerReport, HELLO_MAGIC, MAX_FRAME,
    SCHEMA_VERSION,
};
use rcv_runtime::wire::WireError;
use rcv_runtime::{NetDelay, NodeSpec};
use rcv_simnet::{NodeId, RetryPolicy};

/// A frame of every variant, with the fiddliest field shapes represented
/// (a full node spec with retry + crash window, non-empty payloads, non-ASCII
/// strings).
fn menagerie() -> Vec<CtrlFrame> {
    vec![
        hello(2, "maekawa-fpp"),
        CtrlFrame::Reject {
            reason: "schema version mismatch: worker speaks v9".into(),
        },
        CtrlFrame::Start {
            node: Box::new(NodeSpec {
                node: NodeId::new(1),
                n: 5,
                seed: 0xDEAD_BEEF_CAFE_F00D,
                rounds: 3,
                think: Duration::from_micros(250),
                cs_duration: Duration::from_micros(400),
                delay: NetDelay::Uniform {
                    min: Duration::from_micros(20),
                    max: Duration::from_micros(200),
                },
                tick: Duration::from_micros(100),
                crash: Some((40, 90)),
                retry: Some(RetryPolicy::fixed(2_000)),
                restartable: true,
            }),
            cs_log: "/tmp/rcv-cs-log-λ".into(),
        },
        CtrlFrame::Send {
            to: 4,
            delay_us: 12_345,
            payload: vec![0u8, 1, 2, 253, 254, 255].into(),
        },
        CtrlFrame::Deliver {
            from: 3,
            payload: vec![9u8; 300].into(),
        },
        CtrlFrame::Done { node: 0 },
        CtrlFrame::Report(WorkerReport {
            node: 4,
            completed: 3,
            messages: 41,
            crash_dropped: 2,
            restarts: 1,
            anomalies: 7,
        }),
        CtrlFrame::Fault {
            node: 2,
            detail: "RCV/Rm: truncated message".into(),
        },
        CtrlFrame::Shutdown,
    ]
}

fn wire_bytes(frames: &[CtrlFrame]) -> Vec<u8> {
    let mut stream = Vec::new();
    for f in frames {
        stream.extend_from_slice(encode_frame(f).as_ref());
    }
    stream
}

fn decode_all(fb: &mut FrameBuf) -> Vec<CtrlFrame> {
    let mut out = Vec::new();
    while let Some(f) = fb.next_frame().expect("valid stream") {
        out.push(f);
    }
    out
}

/// The whole menagerie, delivered one byte at a time — the worst-case
/// fragmentation a TCP stack can produce — decodes identically to the
/// originals, and the buffer ends empty.
#[test]
fn byte_at_a_time_delivery_reassembles_every_variant() {
    let frames = menagerie();
    let stream = wire_bytes(&frames);
    let mut fb = FrameBuf::new();
    let mut got = Vec::new();
    for b in &stream {
        fb.extend(std::slice::from_ref(b));
        got.extend(decode_all(&mut fb));
    }
    assert_eq!(got, frames);
    assert_eq!(fb.pending(), 0);
}

/// Every two-chunk split of the stream — a frame cut at *every* byte
/// boundary, including mid-length-prefix — reassembles losslessly.
#[test]
fn split_at_every_byte_boundary_reassembles() {
    let frames = menagerie();
    let stream = wire_bytes(&frames);
    for cut in 0..=stream.len() {
        let mut fb = FrameBuf::new();
        fb.extend(&stream[..cut]);
        let mut got = decode_all(&mut fb);
        fb.extend(&stream[cut..]);
        got.extend(decode_all(&mut fb));
        assert_eq!(got, frames, "split at byte {cut}");
        assert_eq!(fb.pending(), 0, "split at byte {cut}");
    }
}

/// Short writes: chunk sizes from 1 byte up to the whole stream, in every
/// size, all reassemble to the same frame sequence.
#[test]
fn every_chunk_size_reassembles() {
    let frames = menagerie();
    let stream = wire_bytes(&frames);
    for chunk in 1..=stream.len() {
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            fb.extend(piece);
            got.extend(decode_all(&mut fb));
        }
        assert_eq!(got, frames, "chunk size {chunk}");
    }
}

/// A length prefix above [`MAX_FRAME`] is rejected from the prefix alone —
/// no attempt to buffer a multi-gigabyte "frame" a hostile or corrupt
/// peer announces.
#[test]
fn oversized_length_prefix_is_rejected_immediately() {
    let mut fb = FrameBuf::new();
    fb.extend(&((MAX_FRAME as u32) + 1).to_be_bytes());
    let err = fb.next_frame().expect_err("oversized length must error");
    match err {
        WireError::Framed {
            protocol, cause, ..
        } => {
            assert_eq!(protocol, "hub-ctl");
            assert_eq!(*cause, WireError::LengthOverflow(MAX_FRAME as u32 + 1));
        }
        other => panic!("expected framed LengthOverflow, got {other:?}"),
    }
}

/// A body shorter than its fields claim fails as a *framed* error naming
/// the protocol and the variant it died in — the context satellite #3
/// threads into orchestrator fault reports.
#[test]
fn truncated_body_reports_protocol_and_variant() {
    let frame = CtrlFrame::Fault {
        node: 2,
        detail: "boom".into(),
    };
    let encoded = encode_frame(&frame);
    let body = &encoded.as_ref()[4..];
    let truncated = &body[..body.len() - 1];
    let mut fb = FrameBuf::new();
    fb.extend(&(truncated.len() as u32).to_be_bytes());
    fb.extend(truncated);
    match fb.next_frame().expect_err("truncated body must error") {
        WireError::Framed {
            protocol,
            variant,
            cause,
        } => {
            assert_eq!(protocol, "hub-ctl");
            assert_eq!(variant, Some("Fault"));
            assert_eq!(*cause, WireError::Truncated);
        }
        other => panic!("expected framed Truncated, got {other:?}"),
    }
}

/// Unknown frame tags are refused (with the offending tag), not skipped:
/// after one, nothing on the stream can be trusted.
#[test]
fn unknown_tag_is_rejected_with_the_tag() {
    let mut fb = FrameBuf::new();
    fb.extend(&1u32.to_be_bytes());
    fb.extend(&[99u8]);
    match fb.next_frame().expect_err("bad tag must error") {
        WireError::Framed { cause, .. } => assert_eq!(*cause, WireError::BadTag(99)),
        other => panic!("expected framed BadTag, got {other:?}"),
    }
}

/// Trailing garbage inside a frame's claimed length is an error, not
/// silently discarded bytes.
#[test]
fn trailing_bytes_inside_a_frame_are_rejected() {
    let encoded = encode_frame(&CtrlFrame::Done { node: 1 });
    let body = &encoded.as_ref()[4..];
    let mut padded = body.to_vec();
    padded.push(0xAB);
    let mut fb = FrameBuf::new();
    fb.extend(&(padded.len() as u32).to_be_bytes());
    fb.extend(&padded);
    match fb.next_frame().expect_err("trailing byte must error") {
        WireError::Framed { variant, cause, .. } => {
            assert_eq!(variant, Some("Done"));
            assert_eq!(*cause, WireError::Trailing(1));
        }
        other => panic!("expected framed Trailing, got {other:?}"),
    }
}

/// The handshake validator refuses every off-nominal `Hello`: wrong
/// schema version (a v2 worker against a v3 hub), wrong magic, wrong
/// protocol, out-of-range node, duplicate node — and names the reason.
#[test]
fn handshake_rejects_every_mismatch_with_a_reason() {
    let taken = [false, true, false];
    let ok = validate_hello(&hello(0, "lamport"), 3, "lamport", &taken);
    assert_eq!(ok, Ok(0));

    let stale = CtrlFrame::Hello {
        magic: HELLO_MAGIC,
        version: SCHEMA_VERSION - 1,
        node: 0,
        protocol: "lamport".into(),
    };
    let err = validate_hello(&stale, 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("schema version mismatch"), "{err}");

    let imposter = CtrlFrame::Hello {
        magic: 0x0BAD_F00D,
        version: SCHEMA_VERSION,
        node: 0,
        protocol: "lamport".into(),
    };
    let err = validate_hello(&imposter, 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("bad magic"), "{err}");

    let err = validate_hello(&hello(0, "raymond"), 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("protocol mismatch"), "{err}");

    let err = validate_hello(&hello(7, "lamport"), 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("out of range"), "{err}");

    let err = validate_hello(&hello(1, "lamport"), 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("already connected"), "{err}");

    let err = validate_hello(&CtrlFrame::Shutdown, 3, "lamport", &taken).unwrap_err();
    assert!(err.contains("expected Hello"), "{err}");
}
