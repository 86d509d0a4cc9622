//! The probe must see every CS and every message on every tier.
//!
//! Guards against a probe that silently records nothing — the trap being
//! `on_cs_granted`, which the runtime's `NodeDriver` never calls — and so
//! against empty latency histograms behind plausible-looking medians.

use std::time::Instant;

use rcv_benchmark::probe::{Capture, NodeRecord, Probe};
use rcv_benchmark::workloads::{run_tier, Tier, TierSpec, DELAY};
use rcv_core::{RcvMessage, RcvNode};
use rcv_runtime::wire::WireCodec;
use rcv_simnet::{Engine, NodeId, SimConfig};
use rcv_workload::SaturationWorkload;

const N: usize = 3;
const ROUNDS: u32 = 4;

fn full_probe(epoch: Instant) -> impl Fn(NodeId, usize) -> Probe<RcvNode> + Clone + Send {
    move |id, n| {
        let capture = Capture {
            stride: 1,
            max_bytes: 1 << 20,
            encode: |m: &RcvMessage| m.encode_wire(),
        };
        Probe::full(id, RcvNode::new(id, n), epoch, capture)
    }
}

/// `N × ROUNDS` acquire samples and `cs` spans; one `on_message` span,
/// one delivered-message count and one sampled message per message sent.
fn check(tier: &str, records: &[NodeRecord], messages: u64) {
    let expected = N as u64 * ROUNDS as u64;
    let samples: u64 = records.iter().map(|r| r.acquire.count()).sum();
    assert_eq!(samples, expected, "{tier}: acquire samples");
    let traces = || {
        records
            .iter()
            .map(|r| r.trace.as_ref().expect("full probe"))
    };
    let spans = |handler: Option<usize>| {
        traces()
            .flat_map(|t| &t.spans)
            .filter(|s| s.handler == handler)
            .count() as u64
    };
    assert_eq!(spans(None), expected, "{tier}: cs spans");
    assert_eq!(spans(Some(0)), messages, "{tier}: on_message spans");
    assert_eq!(spans(Some(1)), expected, "{tier}: on_request spans");
    assert_eq!(spans(Some(2)), expected, "{tier}: on_release spans");
    let delivered: u64 = records.iter().map(|r| r.msgs_in).sum();
    assert_eq!(delivered, messages, "{tier}: delivered messages");
    let sent: u64 = traces().flat_map(|t| &t.sent).map(|s| s.1).sum();
    assert_eq!(
        sent, messages,
        "{tier}: messages read from the handlers' intents"
    );
    let sampled: u64 = traces().map(|t| t.captured.len() as u64).sum();
    assert_eq!(sampled, messages, "{tier}: sampled messages at stride 1");
    // Every handler span that ran while its node had a request open names
    // that request; a cs span is never shorter than its handler children.
    for t in traces() {
        let cs: Vec<_> = t.spans.iter().filter(|s| s.handler.is_none()).collect();
        for h in t.spans.iter().filter(|s| s.handler.is_some()) {
            let Some(seq) = h.cs_seq else { continue };
            let parent = cs.iter().find(|c| c.cs_seq == Some(seq)).expect("parent");
            assert!(parent.start_ns <= h.start_ns && h.end_ns <= parent.end_ns);
        }
    }
}

#[test]
fn probe_sees_every_cs_and_message_on_the_simulator() {
    let make = full_probe(Instant::now());
    let (report, probes) = Engine::new(
        SimConfig::paper_non_fifo(N, 7),
        SaturationWorkload::new(N, ROUNDS - 1),
        make,
    )
    .run_collecting();
    assert!(report.is_safe() && report.all_completed());
    let records: Vec<NodeRecord> = probes.into_iter().map(|p| p.into_parts().1).collect();
    check("simnet", &records, report.metrics.messages_sent());
}

fn tier_selftest(tier: Tier, name: &str) {
    let spec = TierSpec {
        n: N,
        rounds: ROUNDS,
        delay: DELAY,
        seed: 7,
        tag: "rcv",
    };
    let run = run_tier(tier, spec, full_probe(Instant::now()), |p| {
        p.record().clone()
    });
    assert!(run.clean, "{name}: run is not clean");
    assert_eq!(run.completed, N as u64 * ROUNDS as u64);
    check(name, &run.harvest, run.messages);
}

#[test]
fn probe_sees_every_cs_and_message_on_threads() {
    tier_selftest(Tier::Thread, "threads");
}

#[test]
fn probe_sees_every_cs_and_message_on_uds() {
    tier_selftest(Tier::Uds, "uds");
}
