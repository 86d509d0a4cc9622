//! Pins for the engine's window loop.
//!
//! The engine runs each node's share of a conservative window (events
//! closer than the delay lower bound) on one of two threads and commits
//! the side effects in `(time, seq)` order. That claims bit-identical
//! results whichever thread ran what. This file holds the claim to:
//!
//! * N = 200 RCV burst fingerprints — events, messages, end time, exact
//!   response-time mean and an FNV-1a hash of every node's
//!   `state_digest` — captured with the one-event-at-a-time loop;
//! * a property: every algorithm, constant or uniform delay, no faults, a
//!   crash window, or loss with retransmission, run once with every
//!   multi-node window split onto the helper thread and once inline, gives
//!   the same report and the same final node states;
//! * a `max_events` cut inside a window, also among timers that fire in
//!   the window that armed them, which must stop where the inline loop
//!   stops, node states included;
//! * whole per-layer profile counts when the helper ran handlers.
//!
//! Runs in a few seconds in release mode (`cargo test --release --test
//! window_pins`).

use std::fmt::{self, Debug, Write as _};
use std::hash::Hasher;

use proptest::prelude::*;
use rcv::baselines::{
    Lamport, Maekawa, QuorumSystem, RaDynamic, Raymond, RicartAgrawala, SuzukiKasami,
};
use rcv::core::{RcvConfig, RcvNode};
use rcv::simnet::profile::{self, ProbePhase};
use rcv::simnet::{
    BurstOnce, DelayModel, Engine, FaultPlan, MutexProtocol, NodeId, RetryPolicy, SimConfig,
    SimDuration, SimTime, Workload,
};
use rcv::workload::{Algo, SaturationWorkload};

/// FNV-1a, 64 bit: a hash that is the same on every platform and build.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// FNV of every RCV node's protocol state, in node order.
fn rcv_digest(nodes: &[RcvNode]) -> u64 {
    let mut h = Fnv::new();
    for node in nodes {
        node.state_digest(&mut h);
    }
    h.finish()
}

/// FNV of the `Debug` rendering of `x`: complete for types without hash
/// maps, which holds for every report and node type here.
fn debug_digest(x: &(impl Debug + ?Sized)) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{x:?}").expect("hashing cannot fail");
    h.finish()
}

/// The digest of node types without `Debug`: the trace stands in.
fn opaque<P>(_: &[P]) -> u64 {
    0
}

/// `(seed, events, messages, end ticks, rt mean, node-state FNV)`.
type Pin = (u64, u64, u64, u64, f64, u64);

/// RCV (random forwarding), paper burst at N = 200, captured with the
/// one-event-at-a-time engine loop.
const BURST_N200: [Pin; 3] = [
    (0, 7780, 7380, 3060, 1557.5, 0x252f_bb69_a5e8_747d),
    (1, 7971, 7571, 3050, 1547.5, 0xaf0d_109c_9b0e_2484),
    (2, 7740, 7340, 3045, 1542.5, 0x401a_21f0_56e2_2e4b),
];

fn burst_n200(seed: u64, split_ns: u64) -> (rcv::simnet::SimReport, Vec<RcvNode>) {
    Engine::new(SimConfig::paper(200, seed), BurstOnce, RcvNode::new)
        .split_threshold(split_ns)
        .run_collecting()
}

#[test]
fn n200_bursts_match_the_sequential_pins() {
    for &(seed, events, msgs, end, rt, digest) in &BURST_N200 {
        // Default threshold (splits when it pays), forced split, inline.
        for split_ns in [None, Some(0), Some(u64::MAX)] {
            let engine = Engine::new(SimConfig::paper(200, seed), BurstOnce, RcvNode::new);
            let engine = match split_ns {
                Some(ns) => engine.split_threshold(ns),
                None => engine,
            };
            let (r, nodes) = engine.run_collecting();
            let got = (
                seed,
                r.events,
                r.metrics.messages_sent(),
                r.end_time.ticks(),
                r.metrics.response_time().mean,
                rcv_digest(&nodes),
            );
            assert_eq!(
                got,
                (seed, events, msgs, end, rt, digest),
                "seed {seed}, split threshold {split_ns:?}"
            );
            assert!(r.is_safe() && r.all_completed(), "seed {seed}");
        }
    }
}

#[test]
fn a_cut_inside_a_window_stops_where_the_inline_loop_stops() {
    let run = |split_ns: u64| {
        let mut cfg = SimConfig::paper(200, 0);
        cfg.max_events = 3001;
        Engine::new(cfg, BurstOnce, RcvNode::new)
            .split_threshold(split_ns)
            .run_collecting()
    };
    let (inline, inline_nodes) = run(u64::MAX);
    let (split, split_nodes) = run(0);
    assert!(inline.truncated && split.truncated);
    // The event past the cap is counted, as the sequential loop counts it;
    // end time and node states as captured with that loop.
    assert_eq!((inline.events, inline.end_time.ticks()), (3002, 75));
    assert_eq!(rcv_digest(&inline_nodes), 0xaf0d_e896_e13b_b9b2);
    assert_eq!(debug_digest(&split), debug_digest(&inline));
    assert_eq!(rcv_digest(&split_nodes), rcv_digest(&inline_nodes));
}

/// RCV retransmitting on a 1-tick deadline arms timers that fire inside
/// the 5-tick window that armed them. Wherever `max_events` cuts such a
/// run, the split run must stop where the inline loop stops, with the
/// same node states: no lane may have run an event past the cut.
#[test]
fn a_cut_among_in_window_timers_stops_where_the_inline_loop_stops() {
    for seed in 0..2 {
        for max_events in 1..=120 {
            let run = |split_ns: u64| {
                let mut cfg = SimConfig::paper(12, seed);
                cfg.max_events = max_events;
                let retry = Some(RetryPolicy::fixed(1));
                let (r, nodes) = Engine::new(cfg, BurstOnce, |id, n| {
                    RcvNode::with_config(
                        id,
                        n,
                        RcvConfig {
                            retry,
                            ..RcvConfig::paper()
                        },
                    )
                })
                .split_threshold(split_ns)
                .run_collecting();
                (debug_digest(&r), rcv_digest(&nodes), r.events)
            };
            let inline = run(u64::MAX);
            assert_eq!(run(0), inline, "seed {seed}, max_events {max_events}");
        }
    }
}

#[test]
fn profile_counts_are_whole_with_the_helper() {
    let counts = |split_ns: u64| {
        profile::set_enabled(true);
        let _ = profile::take();
        let (r, _) = burst_n200(1, split_ns);
        let costs = profile::take();
        profile::set_enabled(false);
        assert!(r.all_completed());
        [ProbePhase::Merge, ProbePhase::Normalize, ProbePhase::Order]
            .map(|p| costs[p as usize].count)
    };
    let inline = counts(u64::MAX);
    assert!(inline.iter().all(|&c| c > 0), "{inline:?}");
    assert_eq!(counts(0), inline);
}

/// Runs `cfg` under `workload` inline and with every multi-node window
/// split, and demands the same report and the same `digest` of the final
/// node states from both.
fn same_both_ways<P, W>(
    cfg: &SimConfig,
    workload: impl Fn() -> W,
    make: impl Fn(NodeId, usize) -> P + Copy,
    digest: impl Fn(&[P]) -> u64,
) where
    P: MutexProtocol + Send,
    W: Workload,
{
    let run = |split_ns: u64| {
        let (r, nodes) = Engine::new(cfg.clone(), workload(), make)
            .split_threshold(split_ns)
            .run_collecting();
        (debug_digest(&r), digest(&nodes), r.events)
    };
    let inline = run(u64::MAX);
    assert_eq!(run(0), inline, "{cfg:?}");
}

/// One fault regime of the property.
#[derive(Clone, Copy, Debug)]
enum Regime {
    Clean,
    /// A crash window on one node, early in the run.
    CrashWindow,
    /// Every `k`-th message lost; RCV retransmits on a short deadline, so
    /// its timers fire inside windows.
    LossRetry,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    #[test]
    fn split_windows_match_inline_windows(
        algo_idx in 0usize..8,
        n in 2usize..41,
        seed in 0u64..1_000_000,
        uniform in any::<bool>(),
        regime_idx in 0usize..3,
        rounds in 0u32..3,
        victim in 0u32..40,
        retry_base in 1u64..8,
    ) {
        let algo = Algo::all()[algo_idx];
        let regime = [Regime::Clean, Regime::CrashWindow, Regime::LossRetry][regime_idx];
        let mut cfg = SimConfig::paper(n, seed);
        cfg.panic_on_violation = false;
        if uniform {
            // FIFO-assuming algorithms get a degenerate (FIFO) range.
            let (lo, hi) = if algo.requires_fifo() { (4, 4) } else { (2, 8) };
            cfg.delay = DelayModel::Uniform {
                min: SimDuration::from_ticks(lo),
                max: SimDuration::from_ticks(hi),
            };
        }
        let mut retry = None;
        match regime {
            Regime::Clean => {}
            Regime::CrashWindow => {
                let victim = NodeId::new(victim % n as u32);
                let down = SimTime::from_ticks(7 + seed % 40);
                cfg.faults = FaultPlan::crash_restart(victim, down, down + SimDuration::from_ticks(60));
            }
            Regime::LossRetry => {
                cfg.faults = FaultPlan::losing(3 + seed % 7);
                cfg.max_events = 200_000;
                retry = Some(RetryPolicy::backoff(retry_base, 64).with_budget(6));
            }
        }
        let workload = || SaturationWorkload::new(n, rounds);
        // Node types without `Debug` are read through the trace instead,
        // which renders every message they sent.
        let traced = SimConfig { trace_capacity: 1 << 14, ..cfg.clone() };
        match algo {
            Algo::Rcv(forward) => same_both_ways(&cfg, workload, move |id, n| {
                RcvNode::with_config(id, n, RcvConfig { forward, retry })
            }, rcv_digest),
            Algo::Maekawa => same_both_ways(&traced, workload, Maekawa::new, opaque::<Maekawa>),
            Algo::MaekawaFpp => same_both_ways(&traced, workload, |id, n| {
                Maekawa::with_quorums(id, QuorumSystem::best(n))
            }, opaque),
            Algo::Ricart => same_both_ways(&traced, workload, RicartAgrawala::new, debug_digest),
            Algo::RaDynamic => same_both_ways(&traced, workload, RaDynamic::new, opaque),
            Algo::Broadcast => same_both_ways(&traced, workload, SuzukiKasami::new, opaque),
            Algo::Lamport => same_both_ways(&traced, workload, Lamport::new, debug_digest),
            Algo::Raymond => same_both_ways(&traced, workload, Raymond::new, opaque),
        }
    }
}
