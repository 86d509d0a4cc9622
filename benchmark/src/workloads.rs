//! The four workloads: what one pass runs and what it must prove.
//!
//! All are closed loops (a node issues its next request only after its
//! previous CS completed). A *pass* is one full run over the workload's
//! fixed inputs, which are a pure function of `--seed`: the program under
//! test sees only the generated configurations.

use std::fmt::Debug;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcv_core::{ForwardPolicy, RcvConfig, RcvMessage, RcvNode};
use rcv_runtime::orchestrator::{run_process_cluster, run_worker, ProcessSpec};
use rcv_runtime::wire::{verifying_hook, WireCodec};
use rcv_runtime::{run_cluster_collecting, ClusterSpec, NetDelay, SocketNet};
use rcv_simnet::{
    BurstOnce, DelayModel, Engine, MutexProtocol, NodeId, SimConfig, SimDuration, SimTime,
};
use rcv_workload::{PoissonWorkload, SaturationWorkload};

use crate::hist::Hist;
use crate::probe::{Capture, Probe, TraceRecord};
use crate::procstat::cpu_seconds;

/// Nodes of the real-tier workloads: thread-per-node is the system under
/// test, so 8 nodes + the network thread (or hub) + the driver is all a
/// 2-core box should be asked to schedule.
pub const NODES: usize = 8;

/// Delay injected per message on the real tiers (uniform, so delivery is
/// non-FIFO). With `NetDelay::None` a pass measures the scheduler: the
/// same run swung 8.1k–10.0k CS/s from pass to pass.
pub const DELAY: NetDelay = NetDelay::Uniform {
    min: Duration::from_micros(20),
    max: Duration::from_micros(200),
};

/// Mean inter-arrival times of the Poisson sweep (paper Figs 6/7: heavy,
/// medium and light load).
pub const INV_LAMBDAS: [f64; 3] = [10.0, 100.0, 1000.0];

const TIER_TIMEOUT: Duration = Duration::from_secs(90);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimBurst,
    SimPoisson,
    ThreadSat,
    UdsSat,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimBurst,
        Workload::SimPoisson,
        Workload::ThreadSat,
        Workload::UdsSat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBurst => "sim_burst_n200",
            Workload::SimPoisson => "sim_poisson_n30",
            Workload::ThreadSat => "thread_sat_n8",
            Workload::UdsSat => "uds_sat_n8",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runtime tier this workload runs on (`None`: the simulator).
    pub fn tier(self) -> Option<Tier> {
        match self {
            Workload::SimBurst | Workload::SimPoisson => None,
            Workload::ThreadSat => Some(Tier::Thread),
            Workload::UdsSat => Some(Tier::Uds),
        }
    }

    /// Every `stride`-th delivered message is kept for the codec
    /// micro-measurements: a few thousand messages per traced pass.
    fn capture_stride(self) -> u64 {
        match self {
            Workload::SimBurst => 64,
            Workload::SimPoisson => 128,
            Workload::ThreadSat => 16,
            Workload::UdsSat => 4,
        }
    }
}

/// Input sizes of one pass.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub burst_n: usize,
    /// Simulation seeds per burst pass. RCV forwards at random, and one
    /// burst's bytes per CS vary by ±10% (SD) from seed to seed at any N:
    /// a pass averages enough of them to be an input, not a lottery.
    pub burst_seeds: u64,
    pub poisson_horizon: u64,
    pub thread_rounds: u32,
    pub uds_rounds: u32,
}

impl Sizes {
    /// The measured pass.
    pub const FULL: Sizes = Sizes {
        burst_n: 200,
        burst_seeds: 32,
        poisson_horizon: 100_000,
        thread_rounds: 1500,
        uds_rounds: 500,
    };
    /// The untimed warm-up pass charged to `setup_s`.
    pub const WARM_UP: Sizes = Sizes {
        burst_n: 200,
        burst_seeds: 2,
        poisson_horizon: 10_000,
        thread_rounds: 150,
        uds_rounds: 100,
    };
    /// `--smoke`: the same code path in seconds.
    pub const SMOKE: Sizes = Sizes {
        burst_n: 50,
        burst_seeds: 2,
        poisson_horizon: 5_000,
        thread_rounds: 50,
        uds_rounds: 50,
    };

    /// CS requests per node on a real tier.
    pub fn rounds(self, tier: Tier) -> u32 {
        match tier {
            Tier::Thread => self.thread_rounds,
            Tier::Uds => self.uds_rounds,
        }
    }
}

/// One pass over a workload's inputs.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub requested: u64,
    pub completed: u64,
    /// Safe, every request completed, no protocol anomaly, no timeout.
    pub clean: bool,
    pub msgs: u64,
    /// Sum of `wire_size()` over the pass's messages.
    pub wire_bytes: u64,
    /// Handler calls (on the simulator: events processed).
    pub events: u64,
    /// Per-CS response time: simulated ticks on the simulator (issue →
    /// entry), wall nanoseconds on the real tiers (request → release of a
    /// zero-length CS).
    pub rt: Hist,
    /// [`Pass::rt`] units per microsecond. One simulated tick reads as
    /// 1 µs, the runtime's own default (`ClusterSpec::tick`).
    pub rt_per_us: f64,
    /// `(events, messages, end time)` of each simulation run: the
    /// determinism contract says every pass reproduces it exactly.
    pub fingerprint: Vec<(u64, u64, u64)>,
    pub rms_forwarded: u64,
    /// What the full probes recorded, merged over nodes and runs.
    pub trace: Option<TraceRecord>,
}

impl Pass {
    pub fn cs_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

/// The `k` simulation seeds of benchmark seed `seed`: disjoint between
/// benchmark seeds, so two `--seed` values never share a simulation.
fn sim_seeds(seed: u64, k: u64) -> impl Iterator<Item = u64> {
    (0..k).map(move |i| seed.wrapping_mul(k).wrapping_add(i))
}

fn rcv_node(id: NodeId, n: usize) -> RcvNode {
    let config = RcvConfig {
        forward: ForwardPolicy::Random,
        ..RcvConfig::paper()
    };
    RcvNode::with_config(id, n, config)
}

fn probe(w: Workload, traced: bool, epoch: Instant, id: NodeId, n: usize) -> Probe<RcvNode> {
    if !traced {
        return Probe::light(id, rcv_node(id, n), epoch);
    }
    let capture = Capture {
        stride: w.capture_stride(),
        max_bytes: (48 << 20) / n,
        encode: |m: &RcvMessage| m.encode_wire(),
    };
    Probe::full(id, rcv_node(id, n), epoch, capture)
}

/// Runs one pass of `w`. `traced` wraps every node in the full probe; the
/// caller has switched the `rcv_simnet::profile` probes on.
pub fn run_pass(w: Workload, sizes: Sizes, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        clean: true,
        trace: traced.then(TraceRecord::default),
        ..Pass::default()
    };
    let epoch = Instant::now();
    let cpu0 = cpu_seconds();
    match w {
        Workload::SimBurst => {
            for s in sim_seeds(seed, sizes.burst_seeds) {
                let cfg = SimConfig::paper(sizes.burst_n, s);
                sim_run(w, cfg, BurstOnce, epoch, &mut pass);
            }
        }
        Workload::SimPoisson => {
            for inv_lambda in INV_LAMBDAS {
                for s in sim_seeds(seed, 2) {
                    let cfg = SimConfig::paper_non_fifo(30, s);
                    let arrivals = PoissonWorkload {
                        horizon: SimTime::from_ticks(sizes.poisson_horizon),
                        ..PoissonWorkload::paper(inv_lambda)
                    };
                    sim_run(w, cfg, arrivals, epoch, &mut pass);
                }
            }
        }
        Workload::ThreadSat | Workload::UdsSat => {
            let tier = w.tier().expect("real-tier workload");
            let rounds = sizes.rounds(tier);
            let spec = TierSpec {
                n: NODES,
                rounds,
                delay: DELAY,
                seed,
                tag: "rcv",
            };
            let run = run_tier(
                tier,
                spec,
                move |id, n| probe(w, traced, epoch, id, n),
                |p: &Probe<RcvNode>| (p.record().clone(), *p.inner().stats()),
            );
            pass.requested = (NODES as u64) * rounds as u64;
            pass.completed = run.completed;
            pass.msgs = run.messages;
            pass.clean = run.clean;
            pass.rt_per_us = 1e3;
            for (rec, stats) in run.harvest {
                pass.clean &= stats.anomalies() == 0;
                pass.rms_forwarded += stats.rms_forwarded;
                pass.wire_bytes += rec.bytes_in;
                pass.events += rec.msgs_in;
                pass.rt.merge(&rec.acquire);
                if let (Some(t), Some(node)) = (&mut pass.trace, rec.trace) {
                    t.merge(0, node);
                }
            }
            // One on_request and one on_cs_released per CS.
            pass.events += 2 * pass.completed;
        }
    }
    pass.wall_s = epoch.elapsed().as_secs_f64();
    pass.cpu_s = cpu_seconds() - cpu0;
    pass
}

/// One simulation run of RCV, folded into `pass`.
fn sim_run<W: rcv_simnet::Workload>(
    w: Workload,
    cfg: SimConfig,
    arrivals: W,
    epoch: Instant,
    pass: &mut Pass,
) {
    let run = pass.fingerprint.len() as u32;
    let (report, nodes) = match &mut pass.trace {
        // Untraced: exactly what `Algo::Rcv(Random).run` builds, plus the
        // final node states for the anomaly counters.
        None => Engine::new(cfg, arrivals, rcv_node).run_collecting(),
        Some(traced) => {
            let (report, probes) =
                Engine::new(cfg, arrivals, |id, n| probe(w, true, epoch, id, n)).run_collecting();
            // What the engine stamped after the last handler returned.
            traced.add_phases(rcv_simnet::profile::take());
            let nodes = probes
                .into_iter()
                .map(|p| {
                    let (node, rec) = p.into_parts();
                    traced.merge(run, rec.trace.expect("full probe"));
                    node
                })
                .collect();
            (report, nodes)
        }
    };
    let m = &report.metrics;
    pass.clean &=
        report.is_safe() && report.all_completed() && rcv_core::total_anomalies(&nodes) == 0;
    pass.requested += m.records().len() as u64;
    pass.completed += m.completed() as u64;
    pass.msgs += m.messages_sent();
    pass.wire_bytes += m.wire_bytes();
    pass.events += report.events;
    pass.rt_per_us = 1.0;
    for rt in m.records().iter().filter_map(|r| r.response_time()) {
        pass.rt.record(rt.ticks());
    }
    pass.fingerprint
        .push((report.events, m.messages_sent(), report.end_time.ticks()));
    pass.rms_forwarded += nodes.iter().map(|n| n.stats().rms_forwarded).sum::<u64>();
}

/// Mean response time, in simulated ticks of 1 µs, of a real-tier
/// workload's *simulated twin*: the same saturated cluster (N, rounds,
/// delay distribution, zero-length CS) on the simulator. It is the part of
/// the tier's acquire time that the protocol and the injected delay
/// explain, and — unlike a wall-clock mean — exact for a given seed.
pub fn twin_rt_ticks(tier: Tier, sizes: Sizes, seed: u64) -> f64 {
    let rounds = sizes.rounds(tier);
    let NetDelay::Uniform { min, max } = DELAY else {
        unreachable!("the injected delay is uniform")
    };
    let ticks = |d: Duration| SimDuration::from_ticks(d.as_micros() as u64);
    let cfg = SimConfig {
        delay: DelayModel::Uniform {
            min: ticks(min),
            max: ticks(max),
        },
        cs_duration: SimDuration::from_ticks(0),
        ..SimConfig::paper(NODES, seed)
    };
    let arrivals = SaturationWorkload::new(NODES, rounds - 1);
    let report = Engine::new(cfg, arrivals, rcv_node).run();
    assert!(
        report.is_safe() && report.all_completed(),
        "simulated twin of {tier:?} is not clean"
    );
    report.metrics.response_time().mean
}

/// The two real tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `run_cluster_collecting`: a thread per node, channels, one network
    /// thread, every message round-tripped through its wire codec.
    Thread,
    /// `run_process_cluster` over Unix-domain sockets, the workers being
    /// in-process threads that call `run_worker`: the hub loop, the socket
    /// transport, framing and the CS log all run, `fork`/`exec` does not.
    Uds,
}

pub struct TierSpec {
    pub n: usize,
    pub rounds: u32,
    pub delay: NetDelay,
    pub seed: u64,
    /// Protocol tag of the socket handshake.
    pub tag: &'static str,
}

pub struct TierRun<R> {
    pub wall_s: f64,
    pub completed: u64,
    pub messages: u64,
    pub clean: bool,
    /// `harvest(node)` for every node's final state.
    pub harvest: Vec<R>,
}

/// Runs a saturated cluster (think time 0, CS length 0) of any protocol on
/// a real tier.
pub fn run_tier<P, R>(
    tier: Tier,
    spec: TierSpec,
    make: impl Fn(NodeId, usize) -> P + Clone + Send + 'static,
    harvest: impl Fn(&P) -> R + Clone + Send + 'static,
) -> TierRun<R>
where
    P: MutexProtocol + Send + 'static,
    P::Message: WireCodec + PartialEq + Debug + Send + Sync,
    R: Send + 'static,
{
    let expected = spec.n as u64 * spec.rounds as u64;
    let t0 = Instant::now();
    match tier {
        Tier::Thread => {
            let cluster = ClusterSpec::quick(spec.n, spec.seed)
                .rounds(spec.rounds)
                .think(Duration::ZERO)
                .cs_duration(Duration::ZERO)
                .delay(spec.delay)
                .timeout(TIER_TIMEOUT)
                .wire_hook(verifying_hook());
            let (report, nodes) = run_cluster_collecting(cluster, make);
            TierRun {
                wall_s: t0.elapsed().as_secs_f64(),
                completed: report.completed,
                messages: report.messages,
                clean: report.is_clean(expected),
                harvest: nodes.iter().map(harvest).collect(),
            }
        }
        Tier::Uds => {
            let cluster = ProcessSpec::quick(spec.n, spec.seed, spec.tag)
                .rounds(spec.rounds)
                .think(Duration::ZERO)
                .cs_duration(Duration::ZERO)
                .delay(spec.delay)
                .timeout(TIER_TIMEOUT)
                .net(SocketNet::Uds);
            let harvested = Arc::new(Mutex::new(Vec::new()));
            let mut workers = Vec::new();
            let report = run_process_cluster(&cluster, |addr| {
                for node in 0..spec.n as u32 {
                    let (addr, make, harvest) = (addr.to_string(), make.clone(), harvest.clone());
                    let harvested = Arc::clone(&harvested);
                    workers.push(std::thread::spawn(move || {
                        run_worker(
                            &addr,
                            node,
                            spec.tag,
                            |id, n, _cfg| make(id, n),
                            |p, _cfg| {
                                let r = harvest(p);
                                harvested.lock().expect("harvest lock").push((node, r));
                                0
                            },
                        )
                    }));
                }
                Ok(Vec::new())
            })
            .expect("socket cluster starts");
            let mut clean = report.is_clean(expected);
            for w in workers {
                clean &= w.join().expect("worker thread").is_ok();
            }
            let mut harvested = std::mem::take(&mut *harvested.lock().expect("harvest lock"));
            harvested.sort_by_key(|&(node, _)| node);
            TierRun {
                wall_s: t0.elapsed().as_secs_f64(),
                completed: report.report.completed,
                messages: report.report.messages,
                clean,
                harvest: harvested.into_iter().map(|(_, r)| r).collect(),
            }
        }
    }
}
