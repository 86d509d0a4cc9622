//! The repo's benchmark, measured from outside the program: every number
//! comes from calling public entry points of the crates under test or from
//! the [`probe::Probe`] wrapper defined here.
//!
//! Two binaries share this library. `bench-e2e` runs a workload's passes
//! untraced and reports the end-to-end metrics; `bench-trace` (counting
//! allocator installed, `rcv_simnet::profile` probes on) pairs untraced
//! with fully probed passes, adds the single-layer micro-measurements of
//! [`layers`], writes the spans to `benchmark/out/trace-<workload>.jsonl`
//! and reports the per-layer metrics. Both print every metric by name with
//! its unit, then one JSON object as the last line of standard output.
//! `benchmark/README.md` defines the workloads and metrics.

pub mod hist;
pub mod layers;
pub mod probe;
pub mod procstat;
pub mod workloads;

use std::io::Write as _;
use std::time::Instant;

use rcv_simnet::profile::{self, ProbePhase};
use rcv_workload::Algo;

use layers::median;
use probe::{TraceRecord, HANDLERS, ON_MESSAGE, ON_RELEASE, ON_REQUEST};
use workloads::{run_pass, Pass, Sizes, Tier, Workload};

/// Where the traced run writes its span files (relative to the checkout
/// root, which `run.sh` makes the working directory).
const OUT_DIR: &str = "benchmark/out";

/// Warm-up repetitions; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// A reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result object of one run.
pub struct Outcome {
    pub correct: bool,
    /// CS requested in the measured passes, and how many of them belong to
    /// a pass that was not clean.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Sizes of a measured pass and of a warm-up pass.
    sizes: Sizes,
    warm_up: Sizes,
    /// Seconds `run.sh` spent in `cargo build` before starting this binary.
    build_s: f64,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--build-s S] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut smoke, mut build_s) = (1, 10.0, false, 0.0);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--build-s" => build_s = value().parse().unwrap_or_else(|_| usage("bad --build-s")),
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: if smoke { 0.0 } else { seconds },
        sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
        warm_up: if smoke { Sizes::SMOKE } else { Sizes::WARM_UP },
        build_s,
    }
}

/// Entry point of both binaries.
pub fn main(traced: bool) {
    let args = parse_args();
    let outcome = if traced {
        run_trace(&args)
    } else {
        run_e2e(&args)
    };
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// Warm-up passes (caches, allocator arenas, lazy statics); returns the
/// median seconds of one.
fn warm_up(args: &Args) -> f64 {
    let times = (0..SETUP_REPS).map(|_| {
        let pass = run_pass(args.workload, args.warm_up, args.seed, false);
        assert!(
            pass.clean,
            "warm-up pass of {} is not clean",
            args.workload.name()
        );
        pass.wall_s
    });
    median(times.collect())
}

/// Folds the passes' verdicts: every CS of an unclean pass counts as
/// failed, and simulation passes must reproduce the first one exactly.
fn verdict(passes: &[&Pass], metrics: Vec<Metric>) -> Outcome {
    let attempted = passes.iter().map(|p| p.requested).sum();
    let failed: u64 = passes
        .iter()
        .filter(|p| !p.clean || p.completed != p.requested)
        .map(|p| p.requested)
        .sum();
    let deterministic = passes
        .iter()
        .all(|p| p.fingerprint == passes[0].fingerprint);
    if !deterministic {
        eprintln!("determinism contract broken: passes disagree on (events, messages, end time)");
    }
    Outcome {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics,
    }
}

fn run_e2e(args: &Args) -> Outcome {
    let setup_s = args.build_s + warm_up(args);

    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(args.workload, args.sizes, args.seed, false));
    }
    // Timings are medians over passes; counts are summed over passes.
    let med = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let sum = |f: &dyn Fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    let completed = sum(&|p| p.completed);
    let rt_ticks_mean = match args.workload.tier() {
        None => med(&|p| p.rt.mean()),
        Some(tier) => workloads::twin_rt_ticks(tier, args.sizes, args.seed),
    };
    let metrics = vec![
        metric("setup_s", "s", setup_s),
        metric("cs_per_s", "CS/s", med(&Pass::cs_per_s)),
        metric("msgs_per_cs", "msgs", sum(&|p| p.msgs) / completed),
        metric(
            "wire_bytes_per_cs",
            "bytes",
            sum(&|p| p.wire_bytes) / completed,
        ),
        metric("rt_ticks_mean", "ticks", rt_ticks_mean),
        metric(
            "acquire_p50_us",
            "us",
            med(&|p| p.rt.quantile(0.50) / p.rt_per_us),
        ),
        metric(
            "cpu_ms_per_kcs",
            "ms",
            med(&|p| p.cpu_s * 1e3 / (p.completed as f64 / 1e3)),
        ),
        metric("peak_rss_mb", "MB", procstat::peak_rss_mb()),
    ];
    println!(
        "info {} passes={} acquire_samples_per_pass={}",
        args.workload.name(),
        passes.len(),
        passes[0].rt.count()
    );
    verdict(&passes.iter().collect::<Vec<_>>(), metrics)
}

/// Per-layer numbers that come from one fully probed pass.
fn pass_layers(p: &Pass) -> Vec<Metric> {
    let t = p.trace.as_ref().expect("traced pass");
    let events = p.events as f64;
    let completed = p.completed as f64;
    let handler_ns: u64 = t.handler.iter().map(|h| h.1).sum();
    let per_call = |i: usize| t.handler[i].1 as f64 / t.handler[i].0.max(1) as f64;
    let phase = |ph: ProbePhase| t.phases[ph as usize].nanos as f64 / events;
    let per_cs = |kind: &str| t.sent_of(kind) as f64 / completed;
    let (sent_msgs, sent_bytes) = t.sent_total();
    vec![
        metric("core.on_message_ns", "ns", per_call(ON_MESSAGE)),
        metric("core.on_request_ns", "ns", per_call(ON_REQUEST)),
        metric("core.on_release_ns", "ns", per_call(ON_RELEASE)),
        metric(
            "core.handler_share",
            "frac",
            handler_ns as f64 / (p.wall_s * 1e9),
        ),
        metric(
            "core.snapshot_ns_per_event",
            "ns",
            phase(ProbePhase::SnapshotTake),
        ),
        metric("core.merge_ns_per_event", "ns", phase(ProbePhase::Merge)),
        metric(
            "core.normalize_ns_per_event",
            "ns",
            phase(ProbePhase::Normalize),
        ),
        metric("core.order_ns_per_event", "ns", phase(ProbePhase::Order)),
        metric(
            "core.msg_wire_bytes",
            "bytes",
            sent_bytes as f64 / sent_msgs as f64,
        ),
        metric("core.rm_per_cs", "msgs", per_cs("RM")),
        metric("core.em_per_cs", "msgs", per_cs("EM")),
        metric("core.im_per_cs", "msgs", per_cs("IM")),
        metric(
            "core.rms_forwarded_per_cs",
            "msgs",
            p.rms_forwarded as f64 / completed,
        ),
        metric(
            "allocmeter.bytes_per_event",
            "bytes",
            t.alloc_bytes as f64 / events,
        ),
        metric("runtime.msgs_per_s", "1/s", p.msgs as f64 / p.wall_s),
    ]
}

/// The simulator's own layer metrics, from a fully probed simulation pass.
fn simnet_layers(p: &Pass) -> Vec<Metric> {
    let t = p.trace.as_ref().expect("traced pass");
    let events = p.events as f64;
    let handler_ns: u64 = t.handler.iter().map(|h| h.1).sum();
    vec![
        metric("simnet.events_per_s", "1/s", events / p.wall_s),
        metric(
            "simnet.engine_ns_per_event",
            "ns",
            (p.wall_s * 1e9 - handler_ns as f64) / events,
        ),
        metric(
            "simnet.metrics_ns_per_event",
            "ns",
            t.phases[ProbePhase::Metrics as usize].nanos as f64 / events,
        ),
    ]
}

/// Column-wise medians of rows that list the same metrics in the same order.
fn medians(rows: &[Vec<Metric>]) -> Vec<Metric> {
    (0..rows[0].len())
        .map(|i| {
            let m = &rows[0][i];
            metric(
                m.name,
                m.unit,
                median(rows.iter().map(|r| r[i].value).collect()),
            )
        })
        .collect()
}

/// A pass under the full probe, with the phase probes of
/// `rcv_simnet::profile` live for its duration.
fn probed_pass(w: Workload, sizes: Sizes, seed: u64) -> Pass {
    profile::take();
    profile::set_enabled(true);
    let pass = run_pass(w, sizes, seed, true);
    profile::set_enabled(false);
    pass
}

fn run_trace(args: &Args) -> Outcome {
    let w = args.workload;
    warm_up(args);

    // Pairs of an untraced and a fully probed pass, for about half the
    // time box; the micro-measurements below take the rest.
    let t0 = Instant::now();
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    while plain.is_empty() || t0.elapsed().as_secs_f64() < args.seconds * 0.5 {
        plain.push(run_pass(w, args.sizes, args.seed, false));
        probed.push(probed_pass(w, args.sizes, args.seed));
    }
    let mut metrics = medians(&probed.iter().map(pass_layers).collect::<Vec<_>>());
    // The simulator is not on a real-tier workload's path: there its layer
    // metrics come from a fixed reference, the Poisson sweep at a fifth of
    // the horizon.
    metrics.extend(if w.tier().is_none() {
        medians(&probed.iter().map(simnet_layers).collect::<Vec<_>>())
    } else {
        let reference = Sizes {
            poisson_horizon: args.sizes.poisson_horizon / 5,
            ..args.sizes
        };
        let p = probed_pass(Workload::SimPoisson, reference, args.seed);
        assert!(p.clean, "reference simulation pass is not clean");
        simnet_layers(&p)
    });

    let last = probed.last().expect("at least one traced pass");
    let traced = last.trace.as_ref().expect("traced pass");
    write_spans(w, traced);

    // The runtime micro-measurements run on the workload's own tier; the
    // simulator workloads have none, so there they run on the thread tier.
    let tier = w.tier().unwrap_or(Tier::Thread);
    let codec = layers::codec(&traced.captured);
    let (ricart_eps, ricart_nme) = layers::baseline(Algo::Ricart, args.seed);
    let (maekawa_eps, maekawa_nme) = layers::baseline(Algo::Maekawa, args.seed);
    let cs_per_s = |ps: &[Pass]| median(ps.iter().map(Pass::cs_per_s).collect());
    // The acquire tail is too unsteady on a shared box to carry a bound, so
    // it is a layer metric, taken from this run's untraced passes.
    let p99 = |p: &Pass| p.rt.quantile(0.99) / p.rt_per_us;
    metrics.extend([
        metric("simnet.queue_ops_per_s", "1/s", layers::queue_ops_per_s()),
        metric("baselines.ricart_n30_events_per_s", "1/s", ricart_eps),
        metric("baselines.maekawa_n30_events_per_s", "1/s", maekawa_eps),
        metric("baselines.ricart_n30_msgs_per_cs", "msgs", ricart_nme),
        metric("baselines.maekawa_n30_msgs_per_cs", "msgs", maekawa_nme),
        metric("runtime.wire.encode_ns", "ns", codec.encode_ns),
        metric("runtime.wire.decode_ns", "ns", codec.decode_ns),
        metric("runtime.wire.bytes_per_msg", "bytes", codec.bytes_per_msg),
        metric("runtime.frame.encode_ns", "ns", codec.frame_encode_ns),
        metric("runtime.frame.decode_ns", "ns", codec.frame_decode_ns),
        metric(
            "runtime.acquire_p99_us",
            "us",
            median(plain.iter().map(p99).collect()),
        ),
        metric("runtime.hop_us", "us", layers::hop_us(tier)),
        metric(
            "runtime.startup_ms",
            "ms",
            layers::startup_ms(tier, args.seed),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            1.0 - cs_per_s(&probed) / cs_per_s(&plain),
        ),
    ]);
    println!(
        "info {} pairs={} spans={} sampled_messages={}",
        w.name(),
        probed.len(),
        traced.spans.len(),
        traced.captured.len()
    );
    let all: Vec<&Pass> = plain.iter().chain(&probed).collect();
    verdict(&all, metrics)
}

/// Writes the last traced pass's spans, one JSON object per line. A `cs`
/// span is identified by `(run, node, seq)`; a handler span names its
/// parent `cs` span by `seq`, or `null` when the node was only relaying.
fn write_spans(w: Workload, traced: &TraceRecord) {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let path = format!("{OUT_DIR}/trace-{}.jsonl", w.name());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).expect("create span file"));
    for s in &traced.spans {
        let (run, node) = (s.run, s.node);
        let seq = s.cs_seq.map_or("null".to_string(), |q| q.to_string());
        let line = match s.handler {
            None => format!("{{\"span\": \"cs\", \"run\": {run}, \"node\": {node}, \"seq\": {seq}"),
            Some(h) => format!(
                "{{\"span\": \"{}\", \"run\": {run}, \"node\": {node}, \"parent\": {seq}",
                HANDLERS[h]
            ),
        };
        writeln!(
            out,
            "{line}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.start_ns, s.end_ns
        )
        .expect("write span");
    }
    out.flush().expect("flush span file");
}
