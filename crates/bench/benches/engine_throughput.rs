//! Events-per-second throughput bench with a machine-readable reporter.
//!
//! Measures the discrete-event engine end to end — all 8 algorithms on the
//! paper's constant-delay burst at N ∈ {10, 30, 50, 200, 1000} — plus a
//! schedule/pop
//! micro-benchmark of the calendar event queue against a plain binary
//! heap. Results go to stdout and to `BENCH_RESULTS.json` at the repo root
//! so the perf trajectory is comparable across PRs.
//!
//! ```text
//! cargo bench -p rcv-bench --bench engine_throughput              # full
//! cargo bench -p rcv-bench --bench engine_throughput -- --quick  # CI-sized
//! cargo bench -p rcv-bench --bench engine_throughput -- \
//!     --quick --baseline crates/bench/baseline/engine_throughput.json
//! cargo bench -p rcv-bench --bench engine_throughput -- --profile
//! cargo bench -p rcv-bench --bench engine_throughput -- \
//!     --append-history BENCH_HISTORY.jsonl
//! cargo bench -p rcv-bench --bench engine_throughput -- \
//!     --sizes 1000 --baseline crates/bench/baseline/engine_throughput.json
//! ```
//!
//! With `--baseline <file>`, the run **fails** (exit 1) if events/sec on
//! the N=30 RCV burst — or, when measured, the N=1,000 one — drops more
//! than 30% below the checked-in baseline. `--profile` adds the per-event
//! phase split (snapshot/merge/normalize/order/metrics/engine) at
//! N ∈ {50, 200, 1000} to stdout and the JSON. `--append-history` appends
//! a one-line summary to the running `BENCH_HISTORY.jsonl` trajectory.
//! Methodology: every cell reports its best measurement window (the
//! statistic least distorted by background load — external noise only ever
//! slows a window down).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rcv_bench::cli::Flags;
use rcv_bench::perf::{
    parse_metric, EngineRecord, PerfReport, PhaseRecord, QueueRecord, GATE_KEY, GATE_KEY_N1000,
};
use rcv_simnet::{profile, BurstOnce, EventKind, EventQueue, NodeId, SimConfig, SimDuration};
use rcv_workload::Algo;

/// Meter heap traffic: every engine cell reports bytes allocated per event
/// alongside events/sec (the counting wrapper costs one thread-local add
/// per allocation — noise next to a simulation event).
#[global_allocator]
static ALLOC: rcv_allocmeter::CountingAllocator = rcv_allocmeter::CountingAllocator;

/// Sweep sizes: the paper's N=30, a lighter and a heavier point, plus the
/// large-N scaling points the superlinear-merge fix is proven on. Quick
/// (CI) mode stops at N=200; the N=1,000 cell runs in full mode and in the
/// dedicated wall-clock-capped CI smoke step.
const SIZES: [usize; 5] = [10, 30, 50, 200, 1000];

/// At or above this size a single burst run takes tens of seconds: it IS
/// the measurement window (timed once, no warm-up repeat), keeping the
/// full sweep bounded while still publishing the per-event-cost point.
const SINGLE_RUN_N: usize = 1000;

/// Regression tolerance for the gate: fail below 70% of baseline.
const GATE_FRACTION: f64 = 0.7;

struct Opts {
    out: PathBuf,
    baseline: Option<PathBuf>,
    append_history: Option<PathBuf>,
    /// Explicit engine-matrix sizes (`--sizes 30,1000`), overriding
    /// [`SIZES`] and the quick-mode large-N skip. Lets CI measure the
    /// N=1,000 cell alone under its own wall-clock cap.
    sizes: Option<Vec<usize>>,
    quick: bool,
    profile: bool,
    filter: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut f = Flags::from_env();
    let sizes = match f.opt::<String>("--sizes")? {
        Some(csv) => Some(
            csv.split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<Vec<usize>, _>>()
                .map_err(|_| "--sizes entries must be integers")?,
        ),
        None => None,
    };
    // `cargo bench` appends `--bench` to harness=false binaries.
    f.flag("--bench");
    let opts = Opts {
        // Compiled-in workspace root: crates/bench/../../ — stable no
        // matter what cwd cargo hands the bench binary.
        out: f.value(
            "--out",
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_RESULTS.json"
            )),
        )?,
        baseline: f.opt("--baseline")?,
        append_history: f.opt("--append-history")?,
        sizes,
        quick: f.flag("--quick"),
        profile: f.flag("--profile"),
        filter: f.positionals().pop(),
    };
    // A typo'd --baseline/--out must not silently disable the regression
    // gate.
    f.finish()?;
    Ok(opts)
}

/// Runs `routine` repeatedly in `windows` timed windows of ~`window_secs`
/// and returns the best window's units-per-second rate.
fn best_window(windows: u32, window_secs: f64, mut routine: impl FnMut() -> u64) -> f64 {
    routine(); // warm-up
    let mut best = 0.0f64;
    for _ in 0..windows {
        let mut units = 0u64;
        let t0 = Instant::now();
        // At least one call per window even when a single run overshoots
        // the window budget (the large-N cells), so the rate is never 0/0.
        loop {
            units += routine();
            if t0.elapsed().as_secs_f64() >= window_secs {
                break;
            }
        }
        best = best.max(units as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// One engine cell: seed-varied burst runs, counted in processed events.
fn bench_engine(algo: Algo, n: usize, windows: u32, window_secs: f64) -> EngineRecord {
    // The recorded events/run is the seed-1 run's exact event count — a
    // deterministic quantity comparable across hosts and PRs (a window
    // average would cover a host-speed-dependent seed set and drift).
    // The same run yields bytes-allocated-per-event (deterministic too,
    // modulo allocator-internal rounding — the seed fixes the schedule).
    // The meter counts every thread, so what the engine's second thread
    // allocates (large-N RCV) is in the figure too.
    let t0 = Instant::now();
    rcv_allocmeter::meter_process(true);
    rcv_allocmeter::take_process();
    let events_per_run = algo.run(SimConfig::paper(n, 1), BurstOnce).events;
    let alloc = rcv_allocmeter::take_process();
    rcv_allocmeter::meter_process(false);
    let single_run_rate = events_per_run as f64 / t0.elapsed().as_secs_f64();
    let events_per_sec = if n >= SINGLE_RUN_N {
        single_run_rate
    } else {
        let mut seed = 0u64;
        best_window(windows, window_secs, || {
            seed += 1;
            algo.run(SimConfig::paper(n, seed), BurstOnce).events
        })
    };
    EngineRecord {
        algorithm: algo.name().to_string(),
        n,
        workload: "burst",
        events_per_run,
        events_per_sec,
        bytes_per_event: Some(alloc.bytes as f64 / events_per_run.max(1) as f64),
    }
}

/// `--profile`: the per-event phase split of the RCV burst, so the split
/// lands in `BENCH_RESULTS.json` next to the throughput numbers. Probes
/// cover snapshot/merge/normalize/order/metrics; the remainder (event
/// queue, protocol handlers, delivery plumbing) is reported as `engine`.
/// Phase times include the engine's second thread, so when it runs the
/// phases can add up to more than the wall time and `engine` reads low.
fn profile_sweep(quick: bool, report: &mut PerfReport) {
    let sizes: &[usize] = if quick { &[50, 200] } else { &[50, 200, 1000] };
    profile::set_enabled(true);
    for &n in sizes {
        let _ = profile::take();
        let t0 = Instant::now();
        let events = Algo::Rcv(rcv_core::ForwardPolicy::Random)
            .run(SimConfig::paper(n, 1), BurstOnce)
            .events;
        let wall = t0.elapsed().as_nanos() as u64;
        let costs = profile::take();
        let probed: u64 = costs.iter().map(|c| c.nanos).sum();
        println!("profile/RCV N={n} ({events} events)");
        for (name, c) in profile::PROBE_NAMES.iter().zip(costs.iter()) {
            let ns_per_event = c.nanos as f64 / events as f64;
            println!(
                "    {:>10} {:>10.1} ms  {:>8.0} ns/ev  x{}",
                name,
                c.nanos as f64 / 1e6,
                ns_per_event,
                c.count
            );
            report.profile.push(PhaseRecord {
                n,
                phase: name.to_string(),
                ns_per_event,
                count: c.count,
            });
        }
        let engine_ns = wall.saturating_sub(probed);
        println!(
            "    {:>10} {:>10.1} ms  {:>8.0} ns/ev",
            "engine",
            engine_ns as f64 / 1e6,
            engine_ns as f64 / events as f64
        );
        report.profile.push(PhaseRecord {
            n,
            phase: "engine".to_string(),
            ns_per_event: engine_ns as f64 / events as f64,
            count: 0,
        });
    }
    profile::set_enabled(false);
}

/// Steady-state churn of the calendar queue: a paper-shaped delta mix
/// (deliveries at Tn=5, CS exits at Tc=10, a same-tick event and one
/// far-future timer per cycle), one pop per push after a warm fill.
fn queue_churn_calendar(ops: u64) -> u64 {
    const DELTAS: [u64; 5] = [5, 5, 10, 0, 500];
    let mut q: EventQueue<u64> = EventQueue::with_horizon(SimDuration::from_ticks(10));
    for i in 0..64u64 {
        q.schedule(
            q.now() + SimDuration::from_ticks(DELTAS[(i % 5) as usize]),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: i,
            },
        );
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let e = q.pop().expect("queue stays warm");
        acc = acc.wrapping_add(e.at.ticks());
        q.schedule(
            e.at + SimDuration::from_ticks(DELTAS[(i % 5) as usize]),
            EventKind::Timer {
                node: NodeId::new(0),
                tag: i,
            },
        );
    }
    std::hint::black_box(acc);
    ops
}

/// The same churn against the pre-swap implementation: a `BinaryHeap`
/// keyed `(time, seq)`.
fn queue_churn_heap(ops: u64) -> u64 {
    const DELTAS: [u64; 5] = [5, 5, 10, 0, 500];
    let mut q: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    for i in 0..64u64 {
        q.push(Reverse((now + DELTAS[(i % 5) as usize], seq)));
        seq += 1;
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let Reverse((at, _)) = q.pop().expect("queue stays warm");
        now = at;
        acc = acc.wrapping_add(at);
        q.push(Reverse((now + DELTAS[(i % 5) as usize], seq)));
        seq += 1;
    }
    std::hint::black_box(acc);
    ops
}

/// `git rev-parse --short HEAD` of the checkout this bench was built
/// from; `None` outside a git checkout or without git on the PATH.
fn git_short_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    let head = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !head.is_empty()).then_some(head)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("engine_throughput: {e}");
            return ExitCode::from(2);
        }
    };
    let (windows, window_secs) = if opts.quick { (3, 0.12) } else { (5, 0.5) };
    let mut report = PerfReport {
        mode: if opts.quick { "quick" } else { "full" },
        ..PerfReport::default()
    };

    println!(
        "engine_throughput ({} mode, best of {windows} windows × {window_secs}s)",
        report.mode
    );

    // Queue micro-bench.
    const QUEUE_OPS: u64 = 200_000;
    for (name, routine) in [
        ("calendar", queue_churn_calendar as fn(u64) -> u64),
        ("binary_heap", queue_churn_heap as fn(u64) -> u64),
    ] {
        if opts.filter.as_deref().is_some_and(|f| !name.contains(f)) {
            continue;
        }
        let ops_per_sec = best_window(windows, window_secs, || routine(QUEUE_OPS));
        println!("queue/{name:<24} {:>12.0} ops/sec", ops_per_sec);
        report.queue.push(QueueRecord { name, ops_per_sec });
    }

    // Engine matrix: all 8 algorithms × N ∈ {10 … 1000}, burst workload.
    let sizes = opts.sizes.clone().unwrap_or_else(|| SIZES.to_vec());
    for algo in Algo::all() {
        for &n in &sizes {
            // Quick (CI) mode stops at N=200: the N=1,000 cell is a
            // tens-of-seconds single run, covered by the dedicated
            // wall-clock-capped large-n CI step instead. An explicit
            // --sizes list overrides the skip — that IS the large-n step.
            if opts.quick && n >= SINGLE_RUN_N && opts.sizes.is_none() {
                continue;
            }
            let id = format!("{}/{}", algo.name(), n);
            if opts.filter.as_deref().is_some_and(|f| !id.contains(f)) {
                continue;
            }
            let rec = bench_engine(algo, n, windows, window_secs);
            println!(
                "engine/{:<20} N={n:<3} {:>6} events/run {:>12.0} events/sec",
                algo.name(),
                rec.events_per_run,
                rec.events_per_sec
            );
            report.engine.push(rec);
        }
    }

    // Per-event phase split (adds a few seconds of RCV-only runs; the
    // N=1,000 point only in full mode).
    if opts.profile {
        profile_sweep(opts.quick, &mut report);
    }

    if let Err(e) = report.write(&opts.out) {
        eprintln!("failed to write {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out.display());

    // Append one line to the running history (BENCH_HISTORY.jsonl): the
    // trajectory file committed at the repo root and extended by CI runs.
    if let Some(path) = &opts.append_history {
        // `cargo bench` runs this binary with the *package* as cwd; anchor
        // relative paths at the workspace root so the obvious
        // `--append-history BENCH_HISTORY.jsonl` extends the committed
        // trajectory file instead of creating a stray copy.
        let path = if path.is_relative() {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(path)
        } else {
            path.clone()
        };
        let commit = std::env::var("GITHUB_SHA")
            .or_else(|_| std::env::var("RCV_COMMIT"))
            .ok()
            .or_else(git_short_head)
            .unwrap_or_else(|| "local".to_string());
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let line = report.history_line(&commit, unix_secs);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("failed to append history {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("appended history line to {}", path.display());
    }

    // Regression gate against the checked-in baseline.
    if let Some(mut path) = opts.baseline {
        // `cargo bench` runs the binary with the package as cwd; fall back
        // to resolving relative paths against the workspace root so the
        // obvious `--baseline crates/bench/baseline/...` invocation works
        // from either place.
        if path.is_relative() && !path.exists() {
            let from_root =
                PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(&path);
            if from_root.exists() {
                path = from_root;
            }
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Each gate engages when this run measured its cell (quick mode
        // stops at N=200; --sizes restricts further). A gated run that
        // measured *neither* cell is a misconfiguration, not a pass — the
        // typo'd-filter protection the gate exists for.
        let mut gates = Vec::new();
        if let Some(current) = report.gate_metric() {
            let Some(baseline) = parse_metric(&text, GATE_KEY) else {
                eprintln!("baseline {} has no gate metric", path.display());
                return ExitCode::FAILURE;
            };
            gates.push(("N=30", baseline, current));
        }
        if let (Some(b), Some(c)) = (
            parse_metric(&text, GATE_KEY_N1000),
            report.gate_metric_n1000(),
        ) {
            gates.push(("N=1000", b, c));
        }
        if gates.is_empty() {
            eprintln!("this run measured no gated RCV burst cell (filtered out?)");
            return ExitCode::FAILURE;
        }
        for (label, baseline, current) in gates {
            let floor = baseline * GATE_FRACTION;
            println!(
                "gate: {label} RCV burst {current:.0} events/sec vs baseline {baseline:.0} \
                 (floor {floor:.0})"
            );
            if current < floor {
                eprintln!(
                    "REGRESSION: {label} RCV burst fell below {}% of baseline \
                     ({current:.0} < {floor:.0} events/sec)",
                    (GATE_FRACTION * 100.0) as u32
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
