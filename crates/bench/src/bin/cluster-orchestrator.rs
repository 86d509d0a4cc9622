//! `cluster-orchestrator` — run mutual-exclusion algorithms as **real
//! multi-process clusters**: one worker process per node on localhost
//! (Unix-domain sockets by default, TCP loopback on request), the hub in
//! this process routing every message and checking mutual exclusion
//! through the shared append-only CS log.
//!
//! The binary re-execs **itself** as the workers (argv sentinel
//! `__rcv_worker`), so one executable is the whole cluster.
//!
//! ```text
//! cluster-orchestrator [--algo TAG | --all] [-n N] [--rounds R]
//!                      [--net uds|tcp] [--seed S] [--timeout-secs S]
//!                      [--kill NODE,MS] [--json PATH] [--list]
//! ```
//!
//! * `--algo TAG` — one algorithm by wire tag (`rcv`, `ricart`,
//!   `maekawa`, ... — `--list` prints them all). Default `rcv`.
//! * `--all` — smoke every implemented algorithm in sequence (the CI
//!   process-conformance pass).
//! * `-n N` / `--rounds R` — cluster size and CS requests per node.
//! * `--net uds|tcp` — socket family (default `uds`).
//! * `--kill NODE,MS` — fault drill: kill worker `NODE`'s process `MS`
//!   milliseconds after start; the run then *must* report that node as
//!   crashed (proves the hub returns crash verdicts instead of hanging).
//! * `--json PATH` — also write per-run rows as a JSON report (verdict,
//!   counters, and under `hub` the hub's `HubStats` — wakeups, frames
//!   routed, bytes — plus how late deliveries left past their due time,
//!   from `ClusterReport::late`).
//!
//! Exit codes: 0 every run clean (or the armed kill drill verdicted as
//! expected), 1 a run failed, 2 usage/setup error.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rcv_bench::cli::{self, Flags};
use rcv_bench::perf::json_str;
use rcv_runtime::orchestrator::ProcessReport;
use rcv_runtime::{RunSpec, SocketNet};
use rcv_workload::{maybe_worker, Algo, ProcessBackend};

const USAGE: &str = "usage: cluster-orchestrator [--algo TAG | --all] [-n N] [--rounds R]\n\
    \u{20}                           [--net uds|tcp] [--seed S] [--timeout-secs S]\n\
    \u{20}                           [--kill NODE,MS] [--json PATH] [--list]";

struct Row {
    algo: &'static str,
    tag: &'static str,
    verdict: String,
    expected: u64,
    report: ProcessReport,
    millis: u128,
}

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let tag: String = f.value("--algo", "rcv".to_string())?;
    let algo = Algo::from_tag(&tag).ok_or(format!("unknown algorithm tag {tag:?}"))?;
    let net = match f.value("--net", "uds".to_string())?.as_str() {
        "uds" => SocketNet::Uds,
        "tcp" => SocketNet::Tcp,
        other => return Err(format!("bad net {other:?} (want uds|tcp)")),
    };
    let kill: Option<(u32, Duration)> = match f.opt::<String>("--kill")? {
        Some(v) => {
            let (node, ms) = v.split_once(',').ok_or("bad --kill (want NODE,MS)")?;
            Some((
                node.parse().map_err(|_| "bad --kill node")?,
                Duration::from_millis(ms.parse().map_err(|_| "bad --kill ms")?),
            ))
        }
        None => None,
    };
    let n: usize = f.value("-n", 4)?;
    let rounds: u32 = f.value("--rounds", 2)?;
    let seed: u64 = f.value("--seed", 1)?;
    let timeout = Duration::from_secs(f.value("--timeout-secs", 60)?);
    let json: Option<String> = f.opt("--json")?;
    let algos = if f.flag("--all") {
        Algo::all().to_vec()
    } else {
        vec![algo]
    };
    let list = f.flag("--list");
    f.finish()?;
    if n == 0 {
        return Err("n must be >= 1".into());
    }

    if list {
        for algo in Algo::all() {
            println!("{:<12} {}", algo.tag(), algo.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut backend = ProcessBackend::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .net(net);
    if let Some((node, after)) = kill {
        if node as usize >= n {
            return Err(format!("--kill node {node} out of range (n = {n})"));
        }
        backend = backend.kill_worker(node, after);
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut all_ok = true;
    for algo in &algos {
        let spec = RunSpec::quick(n, seed).rounds(rounds).timeout(timeout);
        let expected = spec.expected();
        let started = Instant::now();
        let report = algo.run_process(&spec, &backend)?;
        let millis = started.elapsed().as_millis();

        // With the kill drill armed, the *correct* outcome is a crash
        // verdict naming the victim (and still zero CS overlap); without
        // it, the run must be clean outright.
        let verdict = if let Some((victim, _)) = kill {
            if report.report.violations > 0 {
                format!("fail:unsafe({} violations)", report.report.violations)
            } else if report.crashed.contains(&victim) {
                "pass:crash-verdict".to_string()
            } else {
                format!("fail:no-crash-verdict(crashed={:?})", report.crashed)
            }
        } else if report.is_clean(expected) {
            "pass".to_string()
        } else {
            format!(
                "fail:unclean(completed {}/{}, violations {}, anomalies {}, crashed {:?}, \
                 wire faults {})",
                report.report.completed,
                expected,
                report.report.violations,
                report.report.anomalies,
                report.crashed,
                report.faults.len()
            )
        };
        all_ok &= verdict.starts_with("pass");
        eprintln!(
            "[orchestrator] {:<12} n={} rounds={} net={} -> {verdict} \
             ({} CS, {} msgs, {millis} ms)",
            algo.tag(),
            n,
            rounds,
            net.name(),
            report.report.completed,
            report.report.messages,
        );
        for (node, detail) in &report.faults {
            eprintln!("[orchestrator]   wire fault @ node {node}: {detail}");
        }
        rows.push(Row {
            algo: algo.name(),
            tag: algo.tag(),
            verdict,
            expected,
            report,
            millis,
        });
    }

    if let Some(path) = &json {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"rcv-cluster-orchestrator/v1\",\n");
        let _ = writeln!(s, "  \"net\": {},", json_str(net.name()));
        let _ = writeln!(s, "  \"n\": {n},");
        let _ = writeln!(s, "  \"rounds\": {rounds},");
        s.push_str("  \"runs\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let (report, hub) = (&r.report.report, &r.report.hub);
            let crashed = r
                .report
                .crashed
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                s,
                "    {{\"algo\": {}, \"tag\": {}, \"verdict\": {}, \"completed\": {}, \
                 \"expected\": {}, \"messages\": {}, \"violations\": {}, \"anomalies\": {}, \
                 \"crashed\": [{}], \"wire_faults\": {}, \"hub\": {{\"wakeups_readable\": {}, \
                 \"wakeups_timer\": {}, \"bytes_in\": {}, \
                 \"bytes_out\": {}, \"max_outbuf\": {}, \"late_count\": {}, \
                 \"late_mean_us\": {:.1}, \"late_max_us\": {:.1}}}, \"millis\": {}}}",
                json_str(r.algo),
                json_str(r.tag),
                json_str(&r.verdict),
                report.completed,
                r.expected,
                report.messages,
                report.violations,
                report.anomalies,
                crashed,
                r.report.faults.len(),
                hub.wakeups_readable,
                hub.wakeups_timer,
                hub.bytes_in,
                hub.bytes_out,
                hub.max_outbuf,
                report.late.count,
                report.late.mean().as_secs_f64() * 1e6,
                report.late.max.as_secs_f64() * 1e6,
                r.millis,
            );
            s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        std::fs::write(path, s).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("[orchestrator] wrote {path}");
    }

    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Re-exec guard: worker invocations (argv `__rcv_worker ...`) run one
    // cluster node and exit inside this call.
    maybe_worker();
    cli::main("cluster-orchestrator", USAGE, run)
}
