//! `rtmatrix` — the differential simnet↔runtime conformance harness.
//!
//! ```text
//! rtmatrix [--backend thread|process|both] [--limit K] [--filter SUBSTR]
//!          [--threads T] [--out PATH] [--list] [--timeout-secs S]
//!          [--stall-timeout-secs S] [--reruns R] [--tick-us U]
//! ```
//!
//! * `--backend` — which runtime fabric(s) to differentiate against the
//!   simulator: `thread` (default; one OS thread per node), `process`
//!   (one OS **process** per node over UDS sockets, this binary
//!   re-exec'ing itself as the workers), or `both` (the full three-tier
//!   conformance pass: every selected cell on each fabric).
//! * `--limit K` — truncate the runtime-mappable registry grid to ~K
//!   cells (algorithm coverage is still guaranteed). `0` = full grid.
//! * `--filter SUBSTR` — keep only the cells whose scenario name contains
//!   `SUBSTR` (applied after `--limit`; e.g. `chaos` for the CI chaos
//!   job, which runs the crash-window cells on real threads).
//! * `--threads T` — concurrent differential cells (each one spawns its
//!   own `n` cluster threads; keep this small). Default 2.
//! * `--list` — print the selected cells instead of running them.
//! * `--out PATH` — where to write the JSON report (schema
//!   `rcv-rtmatrix/v3`; each row carries its `backend`). Default
//!   `RTMATRIX_RESULTS.json`. Not a committed baseline: real schedules
//!   are not bit-stable.
//! * `--timeout-secs` / `--stall-timeout-secs` / `--reruns` / `--tick-us`
//!   — override the `DiffOptions` defaults.
//!
//! Exit codes: 0 all cells pass, 1 differential failure, 2 usage/IO error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rcv_bench::cli::Flags;
use rcv_bench::rtmatrix::{render_report, run_diff_cells_on, runtime_grid, DiffOptions, SCHEMA};
use rcv_workload::{ClusterBackend, ProcessBackend};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rtmatrix [--backend thread|process|both] [--limit K] [--filter SUBSTR]\n\
         \u{20}               [--threads T] [--out PATH] [--list] [--timeout-secs S]\n\
         \u{20}               [--stall-timeout-secs S] [--reruns R] [--tick-us U]"
    );
    ExitCode::from(2)
}

fn backends(choice: &str) -> Result<Vec<ClusterBackend>, String> {
    let process = || -> Result<ClusterBackend, String> {
        let pb = ProcessBackend::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(ClusterBackend::Process(pb))
    };
    Ok(match choice {
        "thread" => vec![ClusterBackend::Threads],
        "process" => vec![process()?],
        "both" => vec![ClusterBackend::Threads, process()?],
        other => return Err(format!("bad backend {other:?} (want thread|process|both)")),
    })
}

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let defaults = DiffOptions::default();
    let backend: String = f.value("--backend", "thread".to_string())?;
    let limit = f.value("--limit", 0)?;
    let filter: Option<String> = f.opt("--filter")?;
    let threads = f.value("--threads", 2)?;
    let out: String = f.value("--out", "RTMATRIX_RESULTS.json".to_string())?;
    let opts = DiffOptions {
        timeout: f
            .opt("--timeout-secs")?
            .map_or(defaults.timeout, Duration::from_secs),
        stall_timeout: f
            .opt("--stall-timeout-secs")?
            .map_or(defaults.stall_timeout, Duration::from_secs),
        reruns: f.value("--reruns", defaults.reruns)?,
        tick: f
            .opt("--tick-us")?
            .map_or(defaults.tick, Duration::from_micros),
    };
    let list = f.flag("--list");
    f.finish()?;

    let backends = backends(&backend)?;
    let mut grid = runtime_grid(limit);
    if let Some(f) = &filter {
        grid.retain(|c| c.scenario.name.contains(f.as_str()));
        if grid.is_empty() {
            return Err(format!("--filter {f:?} matches no runtime-mappable cells"));
        }
    }
    if list {
        println!("# {SCHEMA}: {} differential cells", grid.len());
        for c in &grid {
            println!("{} / {}", c.scenario.name, c.algo.name());
        }
        return Ok(ExitCode::SUCCESS);
    }

    eprintln!(
        "[rtmatrix] running {} cells x {} backend(s) [{}] ({} at a time, tick {:?})",
        grid.len(),
        backends.len(),
        backend,
        threads,
        opts.tick,
    );
    let started = Instant::now();
    let mut outcomes = Vec::new();
    for backend in &backends {
        outcomes.extend(run_diff_cells_on(grid.clone(), threads, &opts, backend));
    }
    let failed: Vec<_> = outcomes.iter().filter(|o| !o.passed()).collect();
    for f in &failed {
        eprintln!(
            "[rtmatrix] FAILED {} / {} [{}]: {}",
            f.scenario, f.algo, f.backend, f.verdict
        );
    }
    let retried = outcomes.iter().filter(|o| o.retries > 0).count();
    eprintln!(
        "[rtmatrix] {} pass / {} fail ({} needed schedule reruns) in {:.1?}",
        outcomes.len() - failed.len(),
        failed.len(),
        retried,
        started.elapsed(),
    );

    std::fs::write(&out, render_report(&outcomes)).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("[rtmatrix] wrote {out}");

    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Re-exec guard: with `--backend process` this binary spawns copies of
    // itself as cluster workers; a worker invocation never returns here.
    rcv_workload::maybe_worker();
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rtmatrix: {e}");
            usage()
        }
    }
}
