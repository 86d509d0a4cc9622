//! `mc` — exhaustive model checking from the command line.
//!
//! ```text
//! mc --ci [--out PATH]
//! mc --algo A --n N [--drops D] [--dups P] [--rounds R]
//!    [--strategy dfs|bfs] [--depth K] [--max-states M] [--out PATH]
//! mc --list
//! ```
//!
//! * `--ci` — run the time-boxed CI suite (RCV at N=3 under all three
//!   deterministic forwarding policies with loss+duplication branching,
//!   plus Ricart–Agrawala and Lamport at N=3), each to exhaustion.
//! * `--algo A` — one scenario; `A` is an algorithm tag (as
//!   `cluster-orchestrator --list` prints them) with a checker adapter:
//!   `rcv-seq`, `rcv-stale`, `rcv-fresh`, `ricart` or `lamport` (Lamport
//!   checks in FIFO mode, its correctness precondition).
//! * `--strategy bfs` — breadth-first: slower frontier, but a violation,
//!   if found, is a *minimal* counterexample.
//! * `--depth K` — bound the search (the verdict is then explicitly
//!   "bounded", not "exhaustive").
//! * `--out PATH` — write the `rcv-mc/v1` JSON artifact (state counts,
//!   timings, counterexample trace if any).
//! * `--list` — print the CI suite cells and exit.
//!
//! On a violation the narrated counterexample replay is printed in full.
//!
//! Exit codes: 0 clean and exhausted, 1 violation or incomplete search,
//! 2 usage error.

use std::process::ExitCode;
use std::time::Instant;

use rcv_bench::cli::{self, Flags};
use rcv_bench::mc::{
    ci_suite, render_report, run_cell, McCell, McOptions, McOutcome, Strategy, SCHEMA,
};
use rcv_workload::Algo;

const USAGE: &str = "usage: mc --ci [--out PATH]\n\
    \u{20}      mc --algo A --n N [--drops D] [--dups P] [--rounds R]\n\
    \u{20}         [--strategy dfs|bfs] [--depth K] [--max-states M] [--out PATH]\n\
    \u{20}      mc --list\n\
    algorithms: rcv-seq rcv-stale rcv-fresh ricart lamport";

fn report_outcome(o: &McOutcome) {
    println!(
        "[mc] {:<24} {} ({:.2}s)",
        o.cell,
        o.report.summary(),
        o.secs
    );
    if let Some((desc, steps, trace)) = &o.report.violation {
        println!("[mc] VIOLATION in {}: {desc}", o.cell);
        println!("[mc] minimal counterexample, {steps} steps; narrated replay:");
        print!("{trace}");
    } else if !o.report.exhausted {
        println!("[mc] {}: search INCOMPLETE — no exhaustive verdict", o.cell);
    }
}

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let defaults = McOptions::default();
    let algo = match f.opt::<String>("--algo")? {
        Some(a) => Some(Algo::from_tag(&a).ok_or(format!("unknown algorithm {a}"))?),
        None => None,
    };
    let (drops, dups) = (f.value("--drops", 0)?, f.value("--dups", 0)?);
    let cell = match (algo, f.opt("--n")?) {
        (Some(algo), Some(n)) => Some(McCell {
            algo,
            n,
            drops,
            dups,
        }),
        (None, None) => None,
        _ => return Err("--algo and --n go together".into()),
    };
    let opts = McOptions {
        strategy: match f.opt::<String>("--strategy")? {
            Some(s) => Strategy::parse(&s).ok_or(format!("unknown strategy {s} (dfs|bfs)"))?,
            None => defaults.strategy,
        },
        rounds: f.value("--rounds", defaults.rounds)?,
        max_depth: f.opt("--depth")?,
        max_states: f.value("--max-states", defaults.max_states)?,
    };
    let out: Option<String> = f.opt("--out")?;
    let (ci, list) = (f.flag("--ci"), f.flag("--list"));
    f.finish()?;

    if list {
        println!("# {SCHEMA}: {} CI cells", ci_suite().len());
        for c in ci_suite() {
            println!("{}", c.name());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let cells = match (ci, cell) {
        (true, _) => ci_suite(),
        (false, Some(cell)) => vec![cell],
        (false, None) => return Err("nothing to do: pass --ci, --list or --algo/--n".into()),
    };

    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(cells.len());
    for cell in &cells {
        let o = run_cell(cell, &opts)?;
        report_outcome(&o);
        outcomes.push(o);
    }
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    println!(
        "[mc] {} / {} cells exhausted violation-free in {:.1?}",
        outcomes.len() - failed,
        outcomes.len(),
        started.elapsed(),
    );

    if let Some(out) = &out {
        std::fs::write(out, render_report(&outcomes)).map_err(|e| format!("writing {out}: {e}"))?;
        println!("[mc] wrote {out}");
    }

    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    cli::main("mc", USAGE, run)
}
