//! `mc` — exhaustive model checking from the command line.
//!
//! ```text
//! mc --ci [--out PATH]
//! mc --algo A --n N [--drops D] [--dups P] [--rounds R]
//!    [--depth K] [--max-states M] [--out PATH]
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
//! * `--depth K` — bound the search (the verdict is then explicitly
//!   "bounded", not "exhaustive").
//! * `--out PATH` — write the `rcv-mc/v2` JSON artifact (state counts,
//!   timings, counterexample trace if any).
//! * `--list` — print the CI suite cells and exit.
//!
//! A flag the chosen mode would ignore is a usage error: `--drops`,
//! `--dups` and `--rounds` shape the `--algo`/`--n` cell, `--ci` runs
//! its own cells, and `--list` takes nothing else.
//!
//! Every run exhausts the state space depth-first. On a violation the
//! checker searches again breadth-first for a shortest path to one, and
//! the binary prints that minimal counterexample's narrated replay in
//! full (marked NOT minimal if the state cap cut that search short).
//!
//! Exit codes: 0 clean and exhausted, 1 violation or incomplete search,
//! 2 usage error.

use std::process::ExitCode;
use std::time::Instant;

use rcv_bench::cli::{self, Flags};
use rcv_bench::mc::{ci_suite, render_report, run_cell, McCell, McOptions, McOutcome, SCHEMA};
use rcv_workload::Algo;

const USAGE: &str = "usage: mc --ci [--out PATH]\n\
    \u{20}      mc --algo A --n N [--drops D] [--dups P] [--rounds R]\n\
    \u{20}         [--depth K] [--max-states M] [--out PATH]\n\
    \u{20}      mc --list\n\
    algorithms: rcv-seq rcv-stale rcv-fresh ricart lamport";

fn report_outcome(o: &McOutcome) {
    println!("[mc] {:<24} {} ({:.2}s)", o.cell, o.stats.summary(), o.secs);
    if let Some(v) = &o.violation {
        print!("[mc] {}: {v}", o.cell);
    } else if !o.stats.exhausted() {
        println!("[mc] {}: search INCOMPLETE — no exhaustive verdict", o.cell);
    }
}

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    if f.flag("--list") {
        f.finish()?;
        println!("# {SCHEMA}: {} CI cells", ci_suite().len());
        for c in ci_suite() {
            println!("{}", c.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let defaults = McOptions::default();
    let algo = match f.opt::<String>("--algo")? {
        Some(a) => Some(Algo::from_tag(&a).ok_or(format!("unknown algorithm {a}"))?),
        None => None,
    };
    let (drops, dups, rounds) = (f.opt("--drops")?, f.opt("--dups")?, f.opt("--rounds")?);
    let cell = match (algo, f.opt("--n")?) {
        (Some(algo), Some(n)) => Some(McCell {
            algo,
            n,
            drops: drops.unwrap_or(0),
            dups: dups.unwrap_or(0),
            rounds: rounds.unwrap_or(1),
        }),
        (None, None) if drops.or(dups).or(rounds).is_none() => None,
        (None, None) => return Err("--drops, --dups and --rounds need --algo and --n".into()),
        _ => return Err("--algo and --n go together".into()),
    };
    let opts = McOptions {
        max_depth: f.opt("--depth")?,
        max_states: f.value("--max-states", defaults.max_states)?,
    };
    let out: Option<String> = f.opt("--out")?;
    let ci = f.flag("--ci");
    f.finish()?;

    let cells = match (ci, cell) {
        (true, Some(_)) => return Err("--ci runs its own cells: drop --algo/--n".into()),
        (true, None) => ci_suite(),
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
