//! `narrate` — print the message-by-message story of a small RCV run.
//!
//! ```text
//! narrate [N] [seed] [--node <id>] [--gantt]
//! ```
//!
//! Defaults: N = 4, seed = 7 (a nice run where several requests get
//! ordered in one Order invocation). With `--node` only events touching
//! that node are shown; `--gantt` appends an ASCII CS-occupancy timeline.

use std::process::ExitCode;

use rcv_bench::cli::{self, Flags};
use rcv_core::RcvNode;
use rcv_simnet::{BurstOnce, Engine, NodeId, SimConfig};

const USAGE: &str = "usage: narrate [N] [seed] [--node <id>] [--gantt]";

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let focus = f.opt::<u32>("--node")?.map(NodeId::new);
    let gantt = f.flag("--gantt");
    let mut positionals = f.positionals().into_iter();
    f.finish()?;
    let mut next = |what: &str, default: u64| match positionals.next() {
        Some(v) => v.parse().map_err(|_| format!("bad {what} {v:?}")),
        None => Ok(default),
    };
    let (n, seed) = (next("N", 4)? as usize, next("seed", 7)?);
    if let Some(extra) = positionals.next() {
        return Err(format!("unknown argument {extra}"));
    }

    let mut cfg = SimConfig::paper(n, seed);
    cfg.trace_capacity = 10_000;
    let (report, _nodes) = Engine::new(cfg, BurstOnce, RcvNode::new).run_collecting();

    println!(
        "RCV burst, N={n}, seed={seed}: {} CS executions, {} messages, safe={}\n",
        report.metrics.completed(),
        report.metrics.messages_sent(),
        report.is_safe()
    );
    match focus {
        Some(node) => print!("{}", report.trace.render_for(node)),
        None => print!("{}", report.trace.render()),
    }
    if gantt {
        println!("\nCS occupancy (one column per tick):");
        print!("{}", report.trace.render_gantt(n, 1));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("narrate", USAGE, run)
}
