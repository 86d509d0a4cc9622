//! `repro` — regenerate every figure and analytic claim of the paper.
//!
//! ```text
//! repro [--quick] [--markdown] <experiment>...
//!
//! experiments: fig4 fig5 fig6 fig7 an1 an2 an3 an4 an5 ext1 ext2 ext3 all
//! ```
//!
//! `--quick` runs reduced sweeps (2 seeds, fewer points); the default is
//! the paper's full axes (N = 5..50 step 5; 1/λ sweep at N = 30 over a
//! 100 000-tick horizon; 5 seeds).

use std::process::ExitCode;

use rcv_bench::cli::{self, Flags};
use rcv_bench::{emit, Scale};
use rcv_workload::experiments::{analysis, bandwidth, fairness, fig4_5, fig6_7, forwarding};

const EXPERIMENTS: [&str; 12] = [
    "fig4", "fig5", "fig6", "fig7", "an1", "an2", "an3", "an4", "an5", "ext1", "ext2", "ext3",
];

const USAGE: &str = "usage: repro [--quick] [--markdown] <experiment>...\n\
    experiments: fig4 fig5 fig6 fig7 an1 an2 an3 an4 an5 ext1 ext2 ext3 all";

fn run() -> Result<ExitCode, String> {
    let mut f = Flags::from_env();
    let scale = if f.flag("--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let markdown = f.flag("--markdown");
    let mut wanted = f.positionals();
    f.finish()?;
    if wanted.is_empty() {
        return Err("name at least one experiment".into());
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS.map(String::from).to_vec();
    }

    let seeds = scale.seeds();
    let an_sizes = [10, 20, 30];

    // The paired figures share their runs; compute lazily and cache.
    let mut burst: Option<(rcv_workload::Table, rcv_workload::Table)> = None;
    let mut poisson: Option<(rcv_workload::Table, rcv_workload::Table)> = None;

    for w in &wanted {
        match w.as_str() {
            "fig4" | "fig5" => {
                if burst.is_none() {
                    eprintln!("[repro] running burst sweep (figures 4-5)...");
                    burst = Some(fig4_5::run(&scale.burst_sizes(), &seeds));
                }
                let (fig4, fig5) = burst.as_ref().expect("cached");
                emit(if w == "fig4" { fig4 } else { fig5 }, markdown);
            }
            "fig6" | "fig7" => {
                if poisson.is_none() {
                    eprintln!("[repro] running Poisson sweep (figures 6-7)...");
                    poisson = Some(fig6_7::run(scale.poisson_n(), &scale.inv_lambdas(), &seeds));
                }
                let (fig6, fig7) = poisson.as_ref().expect("cached");
                emit(if w == "fig6" { fig6 } else { fig7 }, markdown);
            }
            "an1" => emit(&analysis::an1(&an_sizes, &seeds), markdown),
            "an2" => emit(&analysis::an2(&an_sizes, &seeds), markdown),
            "an3" => emit(&analysis::an3(&an_sizes, &seeds), markdown),
            "an4" => emit(&analysis::an4(&an_sizes, &seeds), markdown),
            "an5" => emit(&analysis::an5(&an_sizes, &seeds), markdown),
            "ext1" => emit(&bandwidth::run(&an_sizes, &seeds), markdown),
            "ext2" => emit(&fairness::run(12, 5, &seeds), markdown),
            "ext3" => emit(&forwarding::run(20, &seeds), markdown),
            other => return Err(format!("unknown experiment {other}")),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("repro", USAGE, run)
}
