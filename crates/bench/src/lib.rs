//! # rcv-bench — benchmark harness and figure regeneration
//!
//! Entry points:
//!
//! * the **`repro` binary** — regenerates every figure/analytic table of
//!   the paper (`cargo run -p rcv-bench --release --bin repro -- all`);
//! * the **throughput bench** — `cargo bench -p rcv-bench --bench
//!   engine_throughput`: events/sec for every algorithm on the paper's
//!   constant-delay burst, written as machine-readable
//!   `BENCH_RESULTS.json` (see [`perf`]) and gated in CI against
//!   `crates/bench/baseline/engine_throughput.json`;
//! * the **`matrix` binary** — executes the scenario conformance grid of
//!   `rcv_workload::scenario` (sharded in CI), writes
//!   `MATRIX_RESULTS.json` (see [`matrix`]) and gates on the committed
//!   baseline;
//! * the **`rtmatrix` binary** — the differential simnet↔runtime
//!   conformance harness (see [`rtmatrix`]): registry cells executed on
//!   both the deterministic simulator and the real-thread runtime, with
//!   safety/anomaly/liveness/message-envelope cross-checks.
//!
//! This library only hosts the small amount of shared helper code; the
//! interesting logic lives in `rcv-workload`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod matrix;
pub mod mc;
pub mod perf;
pub mod rtmatrix;

use rcv_workload::Table;

/// Scale of a regeneration run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fast: reduced sweeps, 2 seeds — CI-sized.
    Quick,
    /// The paper's full axes, 5 seeds.
    Full,
}

impl Scale {
    /// Seeds to average over.
    pub fn seeds(&self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 2],
            Scale::Full => vec![1, 2, 3, 4, 5],
        }
    }

    /// Node counts for the burst sweep (Figures 4-5).
    pub fn burst_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![5, 10, 20, 30],
            Scale::Full => rcv_workload::experiments::fig4_5::paper_sizes(),
        }
    }

    /// Load points for the Poisson sweep (Figures 6-7).
    pub fn inv_lambdas(&self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![2.0, 10.0, 30.0],
            Scale::Full => rcv_workload::experiments::fig6_7::paper_inv_lambdas(),
        }
    }

    /// System size for the Poisson sweep.
    pub fn poisson_n(&self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Full => rcv_workload::experiments::fig6_7::PAPER_N,
        }
    }
}

/// Prints a table in both fixed-width and markdown forms.
pub fn emit(table: &Table, markdown: bool) {
    if markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Quick.seeds().len() < Scale::Full.seeds().len());
        assert_eq!(Scale::Full.burst_sizes().len(), 10);
        assert_eq!(Scale::Full.poisson_n(), 30);
    }
}
