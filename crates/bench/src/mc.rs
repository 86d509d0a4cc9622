//! The exhaustive model-checking suite behind the `mc` binary: named
//! cells (algorithm × N × fault budgets), a time-boxed CI selection, and
//! a JSON artifact with visited-state/transition counts.
//!
//! The heavy lifting lives in the `rcv-mc` crate; this module maps the
//! harness-level [`Algo`] onto the per-protocol checker builders and
//! erases the per-protocol types so one report ranges over all of them.
//! Algorithms are named by [`Algo::tag`], as on every other binary.

use std::fmt::Write as _;
use std::time::Instant;

use rcv_core::ForwardPolicy;
use rcv_mc::{lamport_checker, rcv_checker, ricart_checker, McProtocol, McSummary, ModelChecker};
use rcv_workload::Algo;

use crate::perf::json_str;

/// Report schema identifier.
pub const SCHEMA: &str = "rcv-mc/v1";

/// Search strategy selector for the CLI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first (default: lowest memory on deep thin graphs).
    Dfs,
    /// Breadth-first (minimal counterexamples).
    Bfs,
}

impl Strategy {
    /// Parses `dfs` / `bfs`.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "dfs" => Some(Strategy::Dfs),
            "bfs" => Some(Strategy::Bfs),
            _ => None,
        }
    }
}

/// One checking scenario: an algorithm, a node count and fault budgets
/// (full synchronized burst, one round each — the adversarial workload).
#[derive(Clone, Debug)]
pub struct McCell {
    /// The algorithm (must be [`Algo::model_checkable`]).
    pub algo: Algo,
    /// Node count.
    pub n: usize,
    /// Loss budget per explored path.
    pub drops: u32,
    /// Duplication budget per explored path.
    pub dups: u32,
}

impl McCell {
    /// Stable cell name, e.g. `rcv-seq/n3/d1p1`.
    pub fn name(&self) -> String {
        format!(
            "{}/n{}/d{}p{}",
            self.algo.tag(),
            self.n,
            self.drops,
            self.dups
        )
    }
}

/// The time-boxed CI suite: RCV at N=3 under **every deterministic
/// forwarding policy with loss and duplication branching**, plus the
/// Ricart–Agrawala and Lamport baselines at N=3 — each run to
/// exhaustion. Tuned to finish well under the CI job's time box
/// (~15 s of checking on a laptop-class core).
pub fn ci_suite() -> Vec<McCell> {
    let mut cells: Vec<McCell> = [
        ForwardPolicy::Sequential,
        ForwardPolicy::MostStale,
        ForwardPolicy::Freshest,
    ]
    .into_iter()
    .map(|p| McCell {
        algo: Algo::Rcv(p),
        n: 3,
        drops: 1,
        dups: 1,
    })
    .collect();
    cells.push(McCell {
        algo: Algo::Ricart,
        n: 3,
        drops: 0,
        dups: 1,
    });
    cells.push(McCell {
        algo: Algo::Lamport,
        n: 3,
        drops: 0,
        dups: 0,
    });
    cells
}

/// Limits applied to every run from the CLI.
#[derive(Clone, Copy, Debug)]
pub struct McOptions {
    /// Search order.
    pub strategy: Strategy,
    /// CS rounds per requester.
    pub rounds: u32,
    /// Optional depth bound (`None` = unbounded — required for a
    /// "proved exhaustively" verdict).
    pub max_depth: Option<u32>,
    /// Stored-state cap (abort, not panic).
    pub max_states: u64,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            strategy: Strategy::Dfs,
            rounds: 1,
            max_depth: None,
            max_states: 20_000_000,
        }
    }
}

/// Outcome of one cell.
#[derive(Clone, Debug)]
pub struct McOutcome {
    /// Cell name ([`McCell::name`]).
    pub cell: String,
    /// Display name of the algorithm.
    pub algo: &'static str,
    /// Node count.
    pub n: usize,
    /// Erased checker report.
    pub report: McSummary,
    /// Wall-clock seconds the search took.
    pub secs: f64,
}

impl McOutcome {
    /// Exhausted the state space with zero violations.
    pub fn passed(&self) -> bool {
        self.report.exhausted && self.report.violation.is_none()
    }
}

fn finish<P>(mut c: ModelChecker<P>, cell: &McCell, opts: &McOptions) -> McSummary
where
    P: McProtocol,
    P::Message: PartialEq + std::fmt::Debug,
{
    c = c
        .drops(cell.drops)
        .dups(cell.dups)
        .rounds(opts.rounds)
        .max_states(opts.max_states);
    if let Some(d) = opts.max_depth {
        c = c.max_depth(d);
    }
    match opts.strategy {
        Strategy::Dfs => c.run_dfs().erase(),
        Strategy::Bfs => c.run_bfs().erase(),
    }
}

/// Runs one cell to completion; refuses an algorithm that is not
/// [`Algo::model_checkable`].
pub fn run_cell(cell: &McCell, opts: &McOptions) -> Result<McOutcome, String> {
    let started = Instant::now();
    let report = match cell.algo {
        Algo::Rcv(policy) if cell.algo.model_checkable() => {
            finish(rcv_checker(cell.n, policy), cell, opts)
        }
        Algo::Ricart => finish(ricart_checker(cell.n), cell, opts),
        Algo::Lamport => finish(lamport_checker(cell.n), cell, opts),
        other => return Err(format!("{} has no model-checker adapter", other.tag())),
    };
    Ok(McOutcome {
        cell: cell.name(),
        algo: cell.algo.name(),
        n: cell.n,
        report,
        secs: started.elapsed().as_secs_f64(),
    })
}

/// Renders the outcomes as the `rcv-mc/v1` JSON artifact. Like the
/// rtmatrix report this is **not** a committed baseline — wall-clock
/// fields vary — but the state/transition counts are deterministic and
/// diffable.
pub fn render_report(outcomes: &[McOutcome]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {},", json_str(SCHEMA));
    let _ = writeln!(
        s,
        "  \"passed\": {},",
        outcomes.iter().all(McOutcome::passed)
    );
    s.push_str("  \"cells\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let r = &o.report;
        let violation = match &r.violation {
            None => "null".to_string(),
            Some((desc, steps, trace)) => format!(
                "{{\"description\": {}, \"steps\": {steps}, \"trace\": {}}}",
                json_str(desc),
                json_str(trace)
            ),
        };
        let _ = write!(
            s,
            "    {{\"cell\": {}, \"algo\": {}, \"n\": {}, \"strategy\": {}, \
             \"visited\": {}, \"transitions\": {}, \"terminals\": {}, \"revisits\": {}, \
             \"max_depth_seen\": {}, \"exhausted\": {}, \"secs\": {:.3}, \"violation\": {}}}",
            json_str(&o.cell),
            json_str(o.algo),
            o.n,
            json_str(r.strategy),
            r.visited,
            r.transitions,
            r.terminals,
            r.revisits,
            r.max_depth_seen,
            r.exhausted,
            o.secs,
            violation,
        );
        s.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_suite_is_checkable_and_named() {
        let cells = ci_suite();
        assert!(cells.len() >= 5, "RCV×3 policies + two baselines");
        for c in &cells {
            assert!(c.algo.model_checkable(), "{}", c.name());
            assert_eq!(c.n, 3, "CI is pinned to N=3");
        }
        assert_eq!(cells[0].name(), "rcv-seq/n3/d1p1");
    }

    #[test]
    fn run_cell_produces_a_clean_report_and_valid_json() {
        // N=2 keeps this a sub-second unit test; CI runs the N=3 suite.
        let cell = McCell {
            algo: Algo::Ricart,
            n: 2,
            drops: 0,
            dups: 0,
        };
        let out = run_cell(&cell, &McOptions::default()).expect("checkable");
        assert!(out.passed(), "{}", out.report.summary());
        let json = render_report(&[out]);
        assert!(json.contains("\"schema\": \"rcv-mc/v1\""));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"violation\": null"));
    }

    #[test]
    fn violations_survive_into_the_artifact() {
        // Non-FIFO Lamport is the pinned genuine violation; BFS keeps the
        // trace minimal. Build it directly — the CLI can't express
        // fifo(false), which is deliberate.
        let out = {
            let started = Instant::now();
            let report = lamport_checker(2).fifo(false).run_bfs().erase();
            McOutcome {
                cell: "lamport-nofifo/n2/d0p0".into(),
                algo: Algo::Lamport.name(),
                n: 2,
                report,
                secs: started.elapsed().as_secs_f64(),
            }
        };
        assert!(!out.passed());
        let json = render_report(&[out]);
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("MUTUAL EXCLUSION"));
    }

    #[test]
    fn slugs_round_trip() {
        // A cell is named by its algorithm's tag, the name `--algo` takes.
        for cell in ci_suite() {
            let name = cell.name();
            assert_eq!(
                name.split('/').next().and_then(Algo::from_tag),
                Some(cell.algo)
            );
        }
        assert!(Algo::from_tag("rcv-random").is_none());
    }

    #[test]
    fn every_checkable_algorithm_exhausts_n2_and_the_rest_are_refused() {
        let checkable = ci_suite().into_iter().map(|c| c.algo);
        for algo in Algo::all().into_iter().chain(checkable) {
            let cell = McCell {
                algo,
                n: 2,
                drops: 0,
                dups: 0,
            };
            match run_cell(&cell, &McOptions::default()) {
                Ok(o) => assert!(
                    algo.model_checkable() && o.passed(),
                    "{}",
                    o.report.summary()
                ),
                Err(e) => assert!(!algo.model_checkable(), "{e}"),
            }
        }
    }
}
