//! The exhaustive model-checking suite behind the `mc` binary: named
//! cells (algorithm × N × fault budgets), a time-boxed CI selection, and
//! a JSON artifact with visited-state/transition counts.
//!
//! The heavy lifting lives in the `rcv-mc` crate; this module maps the
//! harness-level [`Algo`] onto the per-protocol checker builders and
//! keeps what one report ranging over all of them needs: the counters
//! ([`McStats`]) and the rendered counterexample.
//! Algorithms are named by [`Algo::tag`], as on every other binary.

use std::fmt::Write as _;
use std::time::Instant;

use rcv_core::ForwardPolicy;
use rcv_mc::{lamport_checker, rcv_checker, ricart_checker, McProtocol, McStats, ModelChecker};
use rcv_workload::Algo;

use crate::perf::json_str;

/// Report schema identifier.
pub const SCHEMA: &str = "rcv-mc/v2";

/// One checking scenario: an algorithm, a node count, fault budgets and
/// the CS rounds per requester (every node requests at once — the
/// adversarial workload).
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
    /// CS rounds per requester.
    pub rounds: u32,
}

impl McCell {
    /// Stable cell name, e.g. `rcv-seq/n3/d1p1`, with the rounds appended
    /// when they are not 1 (`ricart/n2/d0p1/r2`).
    pub fn name(&self) -> String {
        let name = format!(
            "{}/n{}/d{}p{}",
            self.algo.tag(),
            self.n,
            self.drops,
            self.dups
        );
        match self.rounds {
            1 => name,
            r => format!("{name}/r{r}"),
        }
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
        rounds: 1,
    })
    .collect();
    cells.push(McCell {
        algo: Algo::Ricart,
        n: 3,
        drops: 0,
        dups: 1,
        rounds: 1,
    });
    cells.push(McCell {
        algo: Algo::Lamport,
        n: 3,
        drops: 0,
        dups: 0,
        rounds: 1,
    });
    cells
}

/// Limits applied to every run from the CLI.
#[derive(Clone, Copy, Debug)]
pub struct McOptions {
    /// Optional depth bound (`None` = unbounded — required for a
    /// "proved exhaustively" verdict).
    pub max_depth: Option<u32>,
    /// Stored-state cap (abort, not panic).
    pub max_states: u64,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
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
    /// What the search covered.
    pub stats: McStats,
    /// The counterexample, rendered ([`rcv_mc::Counterexample`]'s
    /// `Display`: description, length, minimality, narrated replay).
    pub violation: Option<String>,
    /// Wall-clock seconds the search took.
    pub secs: f64,
}

impl McOutcome {
    /// Exhausted the state space with zero violations.
    pub fn passed(&self) -> bool {
        self.stats.exhausted() && self.violation.is_none()
    }
}

fn finish<P>(mut c: ModelChecker<P>, cell: &McCell, opts: &McOptions) -> (McStats, Option<String>)
where
    P: McProtocol,
    P::Message: PartialEq,
{
    c = c
        .drops(cell.drops)
        .dups(cell.dups)
        .rounds(cell.rounds)
        .max_states(opts.max_states);
    if let Some(d) = opts.max_depth {
        c = c.max_depth(d);
    }
    let report = c.run();
    (report.stats, report.violation.map(|v| v.to_string()))
}

/// Runs one cell to completion; refuses an algorithm that is not
/// [`Algo::model_checkable`].
pub fn run_cell(cell: &McCell, opts: &McOptions) -> Result<McOutcome, String> {
    let started = Instant::now();
    let (stats, violation) = match cell.algo {
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
        stats,
        violation,
        secs: started.elapsed().as_secs_f64(),
    })
}

/// Renders the outcomes as the `rcv-mc/v2` JSON artifact. Like the
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
        let r = &o.stats;
        let _ = write!(
            s,
            "    {{\"cell\": {}, \"algo\": {}, \"n\": {}, \
             \"visited\": {}, \"transitions\": {}, \"terminals\": {}, \"revisits\": {}, \
             \"max_depth_seen\": {}, \"exhausted\": {}, \"secs\": {:.3}, \"violation\": {}}}",
            json_str(&o.cell),
            json_str(o.algo),
            o.n,
            r.visited,
            r.transitions,
            r.terminals,
            r.revisits,
            r.max_depth_seen,
            r.exhausted(),
            o.secs,
            o.violation.as_deref().map_or("null".to_string(), json_str),
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
            rounds: 1,
        };
        let out = run_cell(&cell, &McOptions::default()).expect("checkable");
        assert!(out.passed(), "{}", out.stats.summary());
        let json = render_report(&[out]);
        assert!(json.contains("\"schema\": \"rcv-mc/v2\""));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"violation\": null"));
    }

    #[test]
    fn violations_survive_into_the_artifact() {
        // Non-FIFO Lamport is the pinned genuine violation. Build it
        // directly — the CLI can't express fifo(false), which is
        // deliberate.
        let out = {
            let started = Instant::now();
            let report = lamport_checker(2).fifo(false).run();
            McOutcome {
                cell: "lamport-nofifo/n2/d0p0".into(),
                algo: Algo::Lamport.name(),
                n: 2,
                stats: report.stats,
                violation: report.violation.map(|v| v.to_string()),
                secs: started.elapsed().as_secs_f64(),
            }
        };
        assert!(!out.passed());
        let json = render_report(&[out]);
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("MUTUAL EXCLUSION"));
        assert!(json.contains("minimal counterexample, 4 steps"));
    }

    #[test]
    fn cell_names_carry_rounds_other_than_one() {
        let mut cell = McCell {
            algo: Algo::Ricart,
            n: 2,
            drops: 0,
            dups: 1,
            rounds: 1,
        };
        assert_eq!(cell.name(), "ricart/n2/d0p1");
        cell.rounds = 2;
        assert_eq!(cell.name(), "ricart/n2/d0p1/r2");
    }

    /// Visited, transitions, terminals, revisits and the deepest state
    /// expanded.
    type Counts = (u64, u64, u64, u64, u32);

    /// What each CI cell exhausts to.
    const CI_COUNTS: [(&str, Counts); 5] = [
        ("rcv-seq/n3/d1p1", (33_099, 89_989, 1_251, 56_891, 17)),
        ("rcv-stale/n3/d1p1", (33_099, 89_989, 1_251, 56_891, 17)),
        ("rcv-fresh/n3/d1p1", (33_099, 89_989, 1_251, 56_891, 17)),
        ("ricart/n3/d0p1", (4_187, 15_322, 5, 11_136, 17)),
        ("lamport/n3/d0p0", (8_591, 19_843, 80, 11_253, 21)),
    ];

    fn assert_ci_counts(rcv: bool) {
        let cells = ci_suite();
        assert_eq!(cells.len(), CI_COUNTS.len());
        for (cell, (name, want)) in cells.into_iter().zip(CI_COUNTS) {
            assert_eq!(cell.name(), name);
            if matches!(cell.algo, Algo::Rcv(_)) != rcv {
                continue;
            }
            let o = run_cell(&cell, &McOptions::default()).expect("checkable");
            assert!(o.passed(), "{name}: {}", o.stats.summary());
            let s = &o.stats;
            let got = (
                s.visited,
                s.transitions,
                s.terminals,
                s.revisits,
                s.max_depth_seen,
            );
            assert_eq!(got, want, "{name}: {}", s.summary());
        }
    }

    #[test]
    fn ci_baseline_cells_keep_their_counts() {
        assert_ci_counts(false);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "0.5 s per cell in release; run under --release"
    )]
    fn ci_rcv_cells_keep_their_counts() {
        assert_ci_counts(true);
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
                rounds: 1,
            };
            match run_cell(&cell, &McOptions::default()) {
                Ok(o) => assert!(
                    algo.model_checkable() && o.passed(),
                    "{}",
                    o.stats.summary()
                ),
                Err(e) => assert!(!algo.model_checkable(), "{e}"),
            }
        }
    }
}
