//! **Figures 4 and 5** (paper §6.2, first experiment): all N nodes request
//! the CS simultaneously at system initialization, each exactly once, with
//! empty initial knowledge; plot the mean number of messages exchanged per
//! CS execution (Figure 4) and mean response time (Figure 5) against the
//! node count, for RCV, Maekawa, Ricart and Broadcast.

use crate::algo::Algo;
use crate::report::{fmt1, Table};
use crate::runner::{burst_mean, Outcome};
use crate::sweep::{default_threads, parmap};

/// The paper's x-axis: N from 5 to 50 in steps of 5.
pub fn paper_sizes() -> Vec<usize> {
    (1..=10).map(|k| k * 5).collect()
}

/// Runs the burst experiment and renders both figures' data.
///
/// Returns `(fig4_nme, fig5_rt)` — two tables over the same runs.
pub fn run(sizes: &[usize], seeds: &[u64]) -> (Table, Table) {
    let algos = Algo::paper_four();
    let mut columns = vec!["N".to_string()];
    columns.extend(algos.iter().map(|a| a.name().to_string()));

    let mut fig4 = Table::new(
        "FIG4",
        "mean messages per CS execution vs node count (burst, every node once)",
        columns.clone(),
    );
    let mut fig5 = Table::new(
        "FIG5",
        "mean response time (ticks) vs node count (burst)",
        columns,
    );

    // One job per (N, algorithm) grid point, run in parallel; every job is
    // an independent deterministic simulation, so the tables are identical
    // to the serial computation.
    let jobs: Vec<(usize, Algo)> = sizes
        .iter()
        .flat_map(|&n| algos.iter().map(move |&a| (n, a)))
        .collect();
    let outcomes: Vec<Outcome> = parmap(jobs, default_threads(), |(n, algo)| {
        burst_mean(algo, n, seeds)
    });

    for (row_idx, &n) in sizes.iter().enumerate() {
        let mut nme_row = vec![n.to_string()];
        let mut rt_row = vec![n.to_string()];
        for col in 0..algos.len() {
            let o = &outcomes[row_idx * algos.len() + col];
            nme_row.push(fmt1(o.nme));
            rt_row.push(fmt1(o.rt_mean));
        }
        fig4.push_row(nme_row);
        fig5.push_row(rt_row);
    }
    (fig4, fig5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_paper_shape() {
        // A reduced sweep (test-speed) must already show the headline
        // claim: RCV sends the fewest messages of the four. At N=5 the
        // Broadcast token can edge RCV out (README § "Experiment index",
        // FIG4, is this sweep); from N=10 up RCV must win outright.
        let (fig4, fig5) = run(&[10, 15], &[1, 2]);
        assert_eq!(fig4.rows.len(), 2);
        assert_eq!(fig5.rows.len(), 2);

        let rcv = fig4.numeric_column("RCV (ours)");
        for other in ["Maekawa", "Ricart", "Broadcast"] {
            let col = fig4.numeric_column(other);
            for (i, (&a, &b)) in rcv.iter().zip(col.iter()).enumerate() {
                assert!(
                    a < b,
                    "RCV must beat {other} on NME at N={}, got {a} vs {b}",
                    fig4.rows[i][0]
                );
            }
        }
    }

    #[test]
    fn nme_grows_with_n_for_everyone() {
        let (fig4, _) = run(&[5, 15], &[3]);
        for algo in ["RCV (ours)", "Maekawa", "Ricart", "Broadcast"] {
            let col = fig4.numeric_column(algo);
            assert!(col[1] > col[0], "{algo}: NME must grow with N");
        }
    }

    #[test]
    fn paper_sizes_match_figure_axis() {
        assert_eq!(paper_sizes(), vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50]);
    }
}
