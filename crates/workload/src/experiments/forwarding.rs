//! **EXT3 (extension)** — the paper's future work (§7): "investigate how
//! to improve the algorithm by designing different methods for forwarding
//! the request messages". Messages per CS under each RM forwarding policy.

use rcv_core::ForwardPolicy;

use crate::algo::Algo;
use crate::report::{fmt1, Table};
use crate::runner::burst_mean;

/// Runs the forwarding-policy comparison on the `n`-node burst.
pub fn run(n: usize, seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "EXT3",
        format!("RM forwarding policies: mean NME on the N={n} burst"),
        vec!["policy".into(), "NME".into()],
    );
    for policy in [
        ForwardPolicy::Random,
        ForwardPolicy::Sequential,
        ForwardPolicy::MostStale,
        ForwardPolicy::Freshest,
    ] {
        let nme = burst_mean(Algo::Rcv(policy), n, seeds).nme;
        t.push_row(vec![policy.label().into(), fmt1(nme)]);
    }
    t
}
