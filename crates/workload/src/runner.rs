//! Experiment runner: one simulation → one [`Outcome`]; several seeds →
//! an averaged outcome.

use rcv_simnet::{BurstOnce, SimConfig, SimReport};

use crate::algo::Algo;
use crate::arrival::{PoissonWorkload, SaturationWorkload};

/// Condensed result of one run (or the mean of several).
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Messages per completed CS execution — the paper's NME.
    pub nme: f64,
    /// Mean response time (issue → CS entry), in ticks — the paper's RT.
    pub rt_mean: f64,
    /// 95th percentile response time.
    pub rt_p95: f64,
    /// Mean exit→entry gap (the synchronization delay under saturation).
    pub sync_mean: f64,
    /// Completed CS executions.
    pub completed: f64,
    /// Total messages.
    pub messages: f64,
    /// Approximate bytes on the wire.
    pub wire_bytes: f64,
    /// Virtual end time of the run.
    pub end_time: f64,
}

impl Outcome {
    /// Extracts an outcome from a finished run.
    ///
    /// Panics on an unsafe, deadlocked or truncated run: experiment tables
    /// must never silently average broken data (this guard caught a real
    /// Maekawa liveness bug during the FIG6 sweep).
    pub fn from_report(r: &SimReport) -> Self {
        assert!(r.is_safe(), "unsafe run must never be summarized");
        assert!(!r.deadlocked, "deadlocked run must never be summarized");
        assert!(!r.truncated, "truncated run must never be summarized");
        let rt = r.metrics.response_time();
        let gaps = r.metrics.sync_gaps();
        let sync_mean = if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().map(|d| d.as_f64()).sum::<f64>() / gaps.len() as f64
        };
        Outcome {
            nme: r.metrics.nme().unwrap_or(0.0),
            rt_mean: rt.mean,
            rt_p95: rt.p95,
            sync_mean,
            completed: r.metrics.completed() as f64,
            messages: r.metrics.messages_sent() as f64,
            wire_bytes: r.metrics.wire_bytes() as f64,
            end_time: r.end_time.ticks() as f64,
        }
    }

    /// Arithmetic mean of several outcomes (panics on empty input).
    pub fn mean_of(outcomes: &[Outcome]) -> Outcome {
        assert!(!outcomes.is_empty(), "mean of zero outcomes");
        let k = outcomes.len() as f64;
        let sum = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / k;
        Outcome {
            nme: sum(|o| o.nme),
            rt_mean: sum(|o| o.rt_mean),
            rt_p95: sum(|o| o.rt_p95),
            sync_mean: sum(|o| o.sync_mean),
            completed: sum(|o| o.completed),
            messages: sum(|o| o.messages),
            wire_bytes: sum(|o| o.wire_bytes),
            end_time: sum(|o| o.end_time),
        }
    }
}

/// Runs the paper's burst scenario (Figures 4-5) for one seed.
pub fn run_burst(algo: Algo, n: usize, seed: u64) -> Outcome {
    let cfg = SimConfig::paper(n, seed);
    Outcome::from_report(&algo.run(cfg, BurstOnce))
}

/// Runs the paper's Poisson scenario (Figures 6-7) for one seed.
pub fn run_poisson(algo: Algo, n: usize, inv_lambda: f64, seed: u64) -> Outcome {
    let cfg = SimConfig::paper(n, seed);
    Outcome::from_report(&algo.run(cfg, PoissonWorkload::paper(inv_lambda)))
}

/// Runs the saturation scenario (AN3/AN5) for one seed.
pub fn run_saturated(algo: Algo, n: usize, rounds: u32, seed: u64) -> Outcome {
    let cfg = SimConfig::paper(n, seed);
    Outcome::from_report(&algo.run(cfg, SaturationWorkload::new(n, rounds)))
}

/// Seed-averaged burst outcome.
pub fn burst_mean(algo: Algo, n: usize, seeds: &[u64]) -> Outcome {
    let runs: Vec<Outcome> = seeds.iter().map(|&s| run_burst(algo, n, s)).collect();
    Outcome::mean_of(&runs)
}

/// Seed-averaged Poisson outcome.
pub fn poisson_mean(algo: Algo, n: usize, inv_lambda: f64, seeds: &[u64]) -> Outcome {
    let runs: Vec<Outcome> = seeds
        .iter()
        .map(|&s| run_poisson(algo, n, inv_lambda, s))
        .collect();
    Outcome::mean_of(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_core::ForwardPolicy;

    #[test]
    fn burst_outcome_is_sane() {
        let o = run_burst(Algo::Rcv(ForwardPolicy::Random), 10, 1);
        assert_eq!(o.completed, 10.0);
        assert!(o.nme > 0.0);
        assert!(o.rt_mean > 0.0);
    }

    #[test]
    fn ricart_burst_nme_is_exact() {
        let o = run_burst(Algo::Ricart, 8, 0);
        assert_eq!(o.nme, 14.0, "2(N-1) for N=8");
    }

    #[test]
    fn mean_of_averages() {
        let a = run_burst(Algo::Broadcast, 6, 1);
        let b = run_burst(Algo::Broadcast, 6, 2);
        let m = Outcome::mean_of(&[a.clone(), b.clone()]);
        assert!((m.nme - (a.nme + b.nme) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_run_completes_requests() {
        let o = run_poisson(Algo::Rcv(ForwardPolicy::Random), 8, 200.0, 3);
        assert!(o.completed > 0.0, "a 100k-tick horizon must see arrivals");
    }

    #[test]
    fn saturated_run_counts_all_rounds() {
        let o = run_saturated(Algo::Broadcast, 5, 3, 0);
        assert_eq!(o.completed, 20.0);
    }
}
