//! Cross-algorithm integration battery: every implemented algorithm must
//! satisfy the three correctness properties on shared scenarios, and the
//! relative performance claims of the paper's §6 must hold between them.

use rcv_simnet::{BurstOnce, FixedTrace, NodeId, SimConfig, SimTime};
use rcv_workload::algo::Algo;
use rcv_workload::arrival::SaturationWorkload;
use rcv_workload::runner::{burst_mean, poisson_mean, run_burst};

#[test]
fn all_algorithms_clean_on_bursts() {
    for algo in Algo::all() {
        for n in [1, 2, 7, 13, 20] {
            for seed in 0..3 {
                let r = algo.run(SimConfig::paper(n, seed), BurstOnce);
                assert!(r.is_safe(), "{} N={n} seed={seed}: violation", algo.name());
                assert!(!r.deadlocked, "{} N={n} seed={seed}: deadlock", algo.name());
                assert_eq!(
                    r.metrics.completed(),
                    n,
                    "{} N={n} seed={seed}: starvation",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn all_algorithms_clean_under_saturation() {
    for algo in Algo::all() {
        let n = 8;
        let rounds = 3;
        let r = algo.run(SimConfig::paper(n, 5), SaturationWorkload::new(n, rounds));
        assert!(r.is_safe(), "{}", algo.name());
        assert_eq!(
            r.metrics.completed(),
            n * (rounds as usize + 1),
            "{}",
            algo.name()
        );
    }
}

#[test]
fn all_algorithms_clean_on_staggered_trace() {
    let arrivals: Vec<(SimTime, NodeId)> = (0..10u32)
        .map(|i| (SimTime::from_ticks((i as u64) * 7), NodeId::new(i)))
        .collect();
    for algo in Algo::all() {
        let r = algo.run(SimConfig::paper(10, 2), FixedTrace::new(arrivals.clone()));
        assert!(r.is_safe(), "{}", algo.name());
        assert_eq!(r.metrics.completed(), 10, "{}", algo.name());
    }
}

/// Paper §6.2 / Figure 4: in the burst, RCV exchanges the fewest messages
/// of the four compared algorithms once N ≥ 10.
#[test]
fn fig4_claim_rcv_fewest_messages() {
    let seeds = [1, 2, 3];
    for n in [10, 20, 30] {
        let rcv = burst_mean(Algo::paper_four()[0], n, &seeds).nme;
        for algo in &Algo::paper_four()[1..] {
            let other = burst_mean(*algo, n, &seeds).nme;
            assert!(
                rcv < other,
                "N={n}: RCV NME {rcv:.1} not below {} NME {other:.1}",
                algo.name()
            );
        }
    }
}

/// Paper §6.2 / Figure 7: under heavy load, Maekawa's response time is the
/// worst of the four; Broadcast and Ricart are the best; RCV sits between.
#[test]
fn fig7_claim_rt_ordering_under_heavy_load() {
    let n = 16;
    let seeds = [1, 2];
    let inv_lambda = 2.0;
    let rcv = poisson_mean(Algo::paper_four()[0], n, inv_lambda, &seeds).rt_mean;
    let maekawa = poisson_mean(Algo::Maekawa, n, inv_lambda, &seeds).rt_mean;
    let broadcast = poisson_mean(Algo::Broadcast, n, inv_lambda, &seeds).rt_mean;
    let ricart = poisson_mean(Algo::Ricart, n, inv_lambda, &seeds).rt_mean;

    assert!(
        maekawa > rcv,
        "Maekawa RT {maekawa:.0} must exceed RCV RT {rcv:.0}"
    );
    assert!(
        maekawa > broadcast && maekawa > ricart,
        "Maekawa must be the slowest"
    );
    // RCV a little above the token/permission algorithms (paper: "a little
    // higher than Broadcast and Ricart") — allow equality within 25%.
    assert!(
        rcv <= broadcast * 1.25 && rcv <= ricart * 1.25,
        "RCV RT {rcv:.0} too far above Broadcast {broadcast:.0} / Ricart {ricart:.0}"
    );
}

/// Paper §6.1.2: RCV's synchronization delay (one hop) beats Maekawa's
/// (classically 2·Tn: RELEASE to the arbiter + LOCKED to the next).
#[test]
fn sync_delay_rcv_beats_maekawa() {
    let n = 9;
    let rcv = {
        let r = Algo::paper_four()[0].run(SimConfig::paper(n, 3), SaturationWorkload::new(n, 2));
        let gaps = r.metrics.sync_gaps();
        gaps.iter().map(|g| g.as_f64()).sum::<f64>() / gaps.len() as f64
    };
    let mk = {
        let r = Algo::Maekawa.run(SimConfig::paper(n, 3), SaturationWorkload::new(n, 2));
        let gaps = r.metrics.sync_gaps();
        gaps.iter().map(|g| g.as_f64()).sum::<f64>() / gaps.len() as f64
    };
    assert!(
        rcv < mk,
        "RCV sync delay {rcv:.1} must beat Maekawa's {mk:.1} (Tn vs 2Tn)"
    );
    assert!(
        (4.5..=6.0).contains(&rcv),
        "RCV sync delay {rcv:.1} should be ≈ Tn = 5"
    );
}

/// Ricart's NME is exactly 2(N−1) regardless of load — the anchor the
/// paper compares against.
#[test]
fn ricart_nme_is_load_independent() {
    for n in [6, 12] {
        let burst = run_burst(Algo::Ricart, n, 0).nme;
        let light = {
            let trace = FixedTrace::new(vec![(SimTime::ZERO, NodeId::new(1))]);
            let r = Algo::Ricart.run(SimConfig::paper(n, 0), trace);
            r.metrics.nme().unwrap()
        };
        assert_eq!(burst, 2.0 * (n as f64 - 1.0));
        assert_eq!(light, 2.0 * (n as f64 - 1.0));
    }
}

/// The extension algorithms keep their textbook message counts.
#[test]
fn extension_algorithms_match_textbook_costs() {
    let n = 8;
    // Lamport: 3(N-1) for a lone request.
    let trace = FixedTrace::new(vec![(SimTime::ZERO, NodeId::new(2))]);
    let lp = Algo::Lamport.run(SimConfig::paper(n, 0), trace.clone());
    assert_eq!(lp.metrics.messages_sent() as usize, 3 * (n - 1));
    // Raymond: root requester sends nothing.
    let root = FixedTrace::new(vec![(SimTime::ZERO, NodeId::new(0))]);
    let ry = Algo::Raymond.run(SimConfig::paper(n, 0), root);
    assert_eq!(ry.metrics.messages_sent(), 0);
    // Roucairol-Carvalho: first request 2(N-1), repeat request free.
    let twice = FixedTrace::new(vec![
        (SimTime::ZERO, NodeId::new(2)),
        (SimTime::from_ticks(100), NodeId::new(2)),
    ]);
    let rd = Algo::RaDynamic.run(SimConfig::paper(n, 0), twice);
    assert_eq!(rd.metrics.messages_sent() as usize, 2 * (n - 1));
    assert_eq!(rd.metrics.completed(), 2);
}
