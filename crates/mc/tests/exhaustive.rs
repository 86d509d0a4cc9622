//! Exhaustive safety/liveness verification at small N — the successor of
//! the hand-rolled explorer that used to live in
//! `crates/core/tests/model_check.rs`, now covering fault branching
//! (bounded loss + duplication + crash-restart), counterexample
//! shrinking and the Ricart–Agrawala and Lamport baselines alongside RCV.
//!
//! Every clean run pins its exact counts: a reduction or a new branch
//! point that changes the explored space shows up here.

use rcv_core::ForwardPolicy;
use rcv_mc::{
    lamport_checker, rcv_checker, rcv_recovery_checker, ricart_checker, Decision, McEvent, McReport,
};
use rcv_simnet::{NodeId, RetryPolicy};

/// Deterministic policies only: the checker's dispatch must be a pure
/// function of the state.
const POLICIES: [ForwardPolicy; 3] = [
    ForwardPolicy::Sequential,
    ForwardPolicy::MostStale,
    ForwardPolicy::Freshest,
];

fn ids(raw: &[u32]) -> Vec<NodeId> {
    raw.iter().map(|&r| NodeId::new(r)).collect()
}

/// Asserts a clean exhaustive run with exactly these counts: visited
/// states, transitions, terminals and the deepest state expanded.
#[track_caller]
fn assert_counts<M>(r: &McReport<M>, want: (u64, u64, u64, u32)) {
    r.expect_clean_exhaustive();
    let s = &r.stats;
    assert_eq!(
        (s.visited, s.transitions, s.terminals, s.max_depth_seen),
        want,
        "{}",
        s.summary()
    );
}

#[test]
fn rcv_n2_both_request_all_policies() {
    for policy in POLICIES {
        assert_counts(&rcv_checker(2, policy).run(), (14, 15, 2, 6));
    }
}

#[test]
fn rcv_n3_two_requesters_all_policies() {
    for policy in POLICIES {
        let r = rcv_checker(3, policy).requesters(ids(&[0, 2])).run();
        assert_counts(&r, (34, 42, 4, 8));
    }
}

#[test]
fn rcv_n3_full_burst_all_policies() {
    for policy in POLICIES {
        assert_counts(&rcv_checker(3, policy).run(), (391, 638, 16, 13));
    }
}

#[test]
fn rcv_n4_two_requesters_sequential() {
    let r = rcv_checker(4, ForwardPolicy::Sequential)
        .requesters(ids(&[1, 3]))
        .run();
    assert_counts(&r, (57, 74, 6, 10));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large state space; run under --release")]
fn rcv_n4_full_burst_all_policies() {
    let counts = [
        (62_577, 115_690, 2_295, 22),
        (47_084, 85_566, 1_618, 22),
        (75_160, 139_665, 2_777, 23),
    ];
    for (policy, want) in POLICIES.into_iter().zip(counts) {
        assert_counts(&rcv_checker(4, policy).max_states(50_000_000).run(), want);
    }
}

#[test]
fn rcv_n5_two_requesters_sequential() {
    let r = rcv_checker(5, ForwardPolicy::Sequential)
        .requesters(ids(&[0, 4]))
        .run();
    assert_counts(&r, (104, 143, 8, 12));
}

/// The headline configuration from the issue: N=3 full burst with loss
/// AND duplication branching enabled, exhausted to the end.
#[test]
#[cfg_attr(debug_assertions, ignore = "large state space; run under --release")]
fn rcv_n3_burst_with_loss_and_duplication() {
    for policy in POLICIES {
        let r = rcv_checker(3, policy).drops(1).dups(1).run();
        assert_counts(&r, (33_099, 89_989, 1_251, 17));
    }
}

#[test]
fn rcv_n2_with_loss_and_duplication() {
    for policy in POLICIES {
        let r = rcv_checker(2, policy).drops(1).dups(1).run();
        assert_counts(&r, (213, 396, 33, 8));
    }
}

/// Duplication alone must never stall RCV (the goal predicate enforces
/// completion on paths where no message was lost).
#[test]
fn rcv_n3_duplication_only_still_live() {
    let r = rcv_checker(3, ForwardPolicy::Sequential).dups(2).run();
    assert_counts(&r, (407_858, 1_164_183, 812, 21));
}

/// Multi-round: each requester cycles through the CS twice, covering
/// re-request paths over non-fresh SI state.
#[test]
fn rcv_n2_two_rounds() {
    for policy in POLICIES {
        assert_counts(&rcv_checker(2, policy).rounds(2).run(), (83, 94, 9, 12));
    }
}

/// Crash-recovery at N=2: one crash-restart branched at every state
/// (either node, any instant), retransmission armed — exhausted with
/// zero violations. Small enough to run in debug builds.
#[test]
fn rcv_n2_one_crash_restart_exhausts_clean() {
    for policy in POLICIES {
        let r = rcv_recovery_checker(2, policy, Some(RetryPolicy::fixed(10).with_budget(1))).run();
        assert_counts(&r, (187_127, 690_819, 170, 19));
    }
}

/// The issue's headline configuration: RCV N=3 full burst with **one
/// crash-restart** branched at every state over every node — the victim
/// may be the CS holder, a waiter or a bystander, at any instant — with
/// write-ahead recovery resuming interrupted requests. Exhausted: zero
/// mutual exclusion violations, zero Lemma 6 violations, NONL prefix
/// consistency in every reachable state — 444,626 states, 594 terminals,
/// exhausted per policy.
///
/// No retransmission in this configuration: each armed retry timer is an
/// always-deliverable pending event whose interleavings (every fire
/// point launches a full re-campaign walk, crash-branched again) push
/// the N=3 space past tractability. The retry-armed recovery space is
/// exhausted at N=2 above; retry-armed liveness at N≥3 is covered
/// empirically by the matrix chaos cells on both backends.
#[test]
#[cfg_attr(debug_assertions, ignore = "large state space; run under --release")]
fn rcv_n3_burst_one_crash_restart_exhausts_clean() {
    for policy in POLICIES {
        let r = rcv_recovery_checker(3, policy, None)
            .max_states(50_000_000)
            .run();
        assert_counts(&r, (444_626, 1_467_472, 594, 22));
    }
}

/// A crash budget multiplies the explored space (crash branches exist at
/// every state) and must add terminals, not replace them: the fault-free
/// completions are still all there.
#[test]
fn crash_branching_extends_the_fault_free_space() {
    let base = rcv_checker(2, ForwardPolicy::Sequential).run();
    let crashy = rcv_recovery_checker(2, ForwardPolicy::Sequential, None).run();
    base.expect_clean_exhaustive();
    assert_counts(&crashy, (337, 659, 13, 10));
    assert!(crashy.stats.visited > base.stats.visited);
    assert!(crashy.stats.terminals >= base.stats.terminals);
}

#[test]
fn ricart_n3_burst() {
    assert_counts(&ricart_checker(3).run(), (334, 1_075, 1, 15));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large state space; run under --release")]
fn ricart_n4_burst() {
    assert_counts(&ricart_checker(4).run(), (124_444, 772_705, 1, 28));
}

#[test]
fn ricart_n3_with_duplication() {
    // Within one wait RA's per-sender reply bitmap dedups duplicated
    // REPLYs and REQUEST duplicates re-trigger a reply or a deferral,
    // both safe — single-round duplication is exhaustively clean. (The
    // first run of this configuration also flushed out a latent crash:
    // the REPLY handler debug-asserted `phase == Waiting`, but a
    // duplicate copy legally arrives after entry; the handler now drops
    // out-of-wait replies.)
    assert_counts(&ricart_checker(3).dups(1).run(), (4_187, 15_322, 5, 17));
}

/// Across rounds, duplication genuinely breaks classic Ricart–Agrawala:
/// REPLYs carry no request identifier, so a duplicated grant from round
/// one straggles into the next wait and authorizes a premature entry.
/// Pinned like the Lamport non-FIFO violation — a real protocol
/// limitation the checker proves (and the reason the scenario registry
/// keeps duplication regimes away from the baselines), not a bug in the
/// implementation.
#[test]
fn ricart_multi_round_duplication_finds_premature_entry() {
    let r = ricart_checker(2).dups(1).rounds(2).run();
    let v = r
        .violation
        .expect("cross-round duplication must break classic RA");
    assert!(
        v.description.contains("MUTUAL EXCLUSION"),
        "unexpected violation kind: {}",
        v.description
    );
    // The depth-first search meets this violation 11 steps in; the
    // minimizing search shrinks it to the 6-step minimum.
    assert!(v.minimal);
    assert!(
        v.steps.len() <= 6,
        "the minimizing search should find the 6-step minimal trace, got {}",
        v.steps.len()
    );
    assert_eq!(
        format!("{:?}", v.steps),
        "[Deliver(Deliver { from: N0, to: N1, msg: Request { ts: 1 } }), \
         Deliver(Deliver { from: N1, to: N0, msg: Request { ts: 1 } }), \
         Duplicate(Deliver { from: N1, to: N0, msg: Reply }), \
         Deliver(CsExit { node: N0 }), \
         Deliver(Deliver { from: N1, to: N0, msg: Reply }), \
         Deliver(Deliver { from: N0, to: N1, msg: Reply })]"
    );
    assert!(
        v.trace.matches("ENTERS the critical section").count() >= 2,
        "replay must narrate both entries:\n{}",
        v.trace
    );
}

/// A minimizing search the state cap stops keeps the depth-first
/// counterexample and says that it is not minimal; the exhaustion
/// search itself was not cut short.
#[test]
fn minimizing_search_cut_by_the_state_cap_keeps_the_depth_first_path() {
    let r = ricart_checker(2).dups(1).rounds(2).max_states(30).run();
    assert!(r.stats.aborted.is_none(), "{}", r.stats.summary());
    assert_eq!(r.stats.visited, 20);
    let v = r.violation.expect("the depth-first search finds it first");
    assert!(!v.minimal);
    assert_eq!(v.steps.len(), 11);
    assert!(v.to_string().contains("NOT minimal"), "{v}");
}

#[test]
fn ricart_n4_two_requesters_with_loss() {
    // Losing any message stalls someone (no retransmission), but that is
    // an attributable fault; safety must hold on every prefix.
    let r = ricart_checker(4).requesters(ids(&[0, 2])).drops(1).run();
    assert_counts(&r, (2_431, 9_898, 13, 14));
}

#[test]
fn lamport_n3_burst_fifo() {
    assert_counts(&lamport_checker(3).run(), (8_591, 19_843, 80, 21));
}

/// Lamport WITHOUT the FIFO assumption is genuinely unsafe — the
/// documented limitation, demonstrated exhaustively: an ACK from an
/// in-CS node can authorize a second entry before the first REQUEST
/// arrives. This pins the checker's ability to find and render real
/// violations, shrunk to a minimal counterexample.
#[test]
fn lamport_non_fifo_finds_mutual_exclusion_violation() {
    let r = lamport_checker(2).fifo(false).run();
    let v = r.violation.expect("non-FIFO Lamport must violate safety");
    assert!(
        v.description.contains("MUTUAL EXCLUSION"),
        "unexpected violation kind: {}",
        v.description
    );
    // The replayed narrative must carry both entries.
    assert!(
        v.trace.matches("ENTERS the critical section").count() >= 2,
        "trace should narrate both CS entries:\n{}",
        v.trace
    );
    // Every step of a minimal trace is a delivery of a reliable network:
    // no drop/duplicate decisions were available, and the minimizing
    // search found it within a handful of steps.
    assert!(v
        .steps
        .iter()
        .all(|d| matches!(d, Decision::Deliver(McEvent::Deliver { .. }))));
    assert!(v.minimal);
    assert!(
        v.steps.len() <= 8,
        "expected a short minimal counterexample, got {} steps",
        v.steps.len()
    );
}

/// The checker's loss branching must show up in the counterexample
/// machinery too: force a lost EM for RCV and check the stall is
/// *attributed* (no goal violation), while the un-dropped sibling paths
/// still complete.
#[test]
fn rcv_loss_paths_are_attributed_not_deadlocks() {
    let r = rcv_checker(2, ForwardPolicy::Sequential).drops(2).run();
    assert_counts(&r, (26, 34, 9, 6));
    // Sanity: with a loss budget the terminal count strictly exceeds the
    // fault-free run's (stalled terminals join completed ones).
    let clean = rcv_checker(2, ForwardPolicy::Sequential).run();
    assert!(r.stats.terminals > clean.stats.terminals);
}

/// Depth bounding truncates instead of lying: a tiny bound must report
/// truncated > 0 and therefore exhausted() == false.
#[test]
fn depth_bound_reports_truncation() {
    let r = rcv_checker(3, ForwardPolicy::Sequential).max_depth(3).run();
    assert!(r.violation.is_none());
    assert!(r.stats.truncated > 0);
    assert!(!r.stats.exhausted());
}

/// State-cap abort is reported, not silent.
#[test]
fn state_cap_aborts_loudly() {
    let r = rcv_checker(3, ForwardPolicy::Sequential)
        .max_states(10)
        .run();
    assert!(r.stats.aborted.is_some());
    assert!(!r.stats.exhausted());
}

/// Fingerprint sanity: delivering two *identical* in-flight copies in
/// either order reaches one canonical state, so a duplication budget of
/// one exactly doubles nothing — the checker merges the permutations.
#[test]
fn duplicate_copies_are_merged_choices() {
    let r = rcv_checker(2, ForwardPolicy::Sequential).dups(1).run();
    assert_counts(&r, (117, 184, 8, 8));
}

/// The old explorer pinned these cross-checks as well: counterexample
/// steps expose the public `Decision` and `McEvent` API.
#[test]
fn mc_event_api_is_usable() {
    let ev: McEvent<u32> = McEvent::CsExit {
        node: NodeId::new(1),
    };
    assert_eq!(
        ev,
        McEvent::CsExit {
            node: NodeId::new(1)
        }
    );
    assert_ne!(Decision::Deliver(ev.clone()), Decision::Drop(ev));
}
