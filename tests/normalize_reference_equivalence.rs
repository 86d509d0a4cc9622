//! Property test: `Si::normalize_after_merge` — the dense facts pass plus
//! decision pass that ends every Exchange — equals the reference pair it
//! replaces, `scrub_ordered_from_mnls(); purge_completed()`, on arbitrary
//! `Si` states: the same post-`Si` and the same zombie count.
//!
//! `tests/merge_reference_equivalence.rs` checks the whole Exchange, but
//! only on Lemma-1-valid states below 7 nodes. This file checks the
//! normalization alone, on the states that test cannot reach:
//!
//! * systems of up to 130 nodes with sparse rows, so node ids ≥ 64 (which
//!   alias in a 64-bit node mask) are common;
//! * home rows holding two own tuples (Lemma 1 violated);
//! * NONLs with two entries for one node;
//! * untracked rows (`Mnl::new()`), whose owner-tuple cache is off.
//!
//! Each state is built from a drawn seed so its shape can depend on the
//! drawn system size (the offline proptest stand-in has no
//! `prop_flat_map`).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcv_core::{Mnl, ReqTuple, Si};
use rcv_simnet::NodeId;

fn tuple(node: usize, ts: u64) -> ReqTuple {
    ReqTuple::new(NodeId::new(node as u32), ts)
}

/// Which invariant-breaking shapes a generated state may contain.
#[derive(Clone, Copy, Debug)]
struct Corruption {
    two_own_tuples: bool,
    two_nonl_entries: bool,
    untracked_rows: bool,
}

impl Corruption {
    fn from_bits(bits: u8) -> Self {
        Corruption {
            two_own_tuples: bits & 1 != 0,
            two_nonl_entries: bits & 2 != 0,
            untracked_rows: bits & 4 != 0,
        }
    }
}

/// An arbitrary `n`-node state. Tuples are drawn mostly from a small set
/// of "hot" nodes spread over the whole id range, with timestamps from a
/// small range, so one request recurs across rows and every decision
/// branch is common: NONL member, live (its home row lists it), zombie
/// (fresh home row without it), stale (home row older than it).
fn arb_si(seed: u64, n: usize, c: Corruption) -> Si {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hot: Vec<usize> = (0..6).map(|_| rng.gen_range(0..n)).collect();
    let pick = |rng: &mut SmallRng| {
        if rng.gen_bool(0.7) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..n)
        }
    };
    let mut si = Si::new(n);
    for _ in 0..rng.gen_range(0..5usize) {
        let node = pick(&mut rng);
        if si.nonl.iter().all(|t| t.node.index() != node) {
            si.nonl.append(tuple(node, rng.gen_range(1..6u64)));
        }
    }
    if c.two_nonl_entries && rng.gen_bool(0.5) {
        let node = pick(&mut rng);
        si.nonl.append(tuple(node, 1));
        si.nonl.append(tuple(node, 2));
    }
    let mut rows: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
    rows.extend(hot.iter().copied());
    for k in rows {
        let mut items: Vec<ReqTuple> = Vec::new();
        if rng.gen_bool(0.6) {
            items.push(tuple(k, rng.gen_range(1..6u64)));
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let node = pick(&mut rng);
            if items.iter().all(|t| t.node.index() != node) {
                items.push(tuple(node, rng.gen_range(1..6u64)));
            }
        }
        let row = si.nsit.row_mut(NodeId::new(k as u32));
        row.ts = rng.gen_range(0..6u64);
        if c.two_own_tuples && rng.gen_bool(0.2) {
            // Two live own tuples with in-range timestamps, so other rows'
            // copies of either one meet a home row fresh enough to judge.
            let a = rng.gen_range(1..6u64);
            items.retain(|t| t.node.index() != k);
            items.push(tuple(k, a));
            items.push(tuple(k, a % 5 + 1));
            row.mnl = Mnl::from_raw(items);
        } else {
            if c.untracked_rows && rng.gen_bool(0.3) {
                row.mnl = Mnl::new();
            }
            for t in items {
                row.mnl.push(t);
            }
        }
    }
    si
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        .. ProptestConfig::default()
    })]

    /// The shipped pass and the reference pair agree on the post-state
    /// and the zombie count, and the shipped pass is idempotent. Run on a
    /// Lemma-1-valid state that needs no removal, it does not even
    /// unshare the table.
    #[test]
    fn normalize_matches_scrub_then_purge(
        seed in any::<u64>(),
        n in 2usize..131,
        bits in 0u8..8,
    ) {
        let c = Corruption::from_bits(bits);
        let si = arb_si(seed, n, c);

        let mut fast = si.clone();
        let zombies = fast.normalize_after_merge();

        let mut reference = si;
        reference.scrub_ordered_from_mnls();
        let purged = reference.purge_completed().len();

        prop_assert_eq!(zombies, purged, "zombie count, {:?}", c);
        prop_assert_eq!(&fast, &reference, "post-Si, {:?}", c);

        let mut again = fast.clone();
        prop_assert_eq!(again.normalize_after_merge(), 0);
        prop_assert_eq!(&again, &fast);
        if !c.two_own_tuples && !c.two_nonl_entries {
            prop_assert!(again.nsit.same_backing(&fast.nsit), "clean pass unshared the table");
        }
    }
}
