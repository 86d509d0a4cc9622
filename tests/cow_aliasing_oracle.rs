//! Property tests for the copy-on-write snapshot representation itself.
//!
//! `tests/merge_reference_equivalence.rs` proves the *merge pipeline*
//! matches the paper's reference semantics. This file proves the *storage
//! layer* underneath it: `MsgBody::snapshot` hands out structurally shared
//! handles (`Arc`-backed NONL items, row table, row MNLs), and those
//! handles must behave exactly like independent deep copies no matter how
//! the live `Si` is mutated afterwards — and vice versa: an `Si` whose
//! backing is shared with outstanding snapshots must evolve exactly like
//! one rebuilt with fresh allocations.
//!
//! Two oracles:
//!
//! * **Snapshot immutability** — take a shared snapshot and a deep copy at
//!   a random point in a random mutation sequence; after the remaining
//!   mutations run, the shared snapshot must still equal the deep copy.
//! * **Shared-handle equivalence** — run the same delivery/mutation
//!   sequence against a freshly-rebuilt (unshared) twin; states, merge
//!   outcomes, and representation-independent fingerprints must agree at
//!   every step, including after the snapshot *donor* keeps mutating.
//!
//! Plus a pinned content fingerprint across MNL representations (inline
//! vs heap-spilled), anchoring the model checker's hash-based state
//! merging against representation drift.

use proptest::prelude::*;
use rcv_core::{exchange, ExchangeOutcome, MsgBody, ReqTuple, Si};
use rcv_simnet::NodeId;

fn tuple(node: u32, ts: u64) -> ReqTuple {
    ReqTuple::new(NodeId::new(node), ts)
}

/// Rebuilds an `Si` value with entirely fresh heap backing — no `Arc` is
/// shared with the source. Content-equal by construction.
fn deep_copy(si: &Si) -> Si {
    let n = si.n();
    let mut out = Si::new(n);
    for t in si.nonl.iter() {
        out.nonl.append(*t);
    }
    for (k, row) in si.nsit.iter() {
        let dst = out.nsit.row_mut(k);
        dst.ts = row.ts;
        for t in row.mnl.iter() {
            dst.mnl.push(t);
        }
    }
    out.next = si.next;
    out
}

/// Deep-copies a message body (fresh backing for MONL and every row).
fn deep_copy_body(body: &MsgBody) -> MsgBody {
    let mut si = Si::new(body.msit.n());
    for t in body.monl.iter() {
        si.nonl.append(*t);
    }
    for (k, row) in body.msit.iter() {
        let dst = si.nsit.row_mut(k);
        dst.ts = row.ts;
        for t in row.mnl.iter() {
            dst.mnl.push(t);
        }
    }
    MsgBody {
        monl: si.nonl,
        msit: si.nsit,
    }
}

/// A representation-independent content fingerprint (FNV-1a over the
/// iterated tuples), used to detect drift without relying on `Hash`
/// internals. Equal states must fingerprint equal regardless of whether
/// their MNLs are inline or heap-spilled, shared or fresh.
fn fingerprint(si: &Si) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(PRIME)
    }
    let mut h = OFFSET;
    h = mix(h, si.nonl.len() as u64);
    for t in si.nonl.iter() {
        h = mix(h, t.node.index() as u64);
        h = mix(h, t.ts);
    }
    for (_, row) in si.nsit.iter() {
        h = mix(h, row.ts);
        h = mix(h, row.mnl.len() as u64);
        for t in row.mnl.iter() {
            h = mix(h, t.node.index() as u64);
            h = mix(h, t.ts);
        }
    }
    h
}

/// One step of an arbitrary interleaving: direct state mutations plus the
/// operations the protocol itself performs (normalize, merge delivery).
#[derive(Clone, Debug)]
enum Op {
    PushRow {
        row: u32,
        node: u32,
        ts: u64,
    },
    BumpRowTs {
        row: u32,
    },
    RemoveFromRow {
        row: u32,
        node: u32,
    },
    NonlAppend {
        node: u32,
        ts: u64,
    },
    Normalize,
    /// Deliver a snapshot of the *donor* state captured at this step.
    DeliverSnapshot,
}

fn arb_op(n: usize) -> impl Strategy<Value = Op> {
    let n = n as u32;
    prop_oneof![
        (0..n, 0..n, 1u64..6).prop_map(|(row, node, ts)| Op::PushRow { row, node, ts }),
        (0..n).prop_map(|row| Op::BumpRowTs { row }),
        (0..n, 0..n).prop_map(|(row, node)| Op::RemoveFromRow { row, node }),
        (0..n, 1u64..6).prop_map(|(node, ts)| Op::NonlAppend { node, ts }),
        Just(Op::Normalize),
        Just(Op::DeliverSnapshot),
    ]
}

/// Applies `op` to `si`, drawing deliveries from `donor`. `shared` selects
/// whether the delivered body uses the donor's shared backing
/// (`MsgBody::snapshot`) or a fresh deep copy — both must act identically.
fn apply(si: &mut Si, donor: &Si, op: &Op, shared: bool) -> Option<ExchangeOutcome> {
    match *op {
        Op::PushRow { row, node, ts } => {
            si.nsit.row_mut(NodeId::new(row)).mnl.push(tuple(node, ts));
            None
        }
        Op::BumpRowTs { row } => {
            si.nsit.row_mut(NodeId::new(row)).ts += 1;
            None
        }
        Op::RemoveFromRow { row, node } => {
            si.nsit
                .row_mut(NodeId::new(row))
                .mnl
                .remove_node(NodeId::new(node));
            None
        }
        Op::NonlAppend { node, ts } => {
            let t = tuple(node, ts);
            if !si.nonl.contains_node(t.node) {
                si.nonl.append(t);
            }
            None
        }
        Op::Normalize => {
            si.normalize_after_merge();
            None
        }
        Op::DeliverSnapshot => {
            let mut body = if shared {
                MsgBody::snapshot(&donor.nonl, &donor.nsit)
            } else {
                deep_copy_body(&MsgBody::snapshot(&donor.nonl, &donor.nsit))
            };
            Some(exchange(si, &mut body, None))
        }
    }
}

fn arb_seed(n: usize) -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..6), 0..8)
}

fn seeded_si(n: usize, seed: &[(u32, u32, u64)]) -> Si {
    let mut si = Si::new(n);
    for &(row, node, ts) in seed {
        let r = si.nsit.row_mut(NodeId::new(row));
        r.ts += 1;
        r.mnl.push(tuple(node, ts));
    }
    si
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        .. ProptestConfig::default()
    })]

    /// A shared snapshot taken mid-sequence must be bit-for-bit stable —
    /// equal to a deep copy taken at the same instant — no matter what
    /// the live `Si` does afterwards. This is the copy-on-write contract:
    /// mutation always unshares, never writes through.
    #[test]
    fn shared_snapshot_survives_later_mutation(
        n in 2usize..8,
        seed in arb_seed(8),
        donor_seed in arb_seed(8),
        ops in proptest::collection::vec(arb_op(8), 1..12),
        cut in 0usize..12,
    ) {
        let clamp = |s: &[(u32, u32, u64)]| -> Vec<(u32, u32, u64)> {
            s.iter().filter(|(r, c, _)| (*r as usize) < n && (*c as usize) < n).copied().collect()
        };
        let in_range = |op: &Op| match *op {
            Op::PushRow { row, node, .. } | Op::RemoveFromRow { row, node } =>
                (row as usize) < n && (node as usize) < n,
            Op::BumpRowTs { row } => (row as usize) < n,
            Op::NonlAppend { node, .. } => (node as usize) < n,
            Op::Normalize | Op::DeliverSnapshot => true,
        };
        let ops: Vec<Op> = ops.into_iter().filter(in_range).collect();
        let cut = cut.min(ops.len());

        let mut si = seeded_si(n, &clamp(&seed));
        let donor = seeded_si(n, &clamp(&donor_seed));

        for op in &ops[..cut] {
            apply(&mut si, &donor, op, true);
        }

        // Capture the observation point: a shared snapshot (aliases si's
        // backing) and a fully independent deep copy of the same content.
        let shared = MsgBody::snapshot(&si.nonl, &si.nsit);
        let frozen = deep_copy_body(&shared);
        prop_assert_eq!(&shared, &frozen);

        for op in &ops[cut..] {
            apply(&mut si, &donor, op, true);
        }

        // The live state moved on; the outstanding handle must not have.
        prop_assert_eq!(&shared, &frozen,
            "a mutation after the snapshot wrote through shared backing");
    }

    /// Lock-step equivalence: the same op sequence applied to (a) an `Si`
    /// whose backing is shared with a live donor and whose deliveries use
    /// shared snapshots, and (b) a freshly-rebuilt deep twin fed deep-
    /// copied bodies, must produce identical states, outcomes, and
    /// fingerprints at every step.
    #[test]
    fn shared_handles_match_deep_clones(
        n in 2usize..8,
        seed in arb_seed(8),
        donor_seed in arb_seed(8),
        ops in proptest::collection::vec(arb_op(8), 0..12),
    ) {
        let clamp = |s: &[(u32, u32, u64)]| -> Vec<(u32, u32, u64)> {
            s.iter().filter(|(r, c, _)| (*r as usize) < n && (*c as usize) < n).copied().collect()
        };
        let in_range = |op: &Op| match *op {
            Op::PushRow { row, node, .. } | Op::RemoveFromRow { row, node } =>
                (row as usize) < n && (node as usize) < n,
            Op::BumpRowTs { row } => (row as usize) < n,
            Op::NonlAppend { node, .. } => (node as usize) < n,
            Op::Normalize | Op::DeliverSnapshot => true,
        };

        let donor = seeded_si(n, &clamp(&donor_seed));
        let base = seeded_si(n, &clamp(&seed));

        // (a) shares backing with `base` via Clone; (b) is rebuilt fresh.
        let mut si_shared = base.clone();
        let mut si_deep = deep_copy(&base);
        prop_assert_eq!(&si_shared, &si_deep);

        for (step, op) in ops.iter().filter(|op| in_range(op)).enumerate() {
            let out_shared = apply(&mut si_shared, &donor, op, true);
            let out_deep = apply(&mut si_deep, &donor, op, false);
            prop_assert_eq!(&out_shared, &out_deep, "outcome diverged at step {}", step);
            prop_assert_eq!(&si_shared, &si_deep, "state diverged at step {}", step);
            prop_assert_eq!(
                fingerprint(&si_shared), fingerprint(&si_deep),
                "fingerprint diverged at step {}", step
            );
        }

        // The original `base` must be untouched by everything above: all
        // mutation went through COW handles.
        prop_assert_eq!(&base, &seeded_si(n, &clamp(&seed)));
    }
}

/// The model checker merges states by `Hash`/`Eq`; both must be blind to
/// whether an MNL is inline or heap-spilled and whether backing is shared.
/// Builds the same logical state along three representation paths and pins
/// its content fingerprint so drift in the iteration order or packing is
/// caught even if all three paths drift together with `Hash`.
#[test]
fn representation_fingerprint_is_pinned() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    let n = 24;
    // Path 1: straight inline builds (every row fits the inline cap).
    let direct = {
        let mut si = Si::new(n);
        si.nonl.append(tuple(3, 2));
        si.nonl.append(tuple(7, 4));
        for k in 0..n {
            let row = si.nsit.row_mut(NodeId::new(k as u32));
            row.ts = (k as u64) % 5;
            row.mnl.push(tuple(3, 2));
            row.mnl
                .push(tuple(((k + 1) % n) as u32, 1 + (k as u64) % 3));
        }
        si
    };
    // Path 2: spill every row past the inline cap, then drain back down —
    // rows end heap-backed (or demoted), same content.
    let spilled = {
        let mut si = Si::new(n);
        si.nonl.append(tuple(3, 2));
        si.nonl.append(tuple(7, 4));
        for k in 0..n {
            let row = si.nsit.row_mut(NodeId::new(k as u32));
            row.ts = (k as u64) % 5;
            for extra in 0..20u32 {
                // Disjoint node ids (>= n is fine for a raw Mnl) force a
                // heap spill before the real content lands.
                row.mnl.push(tuple(1000 + extra, 1));
            }
            row.mnl.push(tuple(3, 2));
            row.mnl
                .push(tuple(((k + 1) % n) as u32, 1 + (k as u64) % 3));
            for extra in 0..20u32 {
                row.mnl.remove_node(NodeId::new(1000 + extra));
            }
        }
        si
    };
    // Path 3: shared backing (clone of path 1).
    let aliased = direct.clone();

    assert_eq!(direct, spilled);
    assert_eq!(direct, aliased);
    assert_eq!(fingerprint(&direct), fingerprint(&spilled));
    assert_eq!(fingerprint(&direct), fingerprint(&aliased));

    let hash_of = |si: &Si| {
        let mut h = DefaultHasher::new();
        si.hash(&mut h);
        h.finish()
    };
    assert_eq!(hash_of(&direct), hash_of(&spilled));
    assert_eq!(hash_of(&direct), hash_of(&aliased));

    // Pinned: content fingerprint of this canonical state. Moves only if
    // iteration order or tuple content changes — i.e. an observable
    // representation regression, exactly what this test exists to catch.
    assert_eq!(fingerprint(&direct), 0x038d_a2bc_3068_0763);
}
