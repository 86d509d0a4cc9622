//! Per-event heap-allocation test for clean-row deliveries.
//!
//! A "clean" delivery is a snapshot + `exchange` where the receiver's
//! table already agrees with the message: no row is adopted and normalize
//! removes nothing. With copy-on-write snapshots this path must not
//! rematerialize the O(N)-row table — a snapshot is a reference-count bump
//! per list, so the allocation cost per delivery is a small constant
//! (measured: zero) with no term that grows with the number of rows or
//! their content.
//!
//! This binary registers [`rcv_allocmeter::CountingAllocator`] so the
//! assertion is on *measured bytes*, not on reasoning about the code.

#[global_allocator]
static ALLOC: rcv_allocmeter::CountingAllocator = rcv_allocmeter::CountingAllocator;

use rcv_core::{exchange, MsgBody, ReqTuple, Si};
use rcv_simnet::NodeId;

/// An Si with real content: a few home rows carry owner tuples (spread
/// across the table) so rows are non-trivial and the NONL/own caches are
/// exercised, not just an all-default table.
fn populated_si(n: usize) -> Si {
    let mut si = Si::new(n);
    for j in 0..4usize.min(n) {
        let node = NodeId::new((j * n / 4) as u32);
        let row = si.nsit.row_mut(node);
        row.ts += 1;
        row.mnl.push(ReqTuple::new(node, 5 + j as u64));
    }
    si
}

/// Bytes allocated across `k` clean snapshot+deliver round trips at size
/// `n`, after warm-up deliveries that let the thread-local merge scratch
/// (overlay maps, normalize facts) size itself to `n`.
fn bytes_per_clean_delivery(n: usize, k: u64) -> f64 {
    let si = populated_si(n);
    let mut recv = si.clone();

    // Warm-up: sizes the epoch scratch maps and settles any lazy shared
    // backings so the metered loop sees only steady-state allocation.
    for _ in 0..3 {
        let mut body = MsgBody::snapshot(&si.nonl, &si.nsit);
        exchange(&mut recv, &mut body, None);
    }

    rcv_allocmeter::take();
    for _ in 0..k {
        let mut body = MsgBody::snapshot(&si.nonl, &si.nsit);
        exchange(&mut recv, &mut body, None);
        std::hint::black_box(&recv);
    }
    rcv_allocmeter::take().bytes as f64 / k as f64
}

#[test]
fn clean_delivery_allocation_does_not_grow_with_n() {
    let per_small = bytes_per_clean_delivery(200, 64);
    let per_large = bytes_per_clean_delivery(1000, 64);

    // Absolute cap: a deep snapshot at N=1000 would clone ~1000 rows
    // (hundreds of KB). The COW path must stay under a small constant.
    assert!(
        per_large < 256.0,
        "clean delivery at N=1000 allocates {per_large:.0} B/event — \
         snapshot path is rematerializing the table"
    );

    // Relative: `Nsit::clone` is a single `Arc` bump, so going 200 -> 1000
    // rows must not allocate a single byte more per delivery.
    assert!(
        per_large <= per_small,
        "per-event allocation grew with N: {per_small:.0} B at N=200 vs \
         {per_large:.0} B at N=1000"
    );
}
