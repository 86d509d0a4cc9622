//! Per-phase cost probes for the simulation hot path.
//!
//! The large-N optimization work needs the per-event cost *split* —
//! snapshot-take / merge / normalize / order / metrics, with the engine as
//! the residual — so the next bottleneck is measured, not guessed. The
//! probes live here (the lowest crate in the workspace graph) so both
//! `rcv-core` and the engine can stamp phases into one accumulator.
//!
//! Zero overhead when dark: every probe site starts with one relaxed
//! atomic load; timing and accumulation only happen after
//! [`set_enabled`]`(true)`. Accumulators are thread-local and are drained
//! by [`take`]. The engine may run a window's handlers on a second thread;
//! it folds that thread's accumulators into the calling thread's before
//! the run returns, so a run's totals are whole on the thread that ran it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A hot-path phase the probes can attribute time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbePhase {
    /// Taking a message snapshot of a node's SI (`MsgBody::snapshot`).
    SnapshotTake,
    /// The Exchange procedure's merge phases (everything before
    /// normalization).
    Merge,
    /// The post-merge normalization pass (scrub + zombie purge).
    Normalize,
    /// The Order procedure (Relative Consensus Voting).
    Order,
    /// Metrics bookkeeping in the engine's send/delivery path.
    Metrics,
}

/// Number of phases (array size for accumulators).
pub const PROBE_PHASES: usize = 5;

/// Display names, indexed by `ProbePhase as usize`.
pub const PROBE_NAMES: [&str; PROBE_PHASES] =
    ["snapshot", "merge", "normalize", "order", "metrics"];

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Per-phase `(nanoseconds, invocations)` for this thread.
    static ACC: RefCell<[(u64, u64); PROBE_PHASES]> =
        const { RefCell::new([(0, 0); PROBE_PHASES]) };
}

/// Turns the probes on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the probes are live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts timing `phase`; the returned guard records on drop. When probes
/// are dark this is a single relaxed load and the guard is inert.
#[inline]
pub fn probe(phase: ProbePhase) -> ProbeGuard {
    ProbeGuard {
        live: enabled().then(|| (phase, Instant::now())),
    }
}

/// RAII phase timer returned by [`probe`].
pub struct ProbeGuard {
    live: Option<(ProbePhase, Instant)>,
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        if let Some((phase, t0)) = self.live.take() {
            let dt = t0.elapsed().as_nanos() as u64;
            ACC.with(|acc| {
                let slot = &mut acc.borrow_mut()[phase as usize];
                slot.0 += dt;
                slot.1 += 1;
            });
        }
    }
}

/// One phase's accumulated cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Total nanoseconds attributed to the phase.
    pub nanos: u64,
    /// Number of probe invocations.
    pub count: u64,
}

/// Drains this thread's accumulators and returns them, indexed like
/// [`PROBE_NAMES`].
pub fn take() -> [PhaseCost; PROBE_PHASES] {
    ACC.with(|acc| {
        let mut a = acc.borrow_mut();
        let out = a.map(|(nanos, count)| PhaseCost { nanos, count });
        *a = [(0, 0); PROBE_PHASES];
        out
    })
}

/// Adds `costs` (another thread's [`take`]) to this thread's
/// accumulators.
pub(crate) fn absorb(costs: [PhaseCost; PROBE_PHASES]) {
    ACC.with(|acc| {
        for (slot, c) in acc.borrow_mut().iter_mut().zip(costs) {
            slot.0 += c.nanos;
            slot.1 += c.count;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe switch is process-wide, so the tests that flip it take
    /// turns.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn dark_probes_accumulate_nothing() {
        let _turn = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = take();
        {
            let _g = probe(ProbePhase::Merge);
        }
        assert!(take().iter().all(|c| c.count == 0));
    }

    #[test]
    fn live_probes_count_and_reset() {
        let _turn = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = take();
        {
            let _g = probe(ProbePhase::Normalize);
        }
        {
            let _g = probe(ProbePhase::Normalize);
        }
        let costs = take();
        set_enabled(false);
        assert_eq!(costs[ProbePhase::Normalize as usize].count, 2);
        assert_eq!(costs[ProbePhase::Merge as usize].count, 0);
        // Drained: a second take starts from zero.
        assert!(take().iter().all(|c| c.count == 0));
    }
}
