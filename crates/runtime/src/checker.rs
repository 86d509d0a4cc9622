//! Mutual exclusion on the real tiers, judged by the simulator's own
//! [`SafetyMonitor`].
//!
//! The node driver reports its CS life cycle through [`CsProbe`], stamped
//! with its tick clock. Node threads share one `Arc<Mutex<SafetyMonitor>>`;
//! worker processes share no memory, so each appends to one `O_APPEND` log
//! ([`CsLogProbe`]) that the hub replays into a fresh monitor
//! ([`replay_cs_log`]).

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rcv_simnet::{NodeId, SafetyMonitor, SimTime};

/// Observer of critical-section entry/exit/eviction events.
pub(crate) trait CsProbe {
    /// The node entered the CS at `now` (the driver's tick clock).
    fn enter(&self, node: NodeId, now: SimTime);
    /// The node left the CS normally at `now`.
    fn exit(&self, node: NodeId, now: SimTime);
    /// The node died while holding the CS (no exit will follow).
    fn evict(&self, node: NodeId);
}

/// A monitor's lock. Its methods cannot panic mid-update, so a poisoned
/// lock still guards a coherent monitor.
pub(crate) fn lock(m: &Mutex<SafetyMonitor>) -> MutexGuard<'_, SafetyMonitor> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(entries, violations)`: what a run report keeps of a monitor.
pub(crate) fn tally(m: &SafetyMonitor) -> (u64, u64) {
    (m.entries(), m.violations().len() as u64)
}

/// The thread tier's probe: every node thread holds the one monitor.
impl CsProbe for Arc<Mutex<SafetyMonitor>> {
    fn enter(&self, node: NodeId, now: SimTime) {
        lock(self).enter(node, now)
    }
    fn exit(&self, node: NodeId, now: SimTime) {
        lock(self).exit(node, now)
    }
    fn evict(&self, node: NodeId) {
        lock(self).evict(node);
    }
}

/// A [`CsProbe`] that appends one record per event to a shared log file.
///
/// Worker processes have no shared memory, so cross-process mutual
/// exclusion is checked through the kernel instead: the file is opened
/// `O_APPEND` and each record is a single small `write(2)`, which POSIX
/// serializes atomically. Records are written *from inside the CS*
/// (enter after the protocol grants, exit before it releases), so the
/// append order observed in the file is a linearization in which each
/// recorded interval is a **subset** of the real CS hold — any overlap in
/// the log is a real overlap, never a false positive. The order is all
/// the replay needs, so a record carries no time.
pub(crate) struct CsLogProbe {
    file: std::fs::File,
}

impl CsLogProbe {
    /// Opens (creating if needed) the shared log in append mode.
    pub(crate) fn open(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CsLogProbe { file })
    }

    fn append(&self, kind: u8, node: NodeId) {
        let rec = format!("{} {}\n", kind as char, node.index());
        // A failed append must not crash the CS hold; the orchestrator
        // detects the shortfall as exits != completed.
        let _ = (&self.file).write_all(rec.as_bytes());
    }
}

impl CsProbe for CsLogProbe {
    fn enter(&self, node: NodeId, _now: SimTime) {
        self.append(b'E', node);
    }
    fn exit(&self, node: NodeId, _now: SimTime) {
        self.append(b'X', node);
    }
    fn evict(&self, node: NodeId) {
        self.append(b'V', node);
    }
}

/// Replays a [`CsLogProbe`] file into a fresh [`SafetyMonitor`] — a
/// record's line number is its time — and returns `(entries, violations,
/// exits)`. Malformed lines count as violations: a corrupt safety log
/// must never read as "safe". A hold evicted by a crash has an entry but
/// no exit, so `exits` is what counts completed holds.
pub(crate) fn replay_cs_log(path: &Path) -> std::io::Result<(u64, u64, u64)> {
    let text = std::fs::read_to_string(path)?;
    let mut monitor = SafetyMonitor::new();
    let mut malformed = 0u64;
    for (line_no, line) in text.lines().enumerate() {
        let at = SimTime::from_ticks(line_no as u64);
        let mut parts = line.split(' ');
        let record = parts
            .next()
            .zip(parts.next().and_then(|s| s.parse::<u32>().ok()));
        match record {
            Some(("E", n)) => monitor.enter(NodeId::new(n), at),
            Some(("X", n)) => monitor.exit(NodeId::new(n), at),
            Some(("V", n)) => {
                monitor.evict(NodeId::new(n));
            }
            _ => malformed += 1,
        }
    }
    let (entries, violations) = tally(&monitor);
    Ok((entries, violations + malformed, monitor.exits()))
}

#[cfg(test)]
mod tests {
    //! The thread tier's shared monitor, driven as the node driver drives
    //! it, and the process tier's log replay.

    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn shared() -> Arc<Mutex<SafetyMonitor>> {
        Arc::new(Mutex::new(SafetyMonitor::new()))
    }

    fn seen(m: &Mutex<SafetyMonitor>) -> (u64, u64) {
        tally(&lock(m))
    }

    /// Feeds `script` (`E0 X0 E1 …`: enter/exit by node, one tick apart)
    /// through the probe of one shared monitor; `(entries, violations)`.
    fn drive(script: &str) -> (u64, u64) {
        let m = shared();
        for (tick, rec) in script.split_whitespace().enumerate() {
            let (node, now) = (n(rec[1..].parse().unwrap()), t(tick as u64));
            match &rec[..1] {
                "E" => m.enter(node, now),
                _ => m.exit(node, now),
            }
        }
        seen(&m)
    }

    #[test]
    fn clean_sequence_is_safe() {
        assert_eq!(drive("E0 X0 E1 X1"), (2, 0));
    }

    #[test]
    fn overlap_is_counted() {
        assert_eq!(drive("E0 E1"), (2, 1));
    }

    #[test]
    fn foreign_exit_is_counted() {
        assert_eq!(drive("E0 X3"), (1, 1));
    }

    #[test]
    fn back_to_back_reentry_by_same_node_is_a_violation() {
        // Re-entering without an exit is a bug even with nobody else in.
        assert_eq!(drive("E2 E2"), (2, 1));
    }

    #[test]
    fn exit_without_any_entry_is_a_violation() {
        assert_eq!(drive("X0"), (0, 1));
    }

    #[test]
    fn zero_duration_critical_sections_are_counted() {
        // Enter and exit in one tick: a full, safe execution.
        let m = shared();
        for i in 0..100u32 {
            m.enter(n(i % 4), t(7));
            m.exit(n(i % 4), t(7));
        }
        assert_eq!(seen(&m), (100, 0));
    }

    #[test]
    fn overlap_at_identical_instants_is_detected_and_recovers() {
        // Two entries in one tick count once; the usurper's exit frees
        // the CS and clean traffic afterwards stays clean.
        let m = shared();
        m.enter(n(0), t(5));
        m.enter(n(1), t(5));
        m.exit(n(1), t(5));
        m.enter(n(2), t(6));
        m.exit(n(2), t(6));
        assert_eq!(seen(&m), (3, 1));
    }

    #[test]
    fn concurrent_hammering_never_double_admits() {
        // 8 threads share the monitor with disciplined enter/exit; the
        // shared monitor itself must serialize correctly (no false
        // violations, no lost entries).
        let m = shared();
        let gate = Arc::new(Mutex::new(())); // external mutex = discipline
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let (m, gate) = (Arc::clone(&m), Arc::clone(&gate));
                std::thread::spawn(move || {
                    for tick in 0..200 {
                        let _g = gate.lock().unwrap();
                        m.enter(n(i), t(tick));
                        m.exit(n(i), t(tick));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen(&m), (1600, 0));
    }

    #[test]
    fn replayed_logs_are_judged_by_the_monitor() {
        let path = std::env::temp_dir().join(format!("rcv-replay-{}.log", std::process::id()));
        let replay = |log: &str| {
            std::fs::write(&path, log).unwrap();
            replay_cs_log(&path).unwrap()
        };
        assert_eq!(replay("E 0\nX 0\nE 1\nX 1\n"), (2, 0, 2), "clean");
        assert_eq!(replay("E 0\nE 1\nX 1\n"), (2, 1, 1), "overlap");
        assert_eq!(replay("E 0\nX 1\nX 0\n"), (1, 1, 2), "exit by a non-holder");
        assert_eq!(
            replay("E 0\nV 0\nE 1\nX 1\n"),
            (2, 0, 1),
            "eviction frees the CS, and only the exit counts as completed"
        );
        assert_eq!(
            replay("E 0\nX 0\nE x\nQ 1\nE\n"),
            (1, 3, 1),
            "malformed lines"
        );
        std::fs::remove_file(&path).unwrap();
        assert!(replay_cs_log(&path).is_err(), "a missing log is no verdict");
    }
}
