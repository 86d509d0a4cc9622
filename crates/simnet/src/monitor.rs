//! Global safety monitor.
//!
//! The monitor is the omniscient observer of every tier: it sees every CS
//! entry and exit and checks the paper's Theorem 1 (mutual exclusion)
//! externally, independent of any protocol bookkeeping. The engine feeds
//! it directly, the thread tier shares one behind a mutex, and the process
//! tier replays its CS log into one. It checks and does not measure: the
//! synchronization delay (§6.1.2) is a metric, kept by
//! [`crate::SimMetrics`].

use crate::ids::NodeId;
use crate::time::SimTime;

/// A recorded mutual exclusion violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A node entered while another was inside.
    Overlap {
        /// When the second node entered.
        at: SimTime,
        /// Who already held the CS.
        holder: NodeId,
        /// Who entered on top of them.
        intruder: NodeId,
    },
    /// A node exited a CS it did not hold.
    ForeignExit {
        /// When it exited.
        at: SimTime,
        /// Who exited.
        node: NodeId,
        /// Who held the CS at the time (`None`: nobody).
        holder: Option<NodeId>,
    },
}

/// Everything a [`SafetyMonitor`] accumulated over a run, moved out (not
/// cloned) when the run report is assembled.
#[derive(Debug)]
pub struct MonitorParts {
    /// All recorded violations (empty ⇔ mutual exclusion held).
    pub violations: Vec<Violation>,
    /// Total CS entries observed.
    pub entries: u64,
    /// Total CS exits observed.
    pub exits: u64,
}

/// Tracks CS occupancy and records every violation of it.
#[derive(Debug, Default)]
pub struct SafetyMonitor {
    occupant: Option<NodeId>,
    entries: u64,
    exits: u64,
    violations: Vec<Violation>,
}

impl SafetyMonitor {
    /// Fresh monitor, CS free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `node` entering the CS at `now`.
    ///
    /// If the CS is already occupied — by another node or by `node`
    /// itself — the violation is recorded, and the new node becomes the
    /// tracked occupant so subsequent exits stay coherent.
    pub fn enter(&mut self, node: NodeId, now: SimTime) {
        if let Some(holder) = self.occupant {
            self.violations.push(Violation::Overlap {
                at: now,
                holder,
                intruder: node,
            });
        }
        self.occupant = Some(node);
        self.entries += 1;
    }

    /// Records `node` leaving the CS at `now`. Exiting a CS one does not
    /// hold is a violation too; the occupant, if any, stays.
    pub fn exit(&mut self, node: NodeId, now: SimTime) {
        if self.occupant == Some(node) {
            self.occupant = None;
        } else {
            self.violations.push(Violation::ForeignExit {
                at: now,
                node,
                holder: self.occupant,
            });
        }
        self.exits += 1;
    }

    /// Removes `node` as occupant without recording a CS exit: its process
    /// died (crash fault) — a dead process cannot be "inside" the CS.
    /// Returns whether the node actually held the CS (it may have been
    /// displaced by an earlier overlap). Exit/entry counters are untouched.
    pub fn evict(&mut self, node: NodeId) -> bool {
        if self.occupant == Some(node) {
            self.occupant = None;
            true
        } else {
            false
        }
    }

    /// Current occupant, if any.
    pub fn occupant(&self) -> Option<NodeId> {
        self.occupant
    }

    /// Total number of CS entries observed.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total number of CS exits observed.
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// All recorded violations (empty ⇔ mutual exclusion held).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether mutual exclusion held for the whole run.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the monitor, moving its accumulated observations out
    /// without copying the violation vector.
    pub fn into_parts(self) -> MonitorParts {
        MonitorParts {
            violations: self.violations,
            entries: self.entries,
            exits: self.exits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn clean_alternation_is_safe() {
        let mut m = SafetyMonitor::new();
        m.enter(NodeId::new(0), t(10));
        m.exit(NodeId::new(0), t(20));
        m.enter(NodeId::new(1), t(25));
        m.exit(NodeId::new(1), t(35));
        assert!(m.is_safe());
        assert_eq!(m.entries(), 2);
        assert_eq!(m.exits(), 2);
        assert_eq!(m.occupant(), None);
    }

    #[test]
    fn overlap_is_recorded() {
        let mut m = SafetyMonitor::new();
        m.enter(NodeId::new(0), t(10));
        m.enter(NodeId::new(1), t(12));
        assert!(!m.is_safe());
        assert_eq!(
            m.violations(),
            &[Violation::Overlap {
                at: t(12),
                holder: NodeId::new(0),
                intruder: NodeId::new(1)
            }]
        );
    }

    #[test]
    fn foreign_exit_is_a_counted_violation() {
        let mut m = SafetyMonitor::new();
        m.enter(NodeId::new(0), t(1));
        m.exit(NodeId::new(1), t(2));
        assert_eq!(m.occupant(), Some(NodeId::new(0)), "the holder stays");
        m.exit(NodeId::new(0), t(4));
        m.exit(NodeId::new(0), t(5)); // nobody holds it now
        assert_eq!(m.exits(), 3);
        assert_eq!(
            m.violations(),
            &[
                Violation::ForeignExit {
                    at: t(2),
                    node: NodeId::new(1),
                    holder: Some(NodeId::new(0))
                },
                Violation::ForeignExit {
                    at: t(5),
                    node: NodeId::new(0),
                    holder: None
                }
            ]
        );
    }

    #[test]
    fn into_parts_moves_everything_out() {
        let mut m = SafetyMonitor::new();
        m.enter(NodeId::new(0), t(0));
        m.exit(NodeId::new(0), t(10));
        m.enter(NodeId::new(1), t(15));
        let p = m.into_parts();
        assert!(p.violations.is_empty());
        assert_eq!(p.entries, 2);
        assert_eq!(p.exits, 1);
    }

    #[test]
    fn evict_clears_occupancy_without_sync_gap() {
        // The gap half of this claim lives with the gaps, in
        // `metrics::tests::eviction_starts_no_gap`.
        let mut m = SafetyMonitor::new();
        m.enter(NodeId::new(0), t(0));
        assert!(m.evict(NodeId::new(0)));
        assert_eq!(m.occupant(), None);
        assert_eq!(m.exits(), 0, "an eviction is not a protocol exit");
        m.enter(NodeId::new(1), t(50));
        assert!(m.is_safe());
        assert!(!m.evict(NodeId::new(0)), "no-op when not the occupant");
    }
}
