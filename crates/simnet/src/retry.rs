//! Deterministic retry/timeout policies for protocol timer machinery.
//!
//! A [`RetryPolicy`] decides *when to give up waiting* and try again: an
//! initial deadline, exponential backoff with a cap, and an optional
//! retry budget. Protocols arm their retransmission timers through it
//! instead of hard-coding an interval (the RCV retransmission extension
//! used to be a fixed-interval bolt-on; `RetryPolicy::fixed` reproduces
//! that behavior bit-identically).
//!
//! Determinism contract: a policy consumes **no** randomness, so enabling
//! one — or none at all — leaves every RNG stream of a simulation
//! bit-identical to a policy-free run, and the schedule is a pure
//! function of the attempt number (which the model checker needs).

use crate::time::SimDuration;

/// When to retransmit: deadline, exponential backoff, budget.
///
/// `Copy + Hash` on purpose: policies live inside protocol configuration
/// that is folded into model-checker state digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Initial deadline in ticks: how long to wait before the first
    /// retransmission.
    pub deadline: u64,
    /// Cap for the doubling backoff, in ticks. Equal to `deadline` for a
    /// fixed-interval policy.
    pub max_deadline: u64,
    /// Maximum number of retransmissions (`None` = retry forever).
    pub budget: Option<u32>,
}

impl RetryPolicy {
    /// Fixed-interval policy: retransmit every `ticks`, forever — RCV's
    /// original retransmission extension.
    pub fn fixed(ticks: u64) -> Self {
        assert!(ticks >= 1, "retry deadline must be >= 1 tick");
        RetryPolicy {
            deadline: ticks,
            max_deadline: ticks,
            budget: None,
        }
    }

    /// Doubling backoff from `base` up to `cap`, forever.
    pub fn backoff(base: u64, cap: u64) -> Self {
        assert!(base >= 1, "retry deadline must be >= 1 tick");
        assert!(cap >= base, "backoff cap must be >= the initial deadline");
        RetryPolicy {
            deadline: base,
            max_deadline: cap,
            budget: None,
        }
    }

    /// Caps the number of retransmissions (builder-style).
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The deadline to arm before retransmission number `attempt + 1`
    /// (`attempt` = retransmissions already performed, so the initial
    /// send arms with `attempt = 0`). Returns `None` once the budget is
    /// exhausted — the caller stops re-arming.
    pub fn backoff_delay(&self, attempt: u32) -> Option<SimDuration> {
        if let Some(budget) = self.budget {
            if attempt >= budget {
                return None;
            }
        }
        let doubled = if attempt >= 63 {
            u64::MAX
        } else {
            self.deadline.saturating_mul(1u64 << attempt)
        };
        Some(SimDuration::from_ticks(doubled.min(self.max_deadline)))
    }

    /// The shortest delay [`Self::backoff_delay`] ever returns: the first
    /// attempt's, capped.
    pub fn min_delay(&self) -> SimDuration {
        SimDuration::from_ticks(self.deadline.min(self.max_deadline))
    }

    /// Whether this policy ever gives up (has a finite budget).
    pub fn is_bounded(&self) -> bool {
        self.budget.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_never_backs_off_and_never_draws() {
        // No RNG in sight: the schedule is a function of the attempt alone
        // (the matrix fingerprint stability of policy-off cells and the
        // model checker's determinism rest on this).
        let p = RetryPolicy::fixed(2_000);
        for attempt in 0..10 {
            assert_eq!(
                p.backoff_delay(attempt),
                Some(SimDuration::from_ticks(2_000))
            );
        }
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let p = RetryPolicy::backoff(100, 800);
        let ds: Vec<u64> = (0..6)
            .map(|a| p.backoff_delay(a).unwrap().ticks())
            .collect();
        assert_eq!(ds, vec![100, 200, 400, 800, 800, 800]);
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        let p = RetryPolicy::backoff(100, u64::MAX);
        assert_eq!(p.backoff_delay(200).unwrap().ticks(), u64::MAX);
    }

    #[test]
    fn budget_exhaustion_stops_rearming() {
        let p = RetryPolicy::fixed(500).with_budget(2);
        assert!(p.backoff_delay(0).is_some());
        assert!(p.backoff_delay(1).is_some());
        assert_eq!(p.backoff_delay(2), None, "budget spent");
        assert_eq!(p.backoff_delay(99), None);
        assert!(p.is_bounded());
        assert!(!RetryPolicy::fixed(500).is_bounded());
    }

    #[test]
    fn min_delay_bounds_every_attempt() {
        let policies = [
            RetryPolicy::fixed(3),
            RetryPolicy::backoff(2, 40),
            RetryPolicy::backoff(5, 5),
            RetryPolicy::backoff(1, 64).with_budget(6),
            // A struct literal may set the cap below the first deadline.
            RetryPolicy {
                deadline: 9,
                max_deadline: 4,
                budget: None,
            },
        ];
        for p in policies {
            for attempt in 0..70 {
                if let Some(d) = p.backoff_delay(attempt) {
                    assert!(p.min_delay() <= d, "{p:?} attempt {attempt}: {d:?}");
                }
            }
        }
        assert_eq!(RetryPolicy::fixed(3).min_delay().ticks(), 3);
        let capped = RetryPolicy {
            max_deadline: 4,
            ..RetryPolicy::fixed(9)
        };
        assert_eq!(capped.min_delay().ticks(), 4);
    }

    #[test]
    #[should_panic(expected = "must be >= 1 tick")]
    fn zero_deadline_rejected() {
        RetryPolicy::fixed(0);
    }

    #[test]
    #[should_panic(expected = "cap must be >=")]
    fn cap_below_base_rejected() {
        RetryPolicy::backoff(100, 50);
    }
}
