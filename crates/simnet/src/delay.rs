//! Message propagation delay models.
//!
//! The paper's simulation uses a constant delay `Tn = 5` tu between every
//! pair of nodes. Because one of the algorithm's headline claims is that it
//! **does not require FIFO channels**, we also provide jittered models under
//! which two messages on the same channel routinely overtake one another —
//! the integration suite runs the full safety battery under these.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimDuration;

/// How long a message takes from send to delivery.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this long (the paper's model; FIFO by
    /// construction since ties fire in insertion order).
    Constant(SimDuration),
    /// Uniformly random in `[min, max]` (inclusive). With `max > min`,
    /// channels are *not* FIFO.
    Uniform {
        /// Smallest possible delay.
        min: SimDuration,
        /// Largest possible delay.
        max: SimDuration,
    },
    /// Exponentially distributed with the given mean, clamped to
    /// `[1, cap]` ticks. Heavy tail ⇒ aggressive reordering.
    Exponential {
        /// Mean delay in ticks (before clamping).
        mean: f64,
        /// Upper clamp in ticks.
        cap: u64,
    },
}

impl DelayModel {
    /// The paper's constant `Tn = 5` tu.
    pub fn paper_constant() -> Self {
        DelayModel::Constant(SimDuration::from_ticks(5))
    }

    /// A jittered model centred on the paper's `Tn = 5` that reorders
    /// messages (used by the non-FIFO battery).
    pub fn paper_jittered() -> Self {
        DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(9),
        }
    }

    /// Draws one delay.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform delay with min > max");
                SimDuration::from_ticks(rng.gen_range(min.ticks()..=max.ticks()))
            }
            DelayModel::Exponential { mean, cap } => {
                debug_assert!(mean > 0.0, "exponential delay with non-positive mean");
                // Inverse-CDF sampling; `1 - u` avoids ln(0).
                let u: f64 = rng.gen::<f64>();
                let ticks = (-mean * (1.0 - u).ln()).round() as u64;
                SimDuration::from_ticks(ticks.clamp(1, cap.max(1)))
            }
        }
    }

    /// Largest delay this model can produce, in ticks. Used by the engine
    /// to size the calendar queue's bucket ring so every delivery takes the
    /// O(1) path.
    pub fn max_ticks(&self) -> u64 {
        match *self {
            DelayModel::Constant(d) => d.ticks(),
            DelayModel::Uniform { max, .. } => max.ticks(),
            DelayModel::Exponential { cap, .. } => cap.max(1),
        }
    }

    /// Smallest delay this model promises, in ticks: the engine's
    /// lookahead. No message sent at `t` can reach its receiver before
    /// `t + min_ticks()`, so events at different nodes closer than that
    /// cannot affect each other. The exponential model promises nothing
    /// (its one-tick floor is a sampling clamp, not part of the model).
    pub fn min_ticks(&self) -> u64 {
        match *self {
            DelayModel::Constant(d) => d.ticks(),
            DelayModel::Uniform { min, .. } => min.ticks(),
            DelayModel::Exponential { .. } => 0,
        }
    }

    /// Mean delay in ticks, used by analytic cross-checks.
    pub fn mean_ticks(&self) -> f64 {
        match *self {
            DelayModel::Constant(d) => d.ticks() as f64,
            DelayModel::Uniform { min, max } => (min.ticks() + max.ticks()) as f64 / 2.0,
            DelayModel::Exponential { mean, .. } => mean,
        }
    }

    /// Whether two messages on one channel can be delivered out of order.
    pub fn can_reorder(&self) -> bool {
        match *self {
            DelayModel::Constant(_) => false,
            DelayModel::Uniform { min, max } => min != max,
            DelayModel::Exponential { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn constant_is_constant() {
        let m = DelayModel::paper_constant();
        let mut r = rng();
        for _ in 0..32 {
            assert_eq!(m.sample(&mut r).ticks(), 5);
        }
        assert!(!m.can_reorder());
        assert_eq!(m.mean_ticks(), 5.0);
        assert_eq!(m.max_ticks(), 5);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = DelayModel::Uniform {
            min: SimDuration::from_ticks(2),
            max: SimDuration::from_ticks(8),
        };
        let mut r = rng();
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2000 {
            let d = m.sample(&mut r).ticks();
            assert!((2..=8).contains(&d));
            seen_low |= d == 2;
            seen_high |= d == 8;
        }
        assert!(
            seen_low && seen_high,
            "uniform sampler never reached its bounds"
        );
        assert!(m.can_reorder());
        assert_eq!(m.mean_ticks(), 5.0);
        assert_eq!(m.max_ticks(), 8);
    }

    #[test]
    fn uniform_degenerate_is_fifo() {
        let m = DelayModel::Uniform {
            min: SimDuration::from_ticks(5),
            max: SimDuration::from_ticks(5),
        };
        assert!(!m.can_reorder());
    }

    #[test]
    fn exponential_respects_cap_and_floor() {
        let m = DelayModel::Exponential { mean: 5.0, cap: 20 };
        let mut r = rng();
        for _ in 0..2000 {
            let d = m.sample(&mut r).ticks();
            assert!((1..=20).contains(&d));
        }
        assert!(m.can_reorder());
        assert_eq!(m.max_ticks(), 20);
    }

    #[test]
    fn exponential_mean_roughly_holds() {
        let m = DelayModel::Exponential {
            mean: 5.0,
            cap: 1000,
        };
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut r).ticks()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (4.3..5.7).contains(&mean),
            "empirical mean {mean} too far from 5.0"
        );
    }

    #[test]
    fn min_ticks_is_the_smallest_sample() {
        let models = [
            DelayModel::paper_constant(),
            DelayModel::Constant(SimDuration::from_ticks(0)),
            DelayModel::paper_jittered(),
            DelayModel::Uniform {
                min: SimDuration::from_ticks(0),
                max: SimDuration::from_ticks(3),
            },
            DelayModel::Exponential { mean: 5.0, cap: 20 },
        ];
        assert_eq!(
            models.iter().map(DelayModel::min_ticks).collect::<Vec<_>>(),
            [5, 0, 1, 0, 0]
        );
        let mut r = rng();
        for m in &models {
            for _ in 0..2000 {
                assert!(m.sample(&mut r).ticks() >= m.min_ticks(), "{m:?}");
            }
            assert!(m.min_ticks() <= m.max_ticks(), "{m:?}");
        }
    }

    #[test]
    fn paper_jittered_reorders() {
        assert!(DelayModel::paper_jittered().can_reorder());
    }
}
