//! A mergeable fixed-bucket log histogram for latencies.
//!
//! `rcv_simnet::stats::Summary` sorts its samples and stops at p95; the
//! acquire latencies of a cluster come from N node threads and several
//! passes, so they need a structure that merges by addition and still
//! answers p99. Buckets are log-linear: values below [`SUB`] are exact,
//! above that each power of two is split into [`SUB`] equal buckets, so a
//! bucket is never wider than 1/128 (0.8%) of the values it holds.

const SUB_BITS: u32 = 7;
/// Sub-buckets per power of two.
pub const SUB: u64 = 1 << SUB_BITS;

/// Histogram of `u64` samples (nanoseconds or ticks).
#[derive(Clone, Default)]
pub struct Hist {
    /// Grows to the largest bucket recorded: a probe that sees no CS (or a
    /// pass of a few hundred simulated nodes) costs nothing.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
}

/// Smallest value of bucket `idx` and the bucket's width.
fn bounds(idx: usize) -> (u64, u64) {
    if (idx as u64) < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    ((SUB + (idx as u64 & (SUB - 1))) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        let idx = index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (nearest rank, like `stats::Summary`), placed
    /// inside its bucket by the rank's position among the bucket's
    /// samples: the answer is within one bucket width of an exact sort.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (lo, width) = bounds(idx);
                let frac = ((rank - before) as f64 - 0.5) / c as f64;
                return lo as f64 + frac * width as f64;
            }
            before += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.count)
    }

    /// Width of the bucket that holds `v` (the quantile error bound there).
    pub fn bucket_width(v: u64) -> u64 {
        bounds(index(v)).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*: the test's own generator, no dependency on `rand`.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1000, 123_456_789, u64::MAX] {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, {lo}+{width})");
            assert!(width == 1 || width as f64 <= lo as f64 / SUB as f64 + 1.0);
        }
        // Adjacent buckets meet: the last value of one precedes the next.
        for idx in 0..index(u64::MAX) {
            let (lo, width) = bounds(idx);
            assert_eq!(index(lo + width - 1), idx);
            assert_eq!(index(lo + width), idx + 1);
        }
    }

    #[test]
    fn quantiles_match_an_exact_sort_within_one_bucket() {
        // Latency-shaped synthetic data: a log-uniform body from 50 µs to
        // 5 ms plus a 2% tail up to 80 ms, split over 8 "nodes" that are
        // merged, as the real-tier workloads do.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut all = Vec::new();
        let mut merged = Hist::new();
        for _node in 0..8 {
            let mut h = Hist::new();
            for _ in 0..5_000 {
                let u = (next(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                let tail = next(&mut rng).is_multiple_of(50);
                let ns = if tail {
                    5e6 * (16.0f64).powf(u)
                } else {
                    5e4 * (100.0f64).powf(u)
                } as u64;
                h.record(ns);
                all.push(ns);
            }
            merged.merge(&h);
        }
        all.sort_unstable();
        assert_eq!(merged.count(), all.len() as u64);
        let exact_mean = all.iter().map(|&v| v as f64).sum::<f64>() / all.len() as f64;
        assert!((merged.mean() - exact_mean).abs() < 1e-6 * exact_mean);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1];
            let got = merged.quantile(q);
            let width = Hist::bucket_width(exact) as f64;
            assert!(
                (got - exact as f64).abs() <= width,
                "q={q}: histogram {got} vs exact {exact}, bucket width {width}"
            );
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }
}
