//! Grid quorum construction for Maekawa's algorithm.
//!
//! Maekawa's original paper builds √N-sized quorums from finite projective
//! planes, which only exist for `N = k² + k + 1` with prime-power `k`. The
//! standard any-N surrogate — the substitution recorded in README § Paper
//! ambiguities, interpretations and repairs —
//! is the **grid**: arrange the nodes in a ⌈√N⌉-wide lattice; node `i`'s
//! quorum is its whole row plus its whole column (including itself).
//!
//! Pairwise intersection holds even for a ragged last row: for nodes
//! `i=(rᵢ,cᵢ)` and `j=(rⱼ,cⱼ)`, one of the crossing cells `(rᵢ,cⱼ)` /
//! `(rⱼ,cᵢ)` always exists — a crossing cell can only be missing in the
//! last row, and if both crossings are missing both nodes *are* in the last
//! row and share it entirely. `quorums_intersect` verifies this property in
//! the test suite for every N up to 200.

use rcv_simnet::NodeId;

/// The quorum system: one node set per node.
#[derive(Clone, Debug)]
pub struct QuorumSystem {
    quorums: Vec<Vec<NodeId>>,
}

impl QuorumSystem {
    /// Builds grid quorums for an `n`-node system.
    pub fn grid(n: usize) -> Self {
        assert!(n >= 1);
        let k = (n as f64).sqrt().ceil() as usize; // grid width
        let mut quorums = Vec::with_capacity(n);
        for i in 0..n {
            let (r, c) = (i / k, i % k);
            let mut q: Vec<usize> = Vec::new();
            // Whole row r:
            for cc in 0..k {
                let cell = r * k + cc;
                if cell < n {
                    q.push(cell);
                }
            }
            // Whole column c:
            for rr in 0..n.div_ceil(k) {
                let cell = rr * k + c;
                if cell < n && !q.contains(&cell) {
                    q.push(cell);
                }
            }
            q.sort_unstable();
            quorums.push(q.into_iter().map(|x| NodeId::new(x as u32)).collect());
        }
        QuorumSystem { quorums }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.quorums.len()
    }

    /// The quorum of `node` (always contains `node` itself).
    pub fn quorum(&self, node: NodeId) -> &[NodeId] {
        &self.quorums[node.index()]
    }

    /// Average quorum size (for the analytic cross-checks: ~2√N − 1).
    pub fn mean_size(&self) -> f64 {
        let total: usize = self.quorums.iter().map(|q| q.len()).sum();
        total as f64 / self.quorums.len() as f64
    }

    /// Verifies the defining property: every two quorums intersect.
    pub fn quorums_intersect(&self) -> bool {
        for (i, a) in self.quorums.iter().enumerate() {
            for b in &self.quorums[i + 1..] {
                if !a.iter().any(|x| b.contains(x)) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether every node is a member of its own quorum (required by the
    /// protocol's self-arbitration).
    pub fn self_membership(&self) -> bool {
        self.quorums
            .iter()
            .enumerate()
            .all(|(i, q)| q.contains(&NodeId::new(i as u32)))
    }

    /// Maekawa's original construction — the paper's "first method
    /// mentioned in \[9\]": quorums are the lines of a **finite projective
    /// plane** of order `q`, size `q + 1 ≈ √N`, any two meeting in exactly
    /// one point. Only exists when `n = q² + q + 1` for a prime `q` (we
    /// restrict to prime orders; prime powers would need extension-field
    /// arithmetic for no experimental benefit). Returns `None` for other N.
    ///
    /// Each node must belong to its own quorum; a point does not lie on
    /// its same-coordinates line in general, so a perfect matching between
    /// points and the lines through them is computed (the incidence graph
    /// is `(q+1)`-regular bipartite, so one always exists by Hall's
    /// theorem).
    pub fn projective_plane(n: usize) -> Option<Self> {
        let q = (1..=64usize).find(|q| q * q + q + 1 == n)?;
        if !is_prime(q) {
            return None;
        }
        let points = enumerate_projective(q);
        debug_assert_eq!(points.len(), n);
        // Lines have the same normalized coordinate representatives.
        let lines = &points;

        // incidence[l] = point indices on line l.
        let on_line = |l: &[usize; 3], p: &[usize; 3]| -> bool {
            (l[0] * p[0] + l[1] * p[1] + l[2] * p[2]).is_multiple_of(q)
        };
        let mut incidence: Vec<Vec<usize>> = Vec::with_capacity(n);
        for l in lines {
            let members: Vec<usize> = (0..n).filter(|&pi| on_line(l, &points[pi])).collect();
            debug_assert_eq!(members.len(), q + 1, "a line of PG(2,{q}) has q+1 points");
            incidence.push(members);
        }

        // Match point i to a distinct line through i (Kuhn's algorithm on
        // the point→line incidence).
        let lines_through: Vec<Vec<usize>> = (0..n)
            .map(|pi| (0..n).filter(|&li| incidence[li].contains(&pi)).collect())
            .collect();
        let mut line_owner: Vec<Option<usize>> = vec![None; n];
        fn try_assign(
            point: usize,
            lines_through: &[Vec<usize>],
            line_owner: &mut [Option<usize>],
            visited: &mut [bool],
        ) -> bool {
            for &li in &lines_through[point] {
                if visited[li] {
                    continue;
                }
                visited[li] = true;
                if line_owner[li].is_none()
                    || try_assign(line_owner[li].unwrap(), lines_through, line_owner, visited)
                {
                    line_owner[li] = Some(point);
                    return true;
                }
            }
            false
        }
        for point in 0..n {
            let mut visited = vec![false; n];
            if !try_assign(point, &lines_through, &mut line_owner, &mut visited) {
                return None; // cannot happen for a regular bipartite graph
            }
        }
        let mut quorums: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (li, owner) in line_owner.iter().enumerate() {
            let point = owner.expect("perfect matching");
            let mut members: Vec<NodeId> = incidence[li]
                .iter()
                .map(|&m| NodeId::new(m as u32))
                .collect();
            members.sort_unstable();
            quorums[point] = members;
        }
        Some(QuorumSystem { quorums })
    }

    /// The best available construction: projective plane when N permits,
    /// grid otherwise.
    pub fn best(n: usize) -> Self {
        Self::projective_plane(n).unwrap_or_else(|| Self::grid(n))
    }

    /// Agrawal–El Abbadi **tree quorums** (TOCS 1991, the paper's
    /// reference \[1\]): arrange the nodes in a complete binary tree; node
    /// `i`'s quorum is the root-to-`i` path *plus* the path extended from
    /// `i` down to a leaf (leftmost). Any two root-anchored paths share at
    /// least the root, giving intersection with quorum size `O(log N)` —
    /// but, as the paper's §2 points out, the root sits in *every* quorum,
    /// so the scheme degenerates towards a centralized algorithm when the
    /// root is always available. Kept as a comparison point for exactly
    /// that discussion.
    pub fn tree(n: usize) -> Self {
        assert!(n >= 1);
        let parent = |i: usize| (i - 1) / 2;
        let mut quorums = Vec::with_capacity(n);
        for i in 0..n {
            let mut q = vec![i];
            // Upwards to the root.
            let mut cur = i;
            while cur != 0 {
                cur = parent(cur);
                q.push(cur);
            }
            // Downwards to a leaf (leftmost existing child each step).
            let mut cur = i;
            loop {
                let left = 2 * cur + 1;
                let right = 2 * cur + 2;
                if left < n {
                    cur = left;
                } else if right < n {
                    cur = right;
                } else {
                    break;
                }
                q.push(cur);
            }
            q.sort_unstable();
            q.dedup();
            quorums.push(q.into_iter().map(|x| NodeId::new(x as u32)).collect());
        }
        QuorumSystem { quorums }
    }
}

fn is_prime(x: usize) -> bool {
    if x < 2 {
        return false;
    }
    (2..=x.isqrt()).all(|d| !x.is_multiple_of(d))
}

/// Normalized homogeneous coordinates of the projective plane PG(2, q):
/// `(1, y, z)`, `(0, 1, z)`, `(0, 0, 1)` — exactly `q² + q + 1` of them.
fn enumerate_projective(q: usize) -> Vec<[usize; 3]> {
    let mut pts = Vec::with_capacity(q * q + q + 1);
    for y in 0..q {
        for z in 0..q {
            pts.push([1, y, z]);
        }
    }
    for z in 0..q {
        pts.push([0, 1, z]);
    }
    pts.push([0, 0, 1]);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_quorum_contains_self() {
        for n in 1..=60 {
            let qs = QuorumSystem::grid(n);
            for node in NodeId::all(n) {
                assert!(qs.quorum(node).contains(&node), "N={n}, node={node}");
            }
        }
    }

    #[test]
    fn pairwise_intersection_holds_up_to_200() {
        for n in 1..=200 {
            let qs = QuorumSystem::grid(n);
            assert!(
                qs.quorums_intersect(),
                "grid quorums fail to intersect at N={n}"
            );
        }
    }

    #[test]
    fn quorum_size_scales_as_2_sqrt_n() {
        for n in [16, 25, 49, 100] {
            let qs = QuorumSystem::grid(n);
            let k = (n as f64).sqrt();
            let expect = 2.0 * k - 1.0;
            let mean = qs.mean_size();
            assert!(
                (mean - expect).abs() < 1.0,
                "N={n}: mean quorum size {mean}, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn perfect_square_exact_sizes() {
        let qs = QuorumSystem::grid(9);
        for node in NodeId::all(9) {
            assert_eq!(qs.quorum(node).len(), 5, "3+3-1 for a 3x3 grid");
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(
            QuorumSystem::grid(1).quorum(NodeId::new(0)),
            &[NodeId::new(0)]
        );
        let q2 = QuorumSystem::grid(2);
        assert!(q2.quorums_intersect());
    }

    #[test]
    fn projective_plane_exists_for_prime_orders() {
        // q = 2, 3, 5, 7 → N = 7, 13, 31, 57.
        for (q, n) in [(2usize, 7usize), (3, 13), (5, 31), (7, 57)] {
            let qs =
                QuorumSystem::projective_plane(n).unwrap_or_else(|| panic!("no FPP for N={n}"));
            assert_eq!(qs.n(), n);
            for node in NodeId::all(n) {
                assert_eq!(qs.quorum(node).len(), q + 1, "line size at N={n}");
                assert!(qs.quorum(node).contains(&node), "self-membership at N={n}");
            }
            assert!(qs.quorums_intersect(), "N={n}");
            assert!(qs.self_membership());
            // Distinct nodes must hold distinct lines (else two quorums
            // could coincide and starve the tie-break).
            for a in NodeId::all(n) {
                for b in NodeId::all(n).filter(|&b| b > a) {
                    assert_ne!(qs.quorum(a), qs.quorum(b), "shared line at N={n}");
                }
            }
        }
    }

    #[test]
    fn tree_quorums_intersect_and_scale_logarithmically() {
        for n in [1usize, 2, 3, 7, 15, 31, 40, 63, 100] {
            let qs = QuorumSystem::tree(n);
            assert!(qs.quorums_intersect(), "N={n}");
            assert!(qs.self_membership(), "N={n}");
            // Path up + path down ≤ 2·depth + 1.
            let depth = (n as f64).log2().ceil() as usize + 1;
            for node in NodeId::all(n) {
                assert!(
                    qs.quorum(node).len() <= 2 * depth + 1,
                    "N={n} node={node}: quorum {:?} too large",
                    qs.quorum(node)
                );
            }
        }
    }

    #[test]
    fn tree_quorums_all_contain_the_root() {
        // The §2 critique made concrete: the root is a universal member.
        let qs = QuorumSystem::tree(31);
        for node in NodeId::all(31) {
            assert!(qs.quorum(node).contains(&NodeId::new(0)));
        }
    }

    #[test]
    fn tree_quorum_protocol_run_is_clean() {
        use crate::maekawa::Maekawa;
        use rcv_simnet::{BurstOnce, Engine, SimConfig};
        let r = Engine::new(SimConfig::paper(15, 3), BurstOnce, |id, _n| {
            Maekawa::with_quorums(id, QuorumSystem::tree(15))
        })
        .run();
        assert!(r.is_safe());
        assert_eq!(r.metrics.completed(), 15);
    }

    #[test]
    fn projective_plane_rejects_other_sizes() {
        for n in [6, 8, 12, 20, 30, 50] {
            assert!(QuorumSystem::projective_plane(n).is_none(), "N={n}");
        }
        // q = 4 (non-prime): N = 21 must be rejected by the prime check.
        assert!(QuorumSystem::projective_plane(21).is_none());
    }

    #[test]
    fn fpp_quorums_are_half_the_grid_size() {
        let fpp = QuorumSystem::projective_plane(31).unwrap();
        let grid = QuorumSystem::grid(31);
        assert!(fpp.mean_size() < 0.65 * grid.mean_size());
    }

    #[test]
    fn best_picks_fpp_when_available() {
        assert_eq!(QuorumSystem::best(13).quorum(NodeId::new(0)).len(), 4);
        // 30 has no plane: falls back to grid.
        assert!(QuorumSystem::best(30).quorums_intersect());
    }

    #[test]
    fn quorums_are_sorted_and_unique() {
        for n in [7, 12, 30] {
            let qs = QuorumSystem::grid(n);
            for node in NodeId::all(n) {
                let q = qs.quorum(node);
                let mut sorted = q.to_vec();
                sorted.sort();
                sorted.dedup();
                assert_eq!(q, &sorted[..], "N={n} node={node}");
            }
        }
    }
}
