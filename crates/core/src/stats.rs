//! Per-node protocol counters, exposed for white-box tests and ablations.

/// Counters a single RCV node accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RcvNodeStats {
    /// Requests this node initiated.
    pub requests: u64,
    /// CS entries performed.
    pub cs_entries: u64,
    /// RMs received (own-home RMs never come back, so these are others').
    pub rms_received: u64,
    /// RMs forwarded onwards (home's initial send not included).
    pub rms_forwarded: u64,
    /// EMs sent (either as orderer or as releasing predecessor).
    pub ems_sent: u64,
    /// IMs sent.
    pub ims_sent: u64,
    /// EMs received that no longer matched an outstanding request and were
    /// dropped (README § Paper ambiguities, interpretations and repairs,
    /// #7). Expected to stay 0; asserted by tests.
    pub stale_ems: u64,
    /// RMs received for requests already known completed and dropped.
    /// Expected to stay 0 under reliable delivery; asserted by tests.
    pub zombie_rms: u64,
    /// IMs that arrived after the predecessor had already released; the
    /// node answered with an immediate EM (paper lines 26-29).
    pub late_ims: u64,
    /// IMs applied normally (Next field set).
    pub ims_applied: u64,
    /// Times an RM exhausted its unvisited list without ordering. Lemma 3
    /// proves this cannot happen; it is counted rather than assumed.
    pub ul_exhausted: u64,
    /// Requests ordered by this node's Order invocations (any home).
    pub orderings: u64,
    /// Lemma 6 violations observed during Exchange. Expected 0.
    pub lemma6_violations: u64,
    /// RMs re-issued by the retransmission extension.
    pub retransmissions: u64,
    /// Times this node restarted after a crash and rebuilt its SI.
    pub restarts: u64,
    /// Revival Messages received from restarted peers.
    pub rvs_received: u64,
    /// Messages dropped unread because they were not meant for this node:
    /// an MSIT sized for a system of another `N`, an IM naming another node
    /// as predecessor, an RM of this node's own request. Reachable only
    /// from decoded input; expected 0.
    pub misdelivered: u64,
}

impl RcvNodeStats {
    /// Sum of the "should never happen" counters; tests assert it is zero.
    pub fn anomalies(&self) -> u64 {
        self.anomalies_under(false)
    }

    /// [`Self::anomalies`] for a run whose fault plan is `restartable`
    /// (some node crashes and restarts). UL exhaustion then stops being an
    /// anomaly: the restarted node's rebuilt NSIT row has forgotten the
    /// votes peers registered at it, so an in-flight RM can legitimately
    /// run out of unvisited nodes without ordering (Lemma 3 assumes no vote
    /// loss); the retransmission extension re-campaigns and liveness
    /// recovers. Lemma 6 violations and misdelivered messages are
    /// anomalous in every regime.
    pub fn anomalies_under(&self, restartable: bool) -> u64 {
        self.lemma6_violations + self.misdelivered + if restartable { 0 } else { self.ul_exhausted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomalies_aggregates_error_counters() {
        let mut s = RcvNodeStats::default();
        assert_eq!(s.anomalies(), 0);
        s.ul_exhausted = 1;
        s.lemma6_violations = 2;
        assert_eq!(s.anomalies(), 3);
        assert_eq!(s.anomalies_under(true), 2, "only Lemma 6 counts");
    }
}
