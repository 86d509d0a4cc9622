//! The three message types of the algorithm (paper §3): Request (RM),
//! Enter (EM) and Inform (IM) messages.

use rcv_simnet::{NodeId, ProtocolMessage};

use crate::nonl::Nonl;
use crate::nsit::Nsit;
use crate::tuple::ReqTuple;

/// The state snapshot every message carries: `MONL` + `MSIT` (paper
/// Figure 3). The Exchange procedure reconciles it bidirectionally with the
/// receiver's SI.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MsgBody {
    /// Message Ordered Node List.
    pub monl: Nonl,
    /// Message System Information Table.
    pub msit: Nsit,
}

impl MsgBody {
    /// Snapshot of a node's current NONL/NSIT ("initialize ... with newest
    /// MONL and MSIT copy from SI").
    pub fn snapshot(nonl: &Nonl, nsit: &Nsit) -> Self {
        MsgBody {
            monl: nonl.clone(),
            msit: nsit.clone(),
        }
    }

    /// Rough serialized size.
    pub fn wire_size(&self) -> usize {
        self.monl.wire_size() + self.msit.wire_size()
    }
}

/// A message of the RCV algorithm.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RcvMessage {
    /// Request Message: roams the network gathering votes for its home
    /// node's request.
    Rm {
        /// The request this message campaigns for (`Host` + its timestamp).
        home: ReqTuple,
        /// Unvisited nodes (`UL`); the message is only ever forwarded to a
        /// member of this list, so it visits each node at most once.
        ul: Vec<NodeId>,
        /// Carried system state.
        body: MsgBody,
    },
    /// Enter Message: tells its receiver to enter the CS now.
    Em {
        /// The request being granted; the receiver drops the message if it
        /// no longer matches its outstanding request (stale-EM guard,
        /// README § Paper ambiguities, interpretations and repairs, #7).
        for_req: ReqTuple,
        /// Carried system state.
        body: MsgBody,
    },
    /// Inform Message: tells its receiver (the predecessor) who runs next.
    Im {
        /// The receiver's request that immediately precedes `next` in the
        /// NONL. Carrying the full tuple (not just the paper's bare node
        /// id) lets the receiver detect IMs that refer to an *earlier*,
        /// already-finished request of its own.
        pred: ReqTuple,
        /// The request to hand the CS to afterwards (`Next`).
        next: ReqTuple,
        /// Carried system state.
        body: MsgBody,
    },
    /// Revival Message (**extension, not in the paper**): broadcast by a
    /// node that restarted after a crash. Carries the rebuilt SI — the
    /// write-ahead-persisted own row version plus the interrupted request
    /// tuple, re-listed so it never gains false completion evidence.
    /// Receivers run the ordinary Exchange and then re-signal their NONL
    /// head, healing an Enter Message that was dropped into the outage;
    /// duplicates are absorbed by the stale-EM guard.
    Rv {
        /// Carried system state.
        body: MsgBody,
    },
}

impl RcvMessage {
    /// The carried state snapshot.
    pub fn body(&self) -> &MsgBody {
        match self {
            RcvMessage::Rm { body, .. }
            | RcvMessage::Em { body, .. }
            | RcvMessage::Im { body, .. }
            | RcvMessage::Rv { body } => body,
        }
    }
}

impl ProtocolMessage for RcvMessage {
    fn kind(&self) -> &'static str {
        match self {
            RcvMessage::Rm { .. } => "RM",
            RcvMessage::Em { .. } => "EM",
            RcvMessage::Im { .. } => "IM",
            RcvMessage::Rv { .. } => "RV",
        }
    }

    fn wire_size(&self) -> usize {
        let fixed = 16;
        match self {
            RcvMessage::Rm { ul, body, .. } => fixed + ul.len() * 4 + body.wire_size(),
            RcvMessage::Em { body, .. } => fixed + body.wire_size(),
            RcvMessage::Im { body, .. } => fixed + 12 + body.wire_size(),
            RcvMessage::Rv { body } => fixed + body.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, ts: u64) -> ReqTuple {
        ReqTuple::new(NodeId::new(n), ts)
    }

    #[test]
    fn kinds_match_paper_names() {
        let body = MsgBody::snapshot(&Nonl::new(), &Nsit::new(2));
        let rm = RcvMessage::Rm {
            home: t(0, 1),
            ul: vec![NodeId::new(1)],
            body: body.clone(),
        };
        let em = RcvMessage::Em {
            for_req: t(0, 1),
            body: body.clone(),
        };
        let im = RcvMessage::Im {
            pred: t(0, 1),
            next: t(1, 1),
            body,
        };
        assert_eq!(rm.kind(), "RM");
        assert_eq!(em.kind(), "EM");
        assert_eq!(im.kind(), "IM");
        let rv = RcvMessage::Rv {
            body: MsgBody::snapshot(&Nonl::new(), &Nsit::new(2)),
        };
        assert_eq!(rv.kind(), "RV");
        assert!(rv.wire_size() >= 16);
    }

    #[test]
    fn snapshot_is_deep_copy() {
        let mut nonl = Nonl::new();
        nonl.append(t(0, 1));
        let nsit = Nsit::new(2);
        let body = MsgBody::snapshot(&nonl, &nsit);
        nonl.remove(&t(0, 1));
        assert!(
            body.monl.contains(&t(0, 1)),
            "message must not alias node state"
        );
    }

    #[test]
    fn wire_size_grows_with_content() {
        let empty = MsgBody::snapshot(&Nonl::new(), &Nsit::new(4));
        let mut nonl = Nonl::new();
        nonl.append(t(0, 1));
        nonl.append(t(1, 1));
        let full = MsgBody::snapshot(&nonl, &Nsit::new(4));
        assert!(full.wire_size() > empty.wire_size());
    }
}
