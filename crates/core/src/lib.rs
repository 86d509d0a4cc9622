//! # rcv-core — Relative Consensus Voting distributed mutual exclusion
//!
//! A faithful Rust implementation of the algorithm from *Cao, Zhou, Chen,
//! Wu — "An Efficient Distributed Mutual Exclusion Algorithm Based on
//! Relative Consensus Voting" (IPDPS 2004)*.
//!
//! ## The algorithm in one paragraph
//!
//! A node wanting the critical section initializes a **Request Message
//! (RM)** carrying a snapshot of its system knowledge and sends it roaming:
//! each visited node merges knowledge bidirectionally (the **Exchange**
//! procedure), registers the request as a vote in its own NSIT row, and
//! runs the **Order** procedure — Relative Consensus Voting. A request is
//! *ordered* once its lead in row votes over the best competitor strictly
//! exceeds the number of rows that have not voted (ties broken by smaller
//! node id); ordered requests join the replicated **NONL**, the agreed CS
//! entry sequence. The node that orders a request tells the requester to
//! enter (an **EM**) if it heads the sequence, or tells its predecessor who
//! comes next (an **IM**); each releasing node passes the CS to its
//! recorded successor with a single EM — so the synchronization delay is
//! one message hop. No logical topology, no token, no quorums, and no FIFO
//! assumption on channels.
//!
//! ## Faithfulness
//!
//! The paper's pseudo-code is ambiguous in places (its calibration
//! soundness band is 2/5); every interpretive choice is documented at the
//! point of implementation and indexed in README § Paper ambiguities,
//! interpretations and repairs — look for
//! `PAPER-AMBIGUITY` and `REPAIR` markers in the [`exchange()`] and
//! [`order()`] docs.
//!
//! ## Quick start
//!
//! ```
//! use rcv_core::RcvNode;
//! use rcv_simnet::{Engine, SimConfig, BurstOnce};
//!
//! // 10 nodes, all requesting at t=0, paper delays (Tn=5, Tc=10).
//! let report = Engine::new(SimConfig::paper(10, 42), BurstOnce, |id, n| {
//!     RcvNode::new(id, n)
//! })
//! .run();
//!
//! assert!(report.is_safe());                 // mutual exclusion held
//! assert_eq!(report.metrics.completed(), 10); // no deadlock, no starvation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod exchange;
mod invariants;
mod message;
mod mnl;
mod node;
mod nonl;
mod nsit;
mod order;
mod scratch;
#[allow(missing_docs)]
mod si;
mod stats;
mod tuple;

pub use config::{ForwardPolicy, RcvConfig};
pub use exchange::{exchange, ExchangeOutcome};
pub use invariants::{check_local_invariants, check_nonl_consistency, total_anomalies};
pub use message::{MsgBody, RcvMessage};
pub use mnl::{Mnl, MAX_PACKED_NODE, MAX_PACKED_TS};
pub use node::{RcvNode, ReqState};
pub use nonl::Nonl;
pub use nsit::{Nsit, NsitRow};
pub use order::{order, OrderOutcome};
pub use si::Si;
pub use stats::RcvNodeStats;
pub use tuple::ReqTuple;
