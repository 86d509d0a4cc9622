//! # rcv — reproduction of "An Efficient Distributed Mutual Exclusion
//! # Algorithm Based on Relative Consensus Voting" (IPDPS 2004)
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`core`] — the RCV algorithm itself ([`core::RcvNode`]);
//! * [`simnet`] — the discrete-event simulation substrate;
//! * [`baselines`] — Ricart–Agrawala, Maekawa, Suzuki–Kasami broadcast,
//!   Lamport and Raymond comparators;
//! * [`mc`] — the exhaustive model checker (every interleaving at
//!   small N);
//! * [`runtime`] — the real-thread message-passing runtime;
//! * [`workload`] — workload generators, metrics and the experiment
//!   runners that regenerate every figure of the paper.
//!
//! See `README.md` for a guided tour; its § "Experiment index" maps every
//! figure and analytic claim of the paper to the code that re-measures it.

#![forbid(unsafe_code)]

pub use rcv_baselines as baselines;
pub use rcv_core as core;
pub use rcv_mc as mc;
pub use rcv_runtime as runtime;
pub use rcv_simnet as simnet;
pub use rcv_workload as workload;
