//! # rcv-workload — workloads, metrics and experiment runners
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`arrival`] — the burst and Poisson arrival processes of §6.2, plus a
//!   saturation workload for the analytic checks;
//! * [`algo`] — uniform dispatch over all six implemented algorithms;
//! * [`runner`] — one simulation → one [`runner::Outcome`], with
//!   seed-averaging;
//! * [`experiments`] — one module per paper figure (FIG4-7) and per
//!   analytic claim (AN1-5), each rendering a [`report::Table`];
//! * [`report`] — markdown/CSV/fixed-width table rendering;
//! * [`scenario`] — the declarative scenario conformance registry
//!   (workload shape × fault regime × delay model × N × seeds) behind the
//!   `matrix` binary and its CI gate;
//! * [`process`] — the multi-process cluster backend: algorithm tags,
//!   the worker re-exec entry point and [`process::ClusterBackend`];
//! * [`sweep`] — order-preserving parallel map for experiment grids.
//!
//! The `repro` binary in `rcv-bench` is a thin CLI over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod arrival;
pub mod experiments;
pub mod phased;
pub mod process;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use algo::Algo;
pub use arrival::{HotSpotWorkload, PoissonWorkload, SaturationWorkload};
pub use phased::{Phase, PhasedWorkload, TimedPhase};
pub use process::{maybe_worker, ClusterBackend, ProcessBackend, WORKER_SENTINEL};
pub use report::Table;
pub use runner::Outcome;
pub use scenario::{Cell, CellResult, ScenarioSpec, REGISTRY_VERSION};
