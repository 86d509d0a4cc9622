//! The experiment index: one module per figure/analysis group of the
//! paper, each producing [`crate::report::Table`]s in the same layout as
//! the original plots. See README § Experiment index for the full mapping.

pub mod analysis;
pub mod bandwidth;
pub mod fairness;
pub mod fig4_5;
pub mod fig6_7;
pub mod forwarding;
