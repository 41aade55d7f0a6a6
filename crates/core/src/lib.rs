//! **VW-SDK** — variable-window shift-and-duplicate-kernel mapping for
//! processing-in-memory (PIM) crossbars.
//!
//! This crate is the public face of a full reproduction of *"VW-SDK:
//! Efficient Convolutional Weight Mapping Using Variable Windows for
//! Processing-In-Memory Architectures"* (Rhe, Moon, Ko — DATE 2022). It
//! re-exports the substrate crates and offers a high-level [`Planner`]
//! that compares mapping algorithms layer-by-layer and network-wide,
//! plus the [`PlanningEngine`] — a parallel, shape-memoizing batch
//! planner for zoo-wide and design-space sweeps:
//!
//! * [`pim_nets`] — CNN layer shapes and the paper's model zoo;
//! * [`pim_arch`] — crossbar geometry, energy and utilization models;
//! * [`pim_cost`] — the paper's cycle equations (1)–(8) and Algorithm 1;
//! * [`pim_mapping`] — planners and cell-level layouts;
//! * [`pim_chip`] — many-array chips: allocation, pipelining and the
//!   mixed-algorithm deployment optimizer behind
//!   [`PlanningEngine::deploy_network_with`];
//! * [`pim_sim`] — a functional simulator proving the mappings correct;
//! * [`pim_report`] — text tables and charts for the experiment binaries.
//!
//! # Quickstart
//!
//! ```
//! use vw_sdk::{Planner, pim_arch::PimArray, pim_nets::zoo};
//!
//! let planner = Planner::new(PimArray::new(512, 512)?);
//! let report = planner.plan_network(&zoo::resnet18_table1())?;
//!
//! // Table I totals: 20041 (im2col), 7240 (SDK), 4294 (VW-SDK).
//! use vw_sdk::pim_mapping::MappingAlgorithm;
//! assert_eq!(report.total_cycles(MappingAlgorithm::VwSdk), Some(4294));
//! let speedup = report.speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col).unwrap();
//! assert!((speedup - 4.67).abs() < 0.01);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod planner;
pub mod render;

pub use engine::{EngineStats, PlanningEngine};
pub use planner::{LayerComparison, NetworkReport, Planner};

pub use pim_arch;
pub use pim_chip;
pub use pim_cost;
pub use pim_mapping;
pub use pim_nets;
pub use pim_report;
pub use pim_sim;
pub use pim_tensor;

use std::error::Error;
use std::fmt;

/// Top-level error type aggregating failures from the substrate crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VwSdkError {
    message: String,
}

impl VwSdkError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for VwSdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vw-sdk: {}", self.message)
    }
}

impl Error for VwSdkError {}

impl From<pim_mapping::MappingError> for VwSdkError {
    fn from(err: pim_mapping::MappingError) -> Self {
        Self::new(err.to_string())
    }
}

impl From<pim_sim::SimError> for VwSdkError {
    fn from(err: pim_sim::SimError) -> Self {
        Self::new(err.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VwSdkError>;
