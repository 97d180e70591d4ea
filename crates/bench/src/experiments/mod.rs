//! One module per group of paper artifacts. A paper table/figure is a
//! function returning printable text; a gate-bearing bench answers `run`,
//! `render`, `violations` and `to_json`. `crate::EXPERIMENTS` lists both.

pub mod ablation;
pub mod anatomy;
pub mod background;
pub mod breakdown;
pub mod campaign;
pub mod chaos;
pub mod dse;
pub mod fleet;
pub mod latency;
pub mod reliability;
pub mod report;
pub mod scheduler;
pub mod security;
pub mod system;
pub mod tracing;
pub mod versioning;
