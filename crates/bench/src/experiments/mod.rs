//! One module per group of paper artifacts. Every public function returns
//! the regenerated table/figure as printable text, so the `experiments`
//! binary prints them and integration tests assert on their shape.

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
