//! # evanesco-ssd
//!
//! The event-timed SSD emulator of the Evanesco (ASPLOS 2020) reproduction —
//! the stand-in for the paper's FlashBench-based SecureSSD prototype.
//!
//! * [`config::SsdConfig`] — channel topology + FTL configuration (the
//!   paper's 2 channels × 4 TLC chips by default);
//! * [`device::TimedExecutor`] — applies FTL operations to the Evanesco
//!   chips while accounting latency on per-chip and per-channel busy
//!   timelines;
//! * [`emulator::Emulator`] — the host-facing facade: writes with security
//!   requirements, reads, trims, attacker verification, and run metrics;
//! * [`sched::Scheduler`] — out-of-order multi-queue (NCQ) request
//!   scheduling with bounded queue depth and per-LPA ordering;
//! * [`metrics::RunResult`] — IOPS / WAF / erase / lock-mix / recovery
//!   summary;
//! * [`faultplan::FaultPlan`] — deterministic power-cut schedules for
//!   crash-recovery testing.
//!
//! ```rust
//! use evanesco_ssd::config::SsdConfig;
//! use evanesco_ssd::emulator::Emulator;
//! use evanesco_ftl::SanitizePolicy;
//!
//! # fn main() {
//! let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
//! ssd.write(0, 4, true);            // four secure pages
//! ssd.trim(0, 4);                   // delete them
//! assert!(ssd.verify_sanitized(0, 4));
//! println!("{:?}", ssd.result());
//! # }
//! ```

pub mod anatomy;
mod arena;
pub mod checkpoint;
pub mod config;
pub mod device;
pub mod emulator;
pub mod faultplan;
pub mod gauges;
pub mod hostfs;
pub mod jsonlite;
pub mod metrics;
pub mod prom;
pub mod sched;
pub mod timeline;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use anatomy::{AnatomyRecorder, RequestAnatomy, Stage};
pub use checkpoint::{
    read_checkpoint, read_checkpoint_salvaging, write_checkpoint, CheckpointError, SalvageReport,
};
pub use config::SsdConfig;
pub use emulator::Emulator;
pub use faultplan::FaultPlan;
pub use gauges::{ExposureTable, GaugeSnapshot, LiveGauges, VersionCounts};
pub use metrics::{LatencyBreakdown, RecoveryTotals, RunResult};
pub use sched::{check_lpa_range, HostOp, OpResult, SchedRun, Scheduler, SubmitError};
pub use timeseries::{TimeSeries, UtilWindow, WindowSample};
pub use trace::{validate_chrome_trace, RequestTrace, SpanKind, TraceRecorder};
pub use watchdog::{DeadlineConfig, Watchdog, WatchdogStats};
