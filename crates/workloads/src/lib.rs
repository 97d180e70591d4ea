//! # evanesco-workloads
//!
//! Benchmark workloads for the Evanesco (ASPLOS 2020) reproduction:
//!
//! * [`spec::WorkloadSpec`] — the paper's Table-2 workloads (MailServer,
//!   DBServer, FileServer, Mobile) as seeded synthetic generators;
//! * [`fs::FileModel`] + [`generate::generate`] — file-level trace
//!   generation (create/append/overwrite/delete, prefill to 75 %
//!   utilization, interleaved reads at the Table-2 ratios);
//! * [`vertrace::VerTrace`] — the §3 data-versioning study, an FTL
//!   observer riding the replay: per-file `N_valid`/`N_invalid` tracking,
//!   VAF and T_insecure metrics, UV/MV classification (Table 1, Figure 4),
//!   plus retirement-path attribution (host update / trim / GC copy) and
//!   exposure-window histograms;
//! * [`replay`] — drives a trace through the `evanesco-ssd` emulator with
//!   measured-phase isolation;
//! * [`tenants`] — open-loop multi-tenant fleet traffic (Zipf-distributed
//!   tenant popularity, diurnal arrival process) consumed by
//!   `evanesco-fleet`.
//!
//! ```rust
//! use evanesco_workloads::generate::generate;
//! use evanesco_workloads::replay::replay;
//! use evanesco_workloads::spec::WorkloadSpec;
//! use evanesco_ssd::{Emulator, SsdConfig};
//! use evanesco_ftl::SanitizePolicy;
//!
//! # fn main() {
//! let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
//! let trace = generate(&WorkloadSpec::mail_server(), ssd.logical_pages(), 200, 42);
//! let result = replay(&mut ssd, &trace);
//! assert!(result.iops > 0.0);
//! # }
//! ```

pub mod fs;
pub mod generate;
pub mod replay;
pub mod spec;
pub mod tenants;
pub mod trace;
pub mod vertrace;

pub use spec::WorkloadSpec;
pub use tenants::{generate_device, generate_fleet, TenantOp, TenantProfile, TrafficConfig};
pub use trace::{FileId, Trace, TraceOp};
pub use vertrace::{CauseCounts, ClassStats, ExposureHistogram, VerTrace, VerTraceReport};
