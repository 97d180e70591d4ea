//! # evanesco
//!
//! A full reproduction of **“Evanesco: Architectural Support for Efficient
//! Data Sanitization in Modern Flash-Based Storage Systems”** (ASPLOS 2020)
//! as a Rust workspace. This meta-crate re-exports the component crates:
//!
//! * [`nand`] — the 3D NAND substrate (cell model, noise, RBER/ECC,
//!   behavioral chip, timing);
//! * [`core`] — the paper's contribution: `pLock`/`bLock`, pAP/bAP flags,
//!   the lock-aware chip, design-space exploration, the threat model;
//! * [`ftl`] — flash translation layers (baseline, SecureSSD lock manager,
//!   erase-based and scrubbing baselines);
//! * [`ssd`] — the event-timed SSD emulator (channels × chips, metrics)
//!   and a host file-system façade with `O_INSEC` semantics;
//! * [`workloads`] — Table-2 trace generators, the replayer, and VerTrace:
//!   the data-versioning study (Table 1, Figure 4) with per-path exposure
//!   attribution, as one FTL observer.
//!
//! ## Quickstart
//!
//! ```rust
//! use evanesco::ssd::emulator::Emulator;
//! use evanesco::ssd::config::SsdConfig;
//! use evanesco::ftl::policy::SanitizePolicy;
//!
//! # fn main() {
//! let cfg = SsdConfig::tiny_for_tests();
//! let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
//! let lpa = 0;
//! ssd.write(lpa, 4, true);          // write 4 secure pages
//! ssd.trim(lpa, 4);                 // delete them -> locked immediately
//! assert!(ssd.verify_sanitized(lpa, 4));
//! # }
//! ```

pub use evanesco_core as core;
pub use evanesco_ftl as ftl;
pub use evanesco_nand as nand;
pub use evanesco_ssd as ssd;
pub use evanesco_workloads as workloads;
