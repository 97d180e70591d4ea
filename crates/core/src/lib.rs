//! # evanesco-core
//!
//! The Evanesco mechanism itself (paper §5): **lock-based data
//! sanitization** for 3D NAND flash.
//!
//! Instead of physically destroying deleted data (erase, scrubbing, one-shot
//! reprogramming — all of which cost copies or reliability), Evanesco
//! *blocks access* to it inside the flash chip:
//!
//! * [`chip::EvanescoChip`] wraps a behavioral NAND chip with per-page
//!   **pAP** flags and per-block **bAP** flags and implements the two new
//!   flash commands:
//!   - `pLock <ppn>` — disable access to one page ([`chip::EvanescoChip::p_lock`]);
//!   - `bLock <pbn>` — disable access to a whole block
//!     ([`chip::EvanescoChip::b_lock`]).
//! * A locked page or block reads back **all-zero** through every interface
//!   path; there is *no unlock command* — flags reset only when the block is
//!   physically erased, at which point the data is gone anyway.
//! * [`pap`] and [`bap`] model the flag devices: pAP flags live in `k = 9`
//!   spare SLC cells decoded by a [`majority`] circuit; bAP flags are the
//!   block's SSL select cells programmed above the read-kill voltage.
//! * [`dse`] reproduces the paper's design-space explorations (Figures 9
//!   and 12) that pick the programming voltage and latency for each command.
//! * [`threat`] implements the paper's threat model (§5.1): an attacker with
//!   raw-chip access through all interface commands, able to de-solder chips
//!   and bypass the FTL (the SSD emulator judges C1/C2 by what this
//!   attacker reads).
//!
//! ## Example: lock, then fail to read
//!
//! ```rust
//! use evanesco_core::chip::{EvanescoChip, ReadResult};
//! use evanesco_nand::prelude::*;
//!
//! # fn main() -> Result<(), evanesco_core::EvanescoError> {
//! let mut chip = EvanescoChip::new(Geometry::small_tlc());
//! let ppa = Ppa::new(0, 0);
//! chip.program(ppa, PageData::with_payload(b"private photo"))?;
//! chip.p_lock(ppa)?;
//! let out = chip.read(ppa)?;
//! assert_eq!(out.result, ReadResult::Locked); // data is all-zero
//! # Ok(())
//! # }
//! ```

pub mod bap;
pub mod calibration;
pub mod chip;
pub mod device_flags;
pub mod dse;
pub mod error;
pub mod fault;
pub mod majority;
pub mod pap;
pub mod threat;

pub use error::{EvanescoError, InvalidRetention};
