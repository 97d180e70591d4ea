//! # evanesco-nand
//!
//! A 3D NAND flash memory substrate used by the [Evanesco (ASPLOS 2020)]
//! reproduction. The crate provides two fidelity layers that share one set of
//! state-encoding and timing tables:
//!
//! * a **behavioral layer** ([`chip::Chip`]) — blocks, wordlines and pages
//!   with erase-before-program and in-order-program rules, page payloads and
//!   per-operation latencies. This is what the FTL and SSD emulator drive.
//! * a **cell layer** ([`vth::WordlineSim`] and friends) — per-cell threshold
//!   voltage (Vth) distributions with program/erase physics, ISPP and one-shot
//!   programming, SBPI inhibition, program disturb, retention loss, read
//!   disturb, program/erase cycling wear, the open-interval effect, and
//!   over-programming tails. This is what the chip-characterization
//!   experiments (paper Figures 2, 6, 9–12) drive.
//!
//! The cell layer is a *statistical substitute* for the paper's 160 real
//! 48-layer 3D TLC chips: every model is calibrated against the anchor points
//! the paper reports (see `DESIGN.md` at the repository root), so the shapes
//! of the reliability figures are reproduced even though absolute volts and
//! microseconds are synthetic.
//!
//! ## Quick example
//!
//! ```rust
//! use evanesco_nand::{chip::Chip, geometry::Geometry, chip::PageData};
//!
//! # fn main() -> Result<(), evanesco_nand::NandError> {
//! let geom = Geometry::small_tlc();
//! let mut chip = Chip::new(geom);
//! let ppa = evanesco_nand::geometry::Ppa::new(0, 0);
//! chip.program(ppa, PageData::tagged(0xDEAD_BEEF))?;
//! let out = chip.read(ppa)?;
//! assert_eq!(out.data().unwrap().tag(), 0xDEAD_BEEF);
//! # Ok(())
//! # }
//! ```
//!
//! [Evanesco (ASPLOS 2020)]: https://doi.org/10.1145/3373376.3378490

pub mod arena;
pub mod cell;
pub mod chip;
pub mod ecc;
pub mod error;
pub mod geometry;
pub mod math;
pub mod noise;
pub mod osr;
pub mod rber;
pub mod snapshot;
pub mod timing;
pub mod vth;

pub use error::NandError;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::cell::{CellTech, PageType, VthState};
    pub use crate::chip::{Chip, PageContent, PageData, PageOob, ReadOutput};
    pub use crate::ecc::EccModel;
    pub use crate::error::NandError;
    pub use crate::geometry::{BlockId, Geometry, PageId, Ppa, WordlineId};
    pub use crate::timing::{Nanos, TimingSpec};
}
