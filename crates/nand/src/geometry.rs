//! Chip geometry and physical addressing.
//!
//! A NAND chip is organized as blocks × wordlines × pages (paper §2.1):
//! a wordline (WL) stores as many pages as bits per cell (LSB/CSB/MSB for
//! TLC), a block is the erase unit, and a page is the read/program unit.
//!
//! Page index `p` inside a block maps to wordline `p / bits_per_cell` and
//! page type `p % bits_per_cell`. Real chips interleave LSB/CSB/MSB program
//! order across neighboring wordlines to reduce interference; that ordering
//! does not affect any result reproduced here, so the simple mapping is used
//! and documented.

use crate::cell::{CellTech, PageType};
use crate::error::NandError;
use crate::snapshot::{Dec, Enc, SnapshotError};
use std::fmt;
use std::ops::Range;

/// Block index within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PB#{:#06x}", self.0)
    }
}

/// Page index within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Wordline index within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordlineId(pub u32);

impl fmt::Display for WordlineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WL{}", self.0)
    }
}

/// Physical page address within a single chip: `(block, page)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppa {
    /// Block within the chip.
    pub block: BlockId,
    /// Page within the block.
    pub page: PageId,
}

impl Ppa {
    /// Creates a physical page address from raw indices.
    pub fn new(block: u32, page: u32) -> Self {
        Ppa { block: BlockId(block), page: PageId(page) }
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.page)
    }
}

/// Static geometry of one NAND chip.
///
/// The paper's SecureSSD configuration (§7) uses 3D TLC chips with 428
/// blocks/chip and 576 × 16-KiB pages per block (192 wordlines); that is
/// [`Geometry::paper_tlc`]. Scaled-down variants keep the block shape but
/// reduce the block count so simulations stay tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Cell technology (bits per cell).
    pub tech: CellTech,
    /// Number of blocks in the chip.
    pub blocks: u32,
    /// Number of wordlines per block.
    pub wordlines_per_block: u32,
    /// Main-data page size in bytes (16 KiB in the paper).
    pub page_bytes: u32,
    /// Spare (OOB) area bytes per page (up to 1 KiB per 16-KiB page).
    pub spare_bytes: u32,
}

impl Geometry {
    /// Paper configuration: 3D TLC, 428 blocks, 192 WLs (576 pages) per
    /// block, 16-KiB pages with 1-KiB spare area.
    pub fn paper_tlc() -> Self {
        Geometry {
            tech: CellTech::Tlc,
            blocks: 428,
            wordlines_per_block: 192,
            page_bytes: 16 * 1024,
            spare_bytes: 1024,
        }
    }

    /// A scaled-down TLC geometry for fast tests: 64 blocks of 24 WLs
    /// (72 pages).
    pub fn small_tlc() -> Self {
        Geometry {
            tech: CellTech::Tlc,
            blocks: 64,
            wordlines_per_block: 24,
            page_bytes: 16 * 1024,
            spare_bytes: 1024,
        }
    }

    /// Paper block shape with a custom number of blocks (capacity scaling
    /// knob used by the system-level experiments).
    pub fn paper_tlc_with_blocks(blocks: u32) -> Self {
        Geometry { blocks, ..Self::paper_tlc() }
    }

    /// Pages per block (`wordlines × bits-per-cell`), saturating: a
    /// wordline count no `u32` page index can address is refused by the
    /// configuration check, not by an overflow.
    pub fn pages_per_block(&self) -> u32 {
        self.wordlines_per_block.saturating_mul(self.tech.bits_per_cell() as u32)
    }

    /// Total pages in the chip.
    pub fn pages_per_chip(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block() as u64
    }

    /// Wordline and page type for a page index inside a block.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range for this geometry.
    pub fn page_to_wordline(&self, page: PageId) -> (WordlineId, PageType) {
        assert!(page.0 < self.pages_per_block(), "page {page} out of range");
        let bits = self.tech.bits_per_cell() as u32;
        let wl = WordlineId(page.0 / bits);
        let ty = PageType::from_index((page.0 % bits) as u8, self.tech);
        (wl, ty)
    }

    /// Inverse of [`Geometry::page_to_wordline`].
    pub fn wordline_to_page(&self, wl: WordlineId, ty: PageType) -> PageId {
        let bits = self.tech.bits_per_cell() as u32;
        PageId(wl.0 * bits + ty.index_in(self.tech) as u32)
    }

    /// All page indices that share a wordline with `page` (including
    /// itself), in page order.
    pub fn wordline_siblings(&self, page: PageId) -> impl Iterator<Item = PageId> + Clone {
        let (wl, _) = self.page_to_wordline(page);
        let bits = self.tech.bits_per_cell() as u32;
        (wl.0 * bits..(wl.0 + 1) * bits).map(PageId)
    }

    /// Whether a physical page address is valid for this geometry.
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.block.0 < self.blocks && ppa.page.0 < self.pages_per_block()
    }

    /// The flat per-page table addressing of this geometry, with
    /// `pages_per_block` computed once.
    pub fn layout(&self) -> PageLayout {
        PageLayout { blocks: self.blocks, pages_per_block: self.pages_per_block() }
    }

    /// Serializes the geometry into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut Enc) {
        e.u8(match self.tech {
            CellTech::Slc => 1,
            CellTech::Mlc => 2,
            CellTech::Tlc => 3,
            CellTech::Qlc => 4,
        });
        e.u32(self.blocks);
        e.u32(self.wordlines_per_block);
        e.u32(self.page_bytes);
        e.u32(self.spare_bytes);
    }

    /// Inverse of [`Geometry::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or an unknown cell-technology discriminant.
    pub fn decode_snapshot(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let tech = match d.u8()? {
            1 => CellTech::Slc,
            2 => CellTech::Mlc,
            3 => CellTech::Tlc,
            4 => CellTech::Qlc,
            b => return Err(SnapshotError::Corrupt(format!("unknown cell tech {b:#04x}"))),
        };
        Ok(Geometry {
            tech,
            blocks: d.u32()?,
            wordlines_per_block: d.u32()?,
            page_bytes: d.u32()?,
            spare_bytes: d.u32()?,
        })
    }
}

/// Checked flat addressing of a chip's per-page and per-block tables.
///
/// Every dense table of a chip (page records, slot states, pAP flags) is
/// one `Vec` indexed `block * pages_per_block + page`. In a flat table an
/// unchecked `page == pages_per_block` would silently land on the next
/// block's first cell, so this is the only place that product is formed:
/// both coordinates are range-checked first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    blocks: u32,
    pages_per_block: u32,
}

impl PageLayout {
    /// Pages per block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Blocks in the chip.
    pub fn blocks(&self) -> usize {
        self.blocks as usize
    }

    /// Pages in the chip (the length of a per-page table).
    pub fn pages(&self) -> usize {
        self.blocks as usize * self.pages_per_block as usize
    }

    /// Flat table index of `ppa`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] when either coordinate is out of
    /// range.
    #[inline]
    pub fn page(&self, ppa: Ppa) -> Result<usize, NandError> {
        if ppa.block.0 < self.blocks && ppa.page.0 < self.pages_per_block {
            Ok(ppa.block.0 as usize * self.pages_per_block as usize + ppa.page.0 as usize)
        } else {
            Err(NandError::BadAddress { ppa })
        }
    }

    /// Per-block table index of `block`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] for an out-of-range block.
    #[inline]
    pub fn block(&self, block: BlockId) -> Result<usize, NandError> {
        if block.0 < self.blocks {
            Ok(block.0 as usize)
        } else {
            Err(NandError::BadBlock { block })
        }
    }

    /// Flat index range of the pages of `block`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] for an out-of-range block.
    #[inline]
    pub fn block_pages(&self, block: BlockId) -> Result<Range<usize>, NandError> {
        let ppb = self.pages_per_block as usize;
        self.block(block).map(|b| b * ppb..(b + 1) * ppb)
    }

    /// [`PageLayout::page`] for infallible metadata accessors.
    ///
    /// # Panics
    ///
    /// Panics, naming the address, if `ppa` is out of range.
    #[inline]
    pub fn expect_page(&self, ppa: Ppa) -> usize {
        self.page(ppa).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PageLayout::block`] for infallible metadata accessors.
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if `block` is out of range.
    #[inline]
    pub fn expect_block(&self, block: BlockId) -> usize {
        self.block(block).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_indices_are_checked_and_do_not_alias() {
        let g = Geometry::small_tlc();
        let l = g.layout();
        let ppb = g.pages_per_block();
        assert_eq!(l.pages(), g.pages_per_chip() as usize);
        assert_eq!(l.page(Ppa::new(0, 0)), Ok(0));
        assert_eq!(l.page(Ppa::new(1, 0)), Ok(ppb as usize));
        assert_eq!(l.page(Ppa::new(63, ppb - 1)), Ok(l.pages() - 1));
        // The cell after block 0's last page is block 1 page 0, not
        // "block 0 page ppb".
        let past = Ppa::new(0, ppb);
        assert_eq!(l.page(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(l.page(Ppa::new(64, 0)), Err(NandError::BadAddress { ppa: Ppa::new(64, 0) }));
        assert_eq!(l.block(BlockId(64)), Err(NandError::BadBlock { block: BlockId(64) }));
        assert_eq!(l.block_pages(BlockId(1)), Ok(ppb as usize..2 * ppb as usize));
        assert!(l.block_pages(BlockId(64)).is_err());
    }

    #[test]
    #[should_panic(expected = "address out of range: PB#0x0000:pg72")]
    fn expect_page_names_the_address() {
        Geometry::small_tlc().layout().expect_page(Ppa::new(0, 72));
    }

    #[test]
    fn paper_geometry_matches_section_7() {
        let g = Geometry::paper_tlc();
        assert_eq!(g.pages_per_block(), 576);
        assert_eq!(g.wordlines_per_block, 192);
        assert_eq!(g.page_bytes, 16 * 1024);
        assert_eq!(g.blocks, 428);
        // 428 blocks * 576 pages * 16 KiB ≈ 3.76 GiB per chip; 8 chips ≈ 30 GiB,
        // matching the paper's "32 GiB" emulated capacity order.
        let total_8_chips = 8 * g.pages_per_chip() * u64::from(g.page_bytes);
        assert!(total_8_chips > 28 * (1 << 30) && total_8_chips < 34 * (1 << 30));
    }

    #[test]
    fn page_wordline_roundtrip() {
        let g = Geometry::paper_tlc();
        for p in [0u32, 1, 2, 3, 5, 575] {
            let (wl, ty) = g.page_to_wordline(PageId(p));
            assert_eq!(g.wordline_to_page(wl, ty), PageId(p));
        }
        let (wl, ty) = g.page_to_wordline(PageId(4));
        assert_eq!(wl, WordlineId(1));
        assert_eq!(ty, PageType::Csb);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_to_wordline_rejects_out_of_range() {
        Geometry::paper_tlc().page_to_wordline(PageId(576));
    }

    #[test]
    fn wordline_siblings_share_wordline() {
        let g = Geometry::paper_tlc();
        let sib: Vec<PageId> = g.wordline_siblings(PageId(10)).collect();
        assert_eq!(sib, vec![PageId(9), PageId(10), PageId(11)]);
        for s in sib {
            assert_eq!(g.page_to_wordline(s).0, g.page_to_wordline(PageId(10)).0);
        }
    }

    #[test]
    fn contains_checks_both_coordinates() {
        let g = Geometry::small_tlc();
        assert!(g.contains(Ppa::new(0, 0)));
        assert!(g.contains(Ppa::new(63, 71)));
        assert!(!g.contains(Ppa::new(64, 0)));
        assert!(!g.contains(Ppa::new(0, 72)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ppa::new(8, 34).to_string(), "PB#0x0008:pg34");
        assert_eq!(WordlineId(3).to_string(), "WL3");
    }
}
