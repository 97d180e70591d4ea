//! The paper's threat model (§5.1): the attacker against whom the
//! sanitization conditions C1 and C2 (§1) are checked.
//!
//! The modeled attacker is maximally capable short of probing raw cells with
//! an electron microscope:
//!
//! * physical access to the full system; can de-solder flash chips without
//!   damaging stored data (modeled by cloning the chip state — flags live in
//!   flash cells, so they are cloned along with the data);
//! * direct access to the raw chips through **all known flash interface
//!   commands**, bypassing the file system and the FTL;
//! * all passwords and encryption keys (Evanesco does not rely on
//!   encryption).
//!
//! What the attacker *cannot* do is decap the die and read individual cells
//! with an SEM — the paper argues this is impractical for modern 3D NAND.
//! Therefore the interface-level read path, which Evanesco gates on-chip,
//! is the attack surface.

use crate::chip::{EvanescoChip, ReadResult};
use evanesco_nand::chip::PageData;
use evanesco_nand::geometry::{BlockId, PageId, Ppa};
use std::collections::HashSet;

/// A forensic attacker with raw interface access to chips.
///
/// The attacker identifies file contents by tag (in reality: file carving /
/// signature matching over dumped pages, as forensic tools do).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attacker;

impl Attacker {
    /// Creates an attacker.
    pub fn new() -> Self {
        Attacker
    }

    /// De-solders the chip: returns a bit-exact image including the flag
    /// cells. Reading the image goes through the same on-chip gating,
    /// because the gating logic is part of the chip the attacker must use
    /// to read the cells.
    pub fn desolder(&self, chip: &EvanescoChip) -> EvanescoChip {
        chip.clone()
    }

    /// Dumps every page of the chip through the interface, block by block
    /// in address order, and hands `f` each recoverable (readable,
    /// programmed) page with its address.
    pub fn sweep(&self, chip: &mut EvanescoChip, mut f: impl FnMut(Ppa, &PageData)) {
        for b in 0..chip.geometry().blocks {
            let block = BlockId(b);
            for (p, result) in chip.interface_dump_block(block).iter().enumerate() {
                if let Some(d) = result.data() {
                    f(Ppa { block, page: PageId(p as u32) }, d);
                }
            }
        }
    }

    /// The content tags of every recoverable page of the chip.
    pub fn recoverable_tags(&self, chip: &mut EvanescoChip) -> HashSet<u64> {
        let mut tags = HashSet::new();
        self.sweep(chip, |_, d| {
            tags.insert(d.tag());
        });
        tags
    }

    /// Attempts to recover a specific content tag (e.g. a known deleted
    /// file's page). Returns `true` on success — a sanitization failure.
    pub fn recover_tag(&self, chip: &mut EvanescoChip, tag: u64) -> bool {
        self.recoverable_tags(chip).contains(&tag)
    }

    /// Tries every page address individually (not just block dumps), to
    /// make sure no alternative addressing path leaks data.
    pub fn exhaustive_page_scan(&self, chip: &mut EvanescoChip, tag: u64) -> bool {
        let geom = *chip.geometry();
        for b in 0..geom.blocks {
            for p in 0..geom.pages_per_block() {
                let ppa = Ppa { block: BlockId(b), page: PageId(p) };
                if let Ok(out) = chip.read(ppa) {
                    if let ReadResult::Content(c) = out.result {
                        if c.data().map(|d| d.tag()) == Some(tag) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::Geometry;
    use evanesco_nand::timing::Nanos;

    fn chip_with_pages(n: u32) -> EvanescoChip {
        let mut c = EvanescoChip::new(Geometry::small_tlc());
        for p in 0..n {
            c.program(Ppa::new(0, p), PageData::tagged(100 + p as u64)).unwrap();
        }
        c
    }

    #[test]
    fn attacker_recovers_unlocked_deleted_data() {
        // Without Evanesco, logically-deleted data is physically present and
        // fully recoverable (the data-versioning vulnerability).
        let mut c = chip_with_pages(3);
        let attacker = Attacker::new();
        assert!(attacker.recover_tag(&mut c, 101));
        assert!(attacker.exhaustive_page_scan(&mut c, 101));
    }

    #[test]
    fn attacker_defeated_by_plock() {
        let mut c = chip_with_pages(3);
        c.p_lock(Ppa::new(0, 1)).unwrap();
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut c, 101));
        assert!(!attacker.exhaustive_page_scan(&mut c, 101));
        // Valid neighbors remain readable.
        assert!(attacker.recover_tag(&mut c, 100));
        assert!(attacker.recover_tag(&mut c, 102));
    }

    #[test]
    fn attacker_defeated_by_block() {
        let mut c = chip_with_pages(3);
        c.b_lock(BlockId(0)).unwrap();
        let attacker = Attacker::new();
        for t in 100..103 {
            assert!(!attacker.recover_tag(&mut c, t));
        }
    }

    #[test]
    fn desoldering_does_not_bypass_locks() {
        let mut c = chip_with_pages(2);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        let attacker = Attacker::new();
        let mut image = attacker.desolder(&c);
        assert!(!attacker.recover_tag(&mut image, 100));
        assert!(attacker.recover_tag(&mut image, 101));
    }

    #[test]
    fn erase_then_reuse_leaves_nothing() {
        let mut c = chip_with_pages(2);
        c.b_lock(BlockId(0)).unwrap();
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        c.program(Ppa::new(0, 0), PageData::tagged(999)).unwrap();
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut c, 100));
        assert!(!attacker.recover_tag(&mut c, 101));
        assert!(attacker.recover_tag(&mut c, 999));
    }
}
