//! Device-mode flag simulation: physical pAP/bAP cells behind the lock
//! flags.
//!
//! The behavioral [`crate::chip::EvanescoChip`] normally uses the *decoded*
//! flag values (what the majority circuit / SSL sensing would produce under
//! the DSE-validated parameters, which guarantee error-free flags). This
//! module makes the flags physical again: each `pLock` programs `k` actual
//! flag cells, each `bLock` programs an SSL, and retention ages them — so
//! experiments can quantify what happens when the flag design is *weaker*
//! than the paper's selection (the end-to-end consequence of Figures 9(d)
//! and 12(b): locked data reappearing).
//!
//! The only state of a programmed page flag is `(nonce, born_day)`: the
//! chip's `pLock` ordinal and the accumulated retention age at program
//! time. Its `k` cell voltages are never stored; they are the pure keyed
//! function [`pap::cell_vth`] of `(seed, nonce, cell, aged_days - born_day)`,
//! evaluated only when something senses the flag (an attacker sweep, a
//! verify pass, a recovery probe — FTL reads never target a locked page).
//! A programmed SSL is likewise just its `born_day`. Programming is two
//! stores, aging one addition, and a flag's decode cannot depend on which
//! other flags were programmed, read, aged or checkpointed in between.
//!
//! Page tables are geometry-sized, indexed by
//! `block * pages_per_block + page`, and allocated on the chip's first
//! `pLock`; a read touches only the one-byte `page_set` column unless the
//! page is locked.

use crate::bap::{BapConfig, SslState};
use crate::error::InvalidRetention;
use crate::pap::{self, PapConfig};
use evanesco_nand::geometry::{BlockId, Ppa};

/// Physical flag state of one chip.
#[derive(Debug, Clone)]
pub struct FlagDeviceSim {
    pap_config: PapConfig,
    bap_config: BapConfig,
    /// Key of this chip's cell-voltage stream.
    seed: u64,
    pages_per_block: u32,
    /// Which pages currently hold a programmed flag. Like the two columns
    /// below, empty until the chip's first `pLock`.
    page_set: Vec<bool>,
    /// Per set page: the `pLock` ordinal that programmed its flag.
    page_nonce: Vec<u64>,
    /// Per set page: `aged_days` when its flag was programmed.
    page_born: Vec<f64>,
    /// Set pages per block, so erases and sweeps skip clean blocks.
    programmed: Vec<u32>,
    /// Which blocks currently hold a programmed SSL.
    ssl_set: Vec<bool>,
    /// Per set block: `aged_days` when its SSL was programmed.
    ssl_born: Vec<f64>,
    /// Ordinal of the next `pLock`; never reused, so no two flags of a chip
    /// share cell draws.
    next_nonce: u64,
    /// Total programmed page flags (sum of `programmed`).
    page_flag_count: usize,
    /// Total programmed block flags (`true` entries in `ssl_set`).
    block_flag_count: usize,
    /// Days of retention the chip has sat through; finite and non-negative.
    aged_days: f64,
}

impl FlagDeviceSim {
    /// Creates a device simulation with the given flag configurations for a
    /// chip of `blocks` blocks of `pages_per_block` pages each.
    pub fn new(
        pap_config: PapConfig,
        bap_config: BapConfig,
        seed: u64,
        blocks: u32,
        pages_per_block: u32,
    ) -> Self {
        let blocks = blocks as usize;
        FlagDeviceSim {
            pap_config,
            bap_config,
            seed,
            pages_per_block,
            page_set: Vec::new(),
            page_nonce: Vec::new(),
            page_born: Vec::new(),
            programmed: vec![0; blocks],
            ssl_set: vec![false; blocks],
            ssl_born: vec![0.0; blocks],
            next_nonce: 0,
            page_flag_count: 0,
            block_flag_count: 0,
            aged_days: 0.0,
        }
    }

    /// The paper's selected configurations.
    pub fn paper(seed: u64, blocks: u32, pages_per_block: u32) -> Self {
        Self::new(PapConfig::paper(), BapConfig::paper(), seed, blocks, pages_per_block)
    }

    /// Table index of `ppa`, or `None` outside the geometry.
    fn slot(&self, ppa: Ppa) -> Option<usize> {
        let (b, ppb) = (ppa.block.0 as usize, self.pages_per_block);
        (b < self.programmed.len() && ppa.page.0 < ppb)
            .then(|| b * ppb as usize + ppa.page.0 as usize)
    }

    fn block_slots(&self, block: usize) -> std::ops::Range<usize> {
        let ppb = self.pages_per_block as usize;
        block * ppb..(block + 1) * ppb
    }

    fn stamp_page(&mut self, i: usize, nonce: u64, born_day: f64) {
        if self.page_set.is_empty() {
            let pages = self.programmed.len() * self.pages_per_block as usize;
            self.page_set = vec![false; pages];
            self.page_nonce = vec![0; pages];
            self.page_born = vec![0.0; pages];
        }
        self.page_nonce[i] = nonce;
        self.page_born[i] = born_day;
        if !self.page_set[i] {
            self.page_set[i] = true;
            self.programmed[i / self.pages_per_block as usize] += 1;
            self.page_flag_count += 1;
        }
    }

    fn stamp_ssl(&mut self, b: usize, born_day: f64) {
        self.ssl_born[b] = born_day;
        if !self.ssl_set[b] {
            self.ssl_set[b] = true;
            self.block_flag_count += 1;
        }
    }

    /// Physically programs the pAP flag of a page (one-shot, per-cell
    /// success probability from the calibrated curves). Reprogramming is a
    /// fresh pulse on fresh cells: new nonce, age zero. Addresses outside
    /// the geometry are ignored, as in [`FlagDeviceSim::erase_block`].
    pub fn program_page_flag(&mut self, ppa: Ppa) {
        let Some(i) = self.slot(ppa) else { return };
        self.stamp_page(i, self.next_nonce, self.aged_days);
        self.next_nonce += 1;
    }

    /// Physically programs the bAP (SSL) of a block.
    pub fn program_block_flag(&mut self, block: BlockId) {
        if (block.0 as usize) < self.ssl_set.len() {
            self.stamp_ssl(block.0 as usize, self.aged_days);
        }
    }

    /// Erase resets every flag of the block (the only unlock path).
    pub fn erase_block(&mut self, block: BlockId) {
        let b = block.0 as usize;
        if b >= self.programmed.len() {
            return;
        }
        if self.ssl_set[b] {
            self.ssl_set[b] = false;
            self.block_flag_count -= 1;
        }
        if self.programmed[b] > 0 {
            self.page_flag_count -= self.programmed[b] as usize;
            self.programmed[b] = 0;
            let slots = self.block_slots(b);
            self.page_set[slots].fill(false);
        }
    }

    /// Lets `days` of retention pass. Every flag's age counts from its own
    /// program, so `age(a); age(b)` is `age(a + b)` for all of them.
    ///
    /// # Errors
    ///
    /// Rejects a negative or non-finite span (or one that overflows the
    /// accumulated age) and leaves the simulation untouched.
    pub fn age(&mut self, days: f64) -> Result<(), InvalidRetention> {
        let total = self.aged_days + InvalidRetention::check(days)?;
        if !total.is_finite() {
            return Err(InvalidRetention { days });
        }
        self.aged_days = total;
        Ok(())
    }

    fn slot_reads_locked(&self, i: usize) -> bool {
        let age = self.aged_days - self.page_born[i];
        pap::cells_read_disabled(self.seed, self.pap_config, self.page_nonce[i], age)
    }

    fn ssl_blocks_reads(&self, b: usize) -> bool {
        SslState::aged(self.bap_config.point, self.aged_days - self.ssl_born[b]).blocks_reads()
    }

    /// Whether the physical pAP flag of the page currently decodes as
    /// *disabled* (locked). A page that was never flag-programmed decodes
    /// enabled.
    pub fn page_reads_locked(&self, ppa: Ppa) -> bool {
        self.slot(ppa)
            .is_some_and(|i| self.page_set.get(i) == Some(&true) && self.slot_reads_locked(i))
    }

    /// Whether the physical SSL of the block currently blocks reads.
    pub fn block_reads_locked(&self, block: BlockId) -> bool {
        let b = block.0 as usize;
        self.ssl_set.get(b) == Some(&true) && self.ssl_blocks_reads(b)
    }

    /// Slots of every programmed page flag, in address order.
    fn set_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.programmed.len())
            .filter(|&b| self.programmed[b] > 0)
            .flat_map(|b| self.block_slots(b))
            .filter(|&i| self.page_set[i])
    }

    /// Blocks of every programmed SSL, in address order.
    fn set_ssls(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ssl_set.len()).filter(|&b| self.ssl_set[b])
    }

    /// Number of page flags that were programmed but currently decode as
    /// enabled — each one is a sanitization hole.
    pub fn leaked_page_flags(&self) -> usize {
        self.set_slots().filter(|&i| !self.slot_reads_locked(i)).count()
    }

    /// Number of block flags that no longer block reads.
    pub fn leaked_block_flags(&self) -> usize {
        self.set_ssls().filter(|&b| !self.ssl_blocks_reads(b)).count()
    }

    /// Total programmed page flags.
    pub fn page_flag_count(&self) -> usize {
        self.page_flag_count
    }

    /// Total programmed block flags.
    pub fn block_flag_count(&self) -> usize {
        self.block_flag_count
    }

    /// Serializes the simulation state — stream key, next nonce,
    /// accumulated age, and `(address, nonce, born_day)` of every
    /// programmed flag in address order — into a checkpoint stream. Cell
    /// voltages are derived, so none travel; the flag configurations are
    /// the owning chip's, which its own section states.
    pub fn encode_state(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.tag(0x21);
        e.u64(self.seed);
        e.u64(self.next_nonce);
        e.f64(self.aged_days);
        e.usize(self.page_flag_count);
        let ppb = self.pages_per_block as usize;
        for i in self.set_slots() {
            e.u32((i / ppb) as u32);
            e.u32((i % ppb) as u32);
            e.u64(self.page_nonce[i]);
            e.f64(self.page_born[i]);
        }
        e.usize(self.block_flag_count);
        for b in self.set_ssls() {
            e.u32(b as u32);
            e.f64(self.ssl_born[b]);
        }
    }

    /// Reconstructs a simulation from a stream written by
    /// [`FlagDeviceSim::encode_state`], with the flag configurations of a
    /// chip of `blocks` blocks of `pages_per_block` pages each.
    ///
    /// # Errors
    ///
    /// Fails on truncation, structural corruption, a flag address outside
    /// the configured geometry, a nonce the chip has not issued yet, or a
    /// birth day that is not a finite day in `[0, aged_days]`.
    pub fn decode_state(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
        pap_config: PapConfig,
        bap_config: BapConfig,
        blocks: u32,
        pages_per_block: u32,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        use evanesco_nand::snapshot::SnapshotError::Mismatch;
        d.expect_tag(0x21, "flag-device")?;
        let mut sim = FlagDeviceSim::new(pap_config, bap_config, d.u64()?, blocks, pages_per_block);
        sim.next_nonce = d.u64()?;
        let today = d.f64()?;
        sim.aged_days = InvalidRetention::check(today)
            .map_err(|_| Mismatch(format!("accumulated flag age {today} is not a day count")))?;
        // `contains` is false for NaN, so this rejects non-finite days too.
        let born_ok = |born: f64| (0.0..=today).contains(&born);
        for _ in 0..d.usize()? {
            let (b, p, nonce, born) = (d.u32()?, d.u32()?, d.u64()?, d.f64()?);
            match sim.slot(Ppa::new(b, p)) {
                Some(i) if nonce < sim.next_nonce && born_ok(born) => {
                    sim.stamp_page(i, nonce, born)
                }
                _ => {
                    return Err(Mismatch(format!(
                        "page flag ({b}, {p}) with nonce {nonce}, born on day {born}, cannot exist \
                         on a chip of {blocks} blocks x {pages_per_block} pages that issued {} \
                         nonces by day {today}",
                        sim.next_nonce
                    )))
                }
            }
        }
        for _ in 0..d.usize()? {
            let (b, born) = (d.u32()?, d.f64()?);
            if b >= blocks || !born_ok(born) {
                return Err(Mismatch(format!(
                    "block flag {b}, born on day {born}, cannot exist on a chip of {blocks} \
                     blocks on day {today}"
                )));
            }
            sim.stamp_ssl(b as usize, born);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::DesignPoint;
    use evanesco_nand::snapshot::{Dec, Enc, SnapshotError};

    /// Test geometry: 8 blocks of 512 pages.
    const BLOCKS: u32 = 8;
    const PPB: u32 = 512;
    const WEAK_PAP: PapConfig = PapConfig { k: 9, point: DesignPoint { v_index: 2, t_us: 200 } };

    fn lock_n_pages(sim: &mut FlagDeviceSim, block: u32, n: u32) {
        (0..n).for_each(|p| sim.program_page_flag(Ppa::new(block, p)));
    }

    /// The decoded state of every page flag and SSL, in address order.
    fn decoded(sim: &FlagDeviceSim) -> Vec<bool> {
        let pages = (0..BLOCKS).flat_map(|b| (0..PPB).map(move |p| Ppa::new(b, p)));
        pages
            .map(|ppa| sim.page_reads_locked(ppa))
            .chain((0..BLOCKS).map(|b| sim.block_reads_locked(BlockId(b))))
            .collect()
    }

    fn encoded(sim: &FlagDeviceSim) -> Vec<u8> {
        let mut e = Enc::new();
        sim.encode_state(&mut e);
        e.into_bytes()
    }

    #[test]
    fn paper_config_never_leaks_within_five_years() {
        let mut sim = FlagDeviceSim::paper(1, BLOCKS, PPB);
        lock_n_pages(&mut sim, 0, 500);
        sim.program_block_flag(BlockId(1));
        assert_eq!(sim.leaked_page_flags(), 0);
        sim.age(5.0 * 365.0).unwrap();
        assert_eq!(sim.leaked_page_flags(), 0, "paper pAP config leaked");
        assert_eq!(sim.leaked_block_flags(), 0, "paper bAP config leaked");
        assert!((0..500).all(|p| sim.page_reads_locked(Ppa::new(0, p))));
        assert!(sim.block_reads_locked(BlockId(1)));
    }

    #[test]
    fn weak_pap_config_leaks_after_years() {
        // Combination (vi) = (Vp2, 200µs): Figure 9(d)'s weakest candidate.
        let mut sim = FlagDeviceSim::new(WEAK_PAP, BapConfig::paper(), 2, BLOCKS, PPB);
        lock_n_pages(&mut sim, 0, 500);
        sim.age(5.0 * 365.0).unwrap();
        let leaked = sim.leaked_page_flags();
        assert!(leaked > 100, "weak config should leak substantially at 5 years: {leaked}/500");
    }

    #[test]
    fn weak_bap_config_unblocks_before_a_year() {
        // Combination (vi) = (Vb5, 200µs) from Figure 12(b).
        let weak = BapConfig { point: DesignPoint::new(5, 200) };
        let mut sim = FlagDeviceSim::new(PapConfig::paper(), weak, 3, BLOCKS, PPB);
        sim.program_block_flag(BlockId(0));
        assert!(sim.block_reads_locked(BlockId(0)));
        sim.age(365.0).unwrap();
        assert!(!sim.block_reads_locked(BlockId(0)), "weak SSL must decay open");
        assert_eq!(sim.leaked_block_flags(), 1);
    }

    #[test]
    fn erase_clears_flags() {
        let mut sim = FlagDeviceSim::paper(4, BLOCKS, PPB);
        lock_n_pages(&mut sim, 0, 4);
        sim.program_block_flag(BlockId(0));
        sim.erase_block(BlockId(0));
        assert_eq!((sim.page_flag_count(), sim.block_flag_count()), (0, 0));
        assert!(!sim.page_reads_locked(Ppa::new(0, 0)));
        assert!(!sim.block_reads_locked(BlockId(0)));
    }

    #[test]
    fn unprogrammed_and_out_of_geometry_flags_read_enabled() {
        let mut sim = FlagDeviceSim::paper(5, BLOCKS, PPB);
        assert!(!sim.page_reads_locked(Ppa::new(3, 3)));
        assert!(!sim.block_reads_locked(BlockId(3)));
        // Outside the geometry nothing is programmed (and nothing panics).
        sim.program_page_flag(Ppa::new(BLOCKS, 0));
        sim.program_page_flag(Ppa::new(0, PPB));
        sim.program_block_flag(BlockId(BLOCKS));
        assert_eq!((sim.page_flag_count(), sim.block_flag_count()), (0, 0));
        assert!(!sim.page_reads_locked(Ppa::new(1, 0)), "page PPB of block 0 is not (1, 0)");
    }

    #[test]
    fn reprogram_is_a_fresh_pulse_not_a_second_flag() {
        let mut sim = FlagDeviceSim::paper(7, BLOCKS, PPB);
        sim.program_page_flag(Ppa::new(0, 0));
        sim.program_page_flag(Ppa::new(0, 0));
        assert_eq!(sim.page_flag_count(), 1, "reprogram must not double-count");
        assert!(sim.page_reads_locked(Ppa::new(0, 0)));
    }

    /// A weak device whose flags were programmed on three different days.
    fn weak_device_with_staggered_flags() -> FlagDeviceSim {
        let bap = BapConfig { point: DesignPoint::new(5, 300) };
        let mut sim = FlagDeviceSim::new(WEAK_PAP, bap, 10, BLOCKS, PPB);
        lock_n_pages(&mut sim, 0, 300);
        sim.program_block_flag(BlockId(1));
        sim.age(400.0).unwrap();
        lock_n_pages(&mut sim, 2, 300);
        sim.program_block_flag(BlockId(3));
        sim.age(7.0).unwrap();
        sim.program_block_flag(BlockId(4));
        sim
    }

    #[test]
    fn rest_composes_however_it_is_sliced() {
        // One 2-year rest, two 1-year rests and 730 one-day rests are the
        // same retention for every flag, whenever it was programmed.
        let mut whole = weak_device_with_staggered_flags();
        let (mut halves, mut daily) = (whole.clone(), whole.clone());
        whole.age(730.0).unwrap();
        (0..2).for_each(|_| halves.age(365.0).unwrap());
        (0..730).for_each(|_| daily.age(1.0).unwrap());
        assert_eq!(decoded(&whole), decoded(&halves));
        assert_eq!(decoded(&whole), decoded(&daily));
        assert_eq!(encoded(&whole), encoded(&daily));
        assert!(whole.leaked_page_flags() > 0, "the weak corner leaks at two years");
    }

    #[test]
    fn a_flag_ages_from_its_own_program_not_from_the_start_of_the_run() {
        // (Vb5, 300µs) starts at 3.30V and crosses 3.0V ~9 days after *its*
        // bLock, however long the device sat idle before.
        let weak = BapConfig { point: DesignPoint::new(5, 300) };
        let mut sim = FlagDeviceSim::new(PapConfig::paper(), weak, 11, BLOCKS, PPB);
        sim.age(2000.0).unwrap();
        sim.program_block_flag(BlockId(0));
        sim.age(4.0).unwrap();
        assert!(sim.block_reads_locked(BlockId(0)), "four days old, not 2004");
        sim.age(1996.0).unwrap();
        assert!(!sim.block_reads_locked(BlockId(0)), "dead at 2000 days");
        // A late page flag decodes like an early one of the same age, not
        // like one that sat through the idle period.
        let mut early = FlagDeviceSim::new(WEAK_PAP, BapConfig::paper(), 12, BLOCKS, PPB);
        let mut late = early.clone();
        late.age(5.0 * 365.0).unwrap();
        lock_n_pages(&mut early, 0, 500);
        lock_n_pages(&mut late, 0, 500);
        assert_eq!(late.leaked_page_flags(), 0, "fresh flags hold");
        early.age(30.0).unwrap();
        late.age(30.0).unwrap();
        assert_eq!(decoded(&early), decoded(&late));
    }

    #[test]
    fn poisoned_retention_spans_are_rejected_and_change_nothing() {
        let mut sim = weak_device_with_staggered_flags();
        let before = (decoded(&sim), encoded(&sim));
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(sim.age(bad).is_err(), "{bad} accepted");
        }
        sim.age(0.0).unwrap();
        assert_eq!((decoded(&sim), encoded(&sim)), before);
        // A span that is fine on its own but overflows the accumulated age.
        sim.age(f64::MAX).unwrap();
        assert!(sim.age(f64::MAX).is_err());
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut sim = weak_device_with_staggered_flags();
        sim.program_page_flag(Ppa::new(3, 7));
        let bytes = encoded(&sim);
        let (pap, bap) = (sim.pap_config, sim.bap_config);
        let restored =
            FlagDeviceSim::decode_state(&mut Dec::new(&bytes), pap, bap, BLOCKS, PPB).unwrap();
        assert_eq!(restored.page_flag_count(), sim.page_flag_count());
        assert_eq!(restored.block_flag_count(), sim.block_flag_count());
        assert_eq!(decoded(&restored), decoded(&sim));
        assert_eq!(encoded(&restored), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn decode_rejects_flags_the_chip_cannot_hold() {
        let mut sim = FlagDeviceSim::paper(9, BLOCKS, PPB);
        sim.age(10.0).unwrap();
        sim.program_page_flag(Ppa::new(5, 100));
        sim.program_block_flag(BlockId(6));
        let bytes = encoded(&sim);
        let decode = |b: &[u8], blocks, ppb| {
            let (pap, bap) = (PapConfig::paper(), BapConfig::paper());
            FlagDeviceSim::decode_state(&mut Dec::new(b), pap, bap, blocks, ppb)
        };
        decode(&bytes, BLOCKS, PPB).unwrap();
        // Decoding against a smaller chip must fail loudly, not truncate.
        assert!(decode(&bytes, 4, PPB).is_err());
        assert!(decode(&bytes, BLOCKS, 64).is_err());
        // Layout: tag, seed, next_nonce, aged_days, count, (b, p, nonce,
        // born), count, (b, born).
        let next_nonce = 1 + 8;
        let aged_days = next_nonce + 8;
        let nonce = aged_days + 8 + 8 + 4 + 4;
        let born = nonce + 8;
        let ssl_born = born + 8 + 8 + 4;
        for (what, at, v) in [
            ("nonce not issued yet", nonce, 1u64.to_le_bytes()),
            ("next_nonce behind a live flag", next_nonce, 0u64.to_le_bytes()),
            ("born after today", born, 11.0f64.to_le_bytes()),
            ("born before the run", born, (-1.0f64).to_le_bytes()),
            ("born NaN", born, f64::NAN.to_le_bytes()),
            ("ssl born after today", ssl_born, 10.5f64.to_le_bytes()),
            ("ssl born infinite", ssl_born, f64::INFINITY.to_le_bytes()),
            ("age NaN", aged_days, f64::NAN.to_le_bytes()),
            ("age negative", aged_days, (-3.0f64).to_le_bytes()),
        ] {
            let mut patched = bytes.clone();
            patched[at..at + 8].copy_from_slice(&v);
            let got = decode(&patched, BLOCKS, PPB);
            assert!(matches!(got, Err(SnapshotError::Mismatch(_))), "{what} accepted");
        }
    }
}
