//! Allocation: the striped write frontier, block open with lazy erase
//! (paper §5.4), the erase retry ladder, and free-space reservation.

use super::*;

#[derive(Debug, Clone, Copy)]
pub(super) struct ActiveBlock {
    pub(super) id: u32,
    pub(super) next_page: u32,
}

impl Ftl {
    /// The frontier's chip visit order. With chips numbered as
    /// `channel × cpc + way`, the die-interleaved order walks `way 0` of
    /// every channel, then `way 1`, and so on — consecutive host pages
    /// always cross channel boundaries, so their data-in transfers never
    /// share a bus.
    pub(super) fn chip_order_for(cfg: &FtlConfig) -> Vec<usize> {
        match cfg.write_alloc {
            crate::config::WriteAlloc::RoundRobin => (0..cfg.n_chips).collect(),
            crate::config::WriteAlloc::ChannelInterleaved => {
                let cpc = cfg.chips_per_channel;
                let channels = cfg.n_chips / cpc;
                (0..cpc).flat_map(|way| (0..channels).map(move |ch| ch * cpc + way)).collect()
            }
        }
    }

    /// Allocates the next host-write page: advances the frontier one chip
    /// and runs the threshold-triggered GC there first.
    pub(super) fn allocate<E: NandExecutor>(&mut self, ex: &mut E) -> GlobalPpa {
        let chip = self.chip_order[self.next_chip];
        self.next_chip = (self.next_chip + 1) % self.chip_order.len();
        self.ensure_space(ex, chip, self.cfg.gc_free_threshold);
        self.allocate_on_chip(ex, chip)
    }

    /// The chip the next host-write page will land on (frontier preview for
    /// the out-of-order scheduler; the scheduler uses it to predict which
    /// chip a queued write occupies before actually dispatching it).
    pub fn peek_alloc_chip(&self) -> usize {
        self.chip_order[self.next_chip]
    }

    /// Allocates the next page on a specific chip. Normally space was
    /// secured by the threshold-triggered GC, but sanitization-forced
    /// relocation bursts (erSSD, scrubbing) can drain a chip mid-operation;
    /// an emergency GC pass covers that case.
    pub(super) fn allocate_on_chip<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
    ) -> GlobalPpa {
        // Looped rather than a single attempt: opening a block can fail
        // when a lazy erase retires the candidate as grown-bad, in which
        // case another candidate (or an emergency GC pass) is needed.
        while self.chips[chip].active.is_none() {
            if self.chips[chip].available_blocks() == 0 {
                let reclaimed = self.gc_once(ex, chip);
                assert!(reclaimed, "chip {chip} out of blocks: over-provisioning misconfigured");
                continue;
            }
            self.open_block(ex, chip);
        }
        let ppb = self.cfg.geometry.pages_per_block();
        let cs = &mut self.chips[chip];
        let ab = cs.active.as_mut().expect("just opened");
        let at = GlobalPpa::new(chip, Ppa { block: BlockId(ab.id), page: PageId(ab.next_page) });
        ab.next_page += 1;
        let full = ab.next_page == ppb;
        let id = ab.id;
        cs.blocks[id as usize].written += 1;
        if full {
            cs.blocks[id as usize].closed_at = self.stats.host_write_pages;
            cs.active = None;
            cs.blocks[id as usize].state = BlockState::Full;
        }
        at
    }

    /// Programs `payload` into pages drawn from `alloc` until one accepts
    /// it, and returns that page. A program-status failure consumes its
    /// slot — quarantined by `note_program_failure` — and remaps to the
    /// next; termination is guaranteed by `validate()` (program_fail < 1).
    pub(super) fn program_remapping<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        payload: &PageData,
        secure: bool,
        mut alloc: impl FnMut(&mut Self, &mut E) -> GlobalPpa,
    ) -> GlobalPpa {
        loop {
            let at = alloc(self, ex);
            self.stats.nand_programs += 1;
            if ex.program(at, payload.clone()).is_ok() {
                return at;
            }
            self.note_program_failure(ex, at, secure);
        }
    }

    /// Opens a write frontier on `chip` if any candidate block survives.
    /// May leave `active` unset when every candidate's lazy erase failed
    /// terminally (the blocks were retired); the caller loops.
    fn open_block<E: NandExecutor>(&mut self, ex: &mut E, chip: usize) {
        loop {
            let cs = &mut self.chips[chip];
            let id = if let Some(id) = cs.free.pop_front() {
                id
            } else if let Some(id) = cs.reclaimable.pop_front() {
                // Lazy erase: the block is erased only now, right before
                // reuse, keeping the open interval short (paper §5.4).
                // Reclamation work, so it attributes as GC, not host.
                if !self.scoped(ex, OpCause::Gc, |f, ex| f.erase_block(ex, chip, id)) {
                    // Candidate retired as grown-bad; try the next one.
                    continue;
                }
                id
            } else {
                // Every candidate was retired; the caller's loop falls
                // through to an emergency GC pass (or its own assert).
                return;
            };
            let cs = &mut self.chips[chip];
            cs.blocks[id as usize].state = BlockState::Open;
            cs.active = Some(ActiveBlock { id, next_page: 0 });
            return;
        }
    }

    /// Erases a block with bounded retries. Returns `true` on success;
    /// `false` when the retry budget was exhausted and the block was
    /// retired as grown-bad (contents scrubbed, never reused).
    pub(super) fn erase_block<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        id: u32,
    ) -> bool {
        // A physical erase sanitizes harder than any lock: locks still
        // queued for this block are satisfied for free.
        self.supersede_queued_locks(ex, chip, id);
        if self.erase_with_retry(ex, chip, id) {
            let ppb = self.cfg.geometry.pages_per_block();
            self.chips[chip].reset_block(id, ppb);
            self.events.push(ObserverEvent::Erase { chip, block: BlockId(id) });
            return true;
        }
        self.retire_block(ex, chip, id);
        false
    }

    /// Removes a block from the free/reclaimable queues (it is about to be
    /// erased and re-listed explicitly, or retired).
    pub(super) fn detach_block(&mut self, chip: usize, block: u32) {
        let cs = &mut self.chips[chip];
        cs.free.retain(|&b| b != block);
        cs.reclaimable.retain(|&b| b != block);
    }

    /// Runs GC on `chip` until `target` blocks are available or no
    /// profitable victim is left.
    pub(super) fn ensure_space<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, target: usize) {
        while self.chips[chip].available_blocks() < target {
            if !self.gc_once(ex, chip) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn writes_stripe_across_chips() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        ftl.write(&mut ex, &mut NullObserver, 0, false, 1);
        ftl.write(&mut ex, &mut NullObserver, 1, false, 2);
        assert_ne!(ftl.mapped(0).unwrap().chip, ftl.mapped(1).unwrap().chip);
    }

    #[test]
    fn lazy_erase_defers_physical_erase() {
        let cfg = FtlConfig::tiny_for_tests();
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::none());
        let ppb = cfg.geometry.pages_per_block() as u64;
        // Fill one block per chip, then trim everything: blocks become fully
        // invalid but must NOT be erased until reuse.
        let lpas: Vec<Lpa> = (0..2 * ppb).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, false, l);
        }
        ftl.trim(&mut ex, &mut NullObserver, &lpas);
        assert_eq!(ftl.stats().nand_erases, 0, "erase must be lazy");
        assert_eq!(ftl.invalid_pages(), 2 * ppb);
    }

    #[test]
    fn retiring_the_last_candidate_during_its_lazy_erase_falls_back_to_gc() {
        // Block 0 exhausts its erase budget (two attempts); block 1's
        // first erase succeeds. The hazard stream is a pure function of
        // (seed, block, attempt), so the seed can be searched for.
        let faulty = |seed| FaultConfig { erase_fail: 0.5, seed, ..FaultConfig::none() };
        let seed = (0..)
            .find(|&seed| {
                let mut m = evanesco_core::fault::FaultModel::new(faulty(seed), 0);
                m.erase_fails(0) && m.erase_fails(0) && !m.erase_fails(1)
            })
            .unwrap();
        let (mut ftl, mut ex) = setup_faulty(SanitizePolicy::none(), faulty(seed));
        // Keep one block available, not two: the reclaimable queue then
        // holds a single candidate when the free list runs dry.
        ftl.cfg.gc_free_threshold = 1;
        let ppb = ftl.cfg.geometry.pages_per_block() as u64;
        let logical = ftl.logical_pages();
        let two_blocks: Vec<Lpa> = (0..2 * ppb).collect();
        let mut tag = 0;
        let mut write = |ftl: &mut Ftl, ex: &mut MemExecutor, l: Lpa| {
            tag += 1;
            assert!(ftl.write(ex, &mut NullObserver, l, false, tag));
        };
        // Fill the logical space, then kill blocks 0 and 1 outright and
        // keep rewriting their pages until all 16 blocks have been opened.
        for l in 0..logical {
            write(&mut ftl, &mut ex, l);
        }
        for _ in 0..2 {
            ftl.trim(&mut ex, &mut NullObserver, &two_blocks);
            for &l in &two_blocks {
                write(&mut ftl, &mut ex, l);
            }
        }
        // The 17th open found the free list empty, popped block 0 — the
        // only reclaimable block — and lost it to its lazy erase. It used
        // to panic "no block to open"; now GC reclaims block 1 instead.
        let s = ftl.stats();
        assert_eq!((s.retired_blocks, s.erase_retries, s.nand_erases), (1, 1, 3), "{s:?}");
        assert_eq!(ftl.retired_block_count(), 1);
        assert!(
            two_blocks.iter().any(|&l| ftl.mapped(l).unwrap().ppa.block.0 == 1),
            "block 1 is the new write frontier"
        );
        for l in 0..logical {
            assert!(ftl.read(&mut ex, l).is_some(), "lpa {l} lost");
        }
        ftl.check_invariants();
    }

    #[test]
    fn channel_interleaved_frontier_crosses_channels() {
        // 2 channels × 2 ways, chip numbering channel*cpc + way: the
        // frontier must alternate channels (0, 2, 1, 3), not fill one
        // channel's chips back to back.
        let cfg = FtlConfig { n_chips: 4, chips_per_channel: 2, ..FtlConfig::tiny_for_tests() };
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::none());
        let mut order = Vec::new();
        for l in 0..4u64 {
            let predicted = ftl.peek_alloc_chip();
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, false, l);
            let landed = ftl.mapped(l as Lpa).unwrap().chip;
            assert_eq!(predicted, landed, "peek_alloc_chip must predict placement");
            order.push(landed);
        }
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn round_robin_frontier_visits_chips_in_numbering_order() {
        let cfg = FtlConfig {
            n_chips: 4,
            chips_per_channel: 2,
            write_alloc: crate::config::WriteAlloc::RoundRobin,
            ..FtlConfig::tiny_for_tests()
        };
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::none());
        for l in 0..4u64 {
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, false, l);
        }
        let order: Vec<usize> = (0..4).map(|l| ftl.mapped(l).unwrap().chip).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
