//! Mapping state: the per-chip page / block tables with their running
//! counters, host invalidation up to the sanitization seam, and the
//! consistency scan over all of it.

use super::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockState {
    Free,
    Open,
    Full,
    Reclaimable,
    /// Grown-bad: the erase retry budget was exhausted. The block's
    /// contents were scrubbed, its spare area carries the retirement
    /// sentinel, and it never re-enters circulation.
    Retired,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct BlockMeta {
    pub(super) state: BlockState,
    /// Live (valid + secured) pages.
    pub(super) live: u32,
    /// Invalid (dead, not yet erased) pages.
    pub(super) invalid: u32,
    /// Programmed pages since last erase.
    pub(super) written: u32,
    /// Host-write tick at which the block became full (age reference for
    /// cost-benefit GC).
    pub(super) closed_at: u64,
}

impl BlockMeta {
    pub(super) const EMPTY: BlockMeta =
        BlockMeta { state: BlockState::Free, live: 0, invalid: 0, written: 0, closed_at: 0 };

    /// Whether the block still physically holds programmed pages the FTL
    /// knows about. Sanitization that relocates first must re-check this
    /// after reserving space: the reservation GC may have collected and
    /// lazy-erased (or retired) the very block it was about to work on.
    pub(super) fn holds_data(&self) -> bool {
        matches!(self.state, BlockState::Full | BlockState::Reclaimable)
    }

    /// No live page left and no free slot an append could still land in:
    /// the only state in which a `bLock` costs nothing but dead data.
    pub(super) fn fully_dead(&self) -> bool {
        self.live == 0 && self.holds_data()
    }
}

/// The L2P map at word width (DESIGN.md §13): per logical page the packed
/// `chip | block | page` (`bits`: the page and block field widths) plus
/// one, so zero means unmapped and a fresh table is zeroed pages.
#[derive(Debug, Clone)]
pub(super) struct L2p {
    entries: Vec<u32>,
    bits: (u32, u32),
}

impl L2p {
    pub(super) fn new(cfg: &FtlConfig) -> Self {
        let (_, block, page) = cfg.l2p_field_bits();
        L2p { entries: vec![0; cfg.logical_pages() as usize], bits: (page, block) }
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Where `lpa` is mapped; `None` when unmapped or beyond the table.
    pub(super) fn get(&self, lpa: usize) -> Option<GlobalPpa> {
        let packed = self.entries.get(lpa)?.checked_sub(1)?;
        let (page, block) = self.bits;
        let ppa = Ppa::new(packed >> page & ((1 << block) - 1), packed & ((1 << page) - 1));
        Some(GlobalPpa::new((packed >> (page + block)) as usize, ppa))
    }

    /// Maps `lpa` to `at`, which must lie inside the configured geometry.
    pub(super) fn set(&mut self, lpa: usize, at: Option<GlobalPpa>) {
        let (page, block) = self.bits;
        let packed = at.map(|a| ((a.chip as u32) << block | a.ppa.block.0) << page | a.ppa.page.0);
        self.entries[lpa] = packed.map_or(0, |p| p + 1);
        debug_assert_eq!(self.get(lpa), at, "an address outside the L2P fields");
    }
}

#[derive(Debug, Clone)]
pub(super) struct ChipState {
    /// Reverse map per physical page: `lpa + 1`, zero for none.
    pub(super) p2l: Vec<u32>,
    pub(super) status: Vec<PageStatus>,
    pub(super) blocks: Vec<BlockMeta>,
    pub(super) free: VecDeque<u32>,
    pub(super) reclaimable: VecDeque<u32>,
    pub(super) active: Option<ActiveBlock>,
    /// Blocks whose live pages are being relocated right now, innermost
    /// last; nested (emergency) GC passes must not pick them again.
    pub(super) gc_in_progress: Vec<u32>,
    /// Running live (valid + secured) page count across the chip.
    pub(super) live_total: u64,
    /// Running invalid (dead, not yet erased) page count across the chip.
    pub(super) invalid_total: u64,
    /// Grown-bad blocks retired on this chip (counts against the
    /// spare-block reserve).
    pub(super) retired: u32,
}

impl ChipState {
    pub(super) fn new(blocks: u32, pages_per_block: u32) -> Self {
        let pages = (blocks * pages_per_block) as usize;
        ChipState {
            p2l: vec![0; pages],
            status: vec![PageStatus::Free; pages],
            blocks: vec![BlockMeta::EMPTY; blocks as usize],
            free: (0..blocks).collect(),
            reclaimable: VecDeque::new(),
            active: None,
            gc_in_progress: Vec::new(),
            live_total: 0,
            invalid_total: 0,
            retired: 0,
        }
    }

    /// The logical page mapped at physical page `idx`, if any.
    pub(super) fn lpa_at(&self, idx: usize) -> Option<Lpa> {
        self.p2l[idx].checked_sub(1).map(Lpa::from)
    }

    pub(super) fn available_blocks(&self) -> usize {
        self.free.len() + self.reclaimable.len()
    }

    /// The lowest-numbered `Full` block, if any.
    pub(super) fn first_full(&self) -> Option<usize> {
        self.blocks.iter().position(|b| b.state == BlockState::Full)
    }

    /// Stops appending to `block` if it is the write frontier (it is about
    /// to be erased or locked whole); its remaining free pages are wasted
    /// until the eventual erase reclaims them.
    pub(super) fn close_if_active(&mut self, block: u32) {
        if self.active.is_some_and(|ab| ab.id == block) {
            self.active = None;
            self.blocks[block as usize].state = BlockState::Full;
        }
    }

    /// Maps a page live (valid or secured), maintaining every counter.
    /// The slot must be `Free` (normal append) or `Invalid` (recovery
    /// re-commits scanned pages).
    pub(super) fn mark_live(&mut self, idx: usize, block: u32, lpa: Lpa, secure: bool) {
        let old = self.status[idx];
        debug_assert!(!old.is_live(), "double-map of physical page {idx}");
        if old == PageStatus::Invalid {
            self.blocks[block as usize].invalid -= 1;
            self.invalid_total -= 1;
        }
        self.status[idx] = if secure { PageStatus::Secured } else { PageStatus::Valid };
        self.p2l[idx] = lpa as u32 + 1;
        self.blocks[block as usize].live += 1;
        self.live_total += 1;
    }

    /// Marks a page invalid (dead), maintaining every counter. Accepts a
    /// live page (normal invalidation) or a `Free` slot (scrub destroying
    /// a never-written sibling). Returns the page's previous status.
    pub(super) fn mark_invalid(&mut self, idx: usize, block: u32) -> PageStatus {
        let old = self.status[idx];
        debug_assert!(old != PageStatus::Invalid, "double invalidate of page {idx}");
        if old.is_live() {
            self.p2l[idx] = 0;
            self.blocks[block as usize].live -= 1;
            self.live_total -= 1;
        }
        self.status[idx] = PageStatus::Invalid;
        self.blocks[block as usize].invalid += 1;
        self.invalid_total += 1;
        old
    }

    /// Forgets a block's pages and counters after a physical erase.
    pub(super) fn reset_block(&mut self, block: u32, pages_per_block: u32) {
        let meta = self.blocks[block as usize];
        self.live_total -= u64::from(meta.live);
        self.invalid_total -= u64::from(meta.invalid);
        let base = (block * pages_per_block) as usize;
        for i in 0..pages_per_block as usize {
            self.p2l[base + i] = 0;
            self.status[base + i] = PageStatus::Free;
        }
        self.blocks[block as usize] = BlockMeta::EMPTY;
    }

    /// Ground-truth `(live, invalid)` page counts of one block, scanned
    /// from the page status table.
    pub(super) fn scan_block(&self, block: usize, pages_per_block: u32) -> (u32, u32) {
        let pages = &self.status[block * pages_per_block as usize..][..pages_per_block as usize];
        let live = pages.iter().filter(|s| s.is_live()).count() as u32;
        let invalid = pages.iter().filter(|&&s| s == PageStatus::Invalid).count() as u32;
        (live, invalid)
    }
}

impl Ftl {
    /// Current mapping of a logical page.
    pub fn mapped(&self, lpa: Lpa) -> Option<GlobalPpa> {
        self.l2p.get(lpa as usize)
    }

    /// Status of a physical page.
    pub fn page_status(&self, at: GlobalPpa) -> PageStatus {
        self.chips[at.chip].status[self.flat(at.ppa)]
    }

    pub(super) fn flat(&self, ppa: Ppa) -> usize {
        (ppa.block.0 * self.cfg.geometry.pages_per_block() + ppa.page.0) as usize
    }

    pub(super) fn block_meta(&self, chip: usize, block: u32) -> BlockMeta {
        self.chips[chip].blocks[block as usize]
    }

    pub(super) fn commit_mapping(&mut self, lpa: Lpa, at: GlobalPpa, secure: bool) {
        let idx = self.flat(at.ppa);
        self.chips[at.chip].mark_live(idx, at.ppa.block.0, lpa, secure);
        self.l2p.set(lpa as usize, Some(at));
    }

    /// Unmaps every still-mapped page of `lpas` and invalidates the old
    /// copies one block group at a time, as a trim (locks settle before
    /// the caller acknowledges anything).
    ///
    /// Physical addresses are resolved one block-group at a time because a
    /// group's sanitization (relocation under erSSD/scrSSD, or GC pressure)
    /// can move pages that later groups still have to invalidate.
    pub(super) fn unmap_and_invalidate<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        lpas: impl Iterator<Item = Lpa>,
    ) {
        // Both worklists are recycled buffers: trims run on the host data
        // plane and must not allocate per request.
        let mut pending = std::mem::take(&mut self.trim_pending_scratch);
        pending.clear();
        pending.extend(lpas);
        let mut group = std::mem::take(&mut self.trim_group_scratch);
        while let Some(at0) = pending.iter().find_map(|&l| self.l2p.get(l as usize)) {
            let key = (at0.chip, at0.ppa.block.0);
            group.clear();
            pending.retain(|&l| match self.l2p.get(l as usize) {
                Some(at) if (at.chip, at.ppa.block.0) == key => {
                    group.push(at);
                    self.l2p.set(l as usize, None);
                    false
                }
                Some(_) => true,
                None => false,
            });
            // Trim locks stay synchronous: the trim ack promises the data
            // is sealed, so trimmed pages never enter the coalescing queue.
            self.invalidate_block_group(ex, key.0, key.1, &group, InvalidateCause::Trim);
        }
        self.trim_pending_scratch = pending;
        self.trim_group_scratch = group;
    }

    /// Marks the live pages `group` (all in `block`) dead and hands the
    /// secured ones to the sanitization seam.
    pub(super) fn invalidate_block_group<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        group: &[GlobalPpa],
        cause: InvalidateCause,
    ) {
        // Collect the secured subset into a recycled buffer (this runs on
        // every host overwrite; a fresh allocation per call would dominate
        // the data plane).
        let mut secured = std::mem::take(&mut self.secured_scratch);
        secured.clear();
        for &old in group {
            let idx = self.flat(old.ppa);
            let st = self.chips[chip].status[idx];
            debug_assert!(st.is_live(), "invalidate of non-live page {old}");
            self.chips[chip].mark_invalid(idx, block);
            let sec = st == PageStatus::Secured;
            if sec {
                secured.push(old);
            }
            let sanitized = self.policy.is_immediate() && sec;
            self.events.push(ObserverEvent::Invalidate { at: old, secure: sec, sanitized, cause });
        }
        self.sanitize_invalidated(ex, chip, block, &mut secured, cause);
        self.secured_scratch = secured;
    }

    // ---- Introspection for tests and experiments ----

    /// Number of live (valid or secured) pages across all chips. O(chips):
    /// reads the running totals, no page scan.
    pub fn live_pages(&self) -> u64 {
        self.chips.iter().map(|c| c.live_total).sum()
    }

    /// Number of invalid (dead, not yet erased) pages across all chips.
    /// O(chips): reads the running totals, no page scan.
    pub fn invalid_pages(&self) -> u64 {
        self.chips.iter().map(|c| c.invalid_total).sum()
    }

    /// Verifies internal consistency: mapping tables and the per-block and
    /// per-chip live/invalid counters all agree with a ground-truth scan of
    /// the page status table.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency; used by property tests.
    pub fn check_invariants(&self) {
        if let Some(violation) = self.first_violation() {
            panic!("{violation}");
        }
    }

    /// The consistency scan behind [`Ftl::check_invariants`] and the
    /// metadata guard's post-repair verification: the first violated
    /// invariant, if any. Safe on corrupted tables — an L2P entry that
    /// points outside the geometry is a violation, not an index panic.
    pub(super) fn first_violation(&self) -> Option<String> {
        let ppb = self.cfg.geometry.pages_per_block();
        let mut mapped = 0u64;
        for lpa in 0..self.l2p.len() {
            let Some(at) = self.l2p.get(lpa) else { continue };
            if at.chip >= self.chips.len() || !self.cfg.geometry.contains(at.ppa) {
                return Some(format!("l2p entry of lpa {lpa} points outside the device: {at}"));
            }
            let idx = self.flat(at.ppa);
            if self.chips[at.chip].lpa_at(idx) != Some(lpa as Lpa) {
                return Some(format!("l2p/p2l disagree at lpa {lpa}"));
            }
            if !self.chips[at.chip].status[idx].is_live() {
                return Some(format!("mapped page not live at lpa {lpa}"));
            }
            mapped += 1;
        }
        if mapped != self.live_pages() {
            return Some(format!("live-page counter drift: {mapped} vs {}", self.live_pages()));
        }
        for (ci, c) in self.chips.iter().enumerate() {
            let mut live_sum = 0u64;
            let mut invalid_sum = 0u64;
            let mut retired = 0u32;
            for (bi, b) in c.blocks.iter().enumerate() {
                let (live, invalid) = c.scan_block(bi, ppb);
                if (live, invalid) != (b.live, b.invalid) {
                    return Some(format!("block live/invalid count drift at chip {ci} block {bi}"));
                }
                live_sum += u64::from(live);
                invalid_sum += u64::from(invalid);
                if b.state == BlockState::Retired {
                    retired += 1;
                    let bi = bi as u32;
                    let listed = c.free.contains(&bi) || c.reclaimable.contains(&bi);
                    if listed || c.active.is_some_and(|ab| ab.id == bi) {
                        return Some(format!("retired block {bi} in circulation on chip {ci}"));
                    }
                }
            }
            if (live_sum, invalid_sum) != (c.live_total, c.invalid_total) {
                return Some(format!("chip live/invalid total drift at chip {ci}"));
            }
            if retired != c.retired {
                return Some(format!("retired count drift at chip {ci}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn mapping_tables_are_a_word_per_page() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        let l2p = std::mem::size_of_val(&ftl.l2p.entries[..]);
        assert_eq!(l2p, 4 * ftl.logical_pages() as usize, "one u32 per L2P entry");
        let p2l = std::mem::size_of_val(&ftl.chips[0].p2l[..]);
        assert_eq!(p2l, 4 * ftl.config().geometry.pages_per_chip() as usize, "one u32 per page");
        // Zero is unmapped, and every field survives the round trip.
        assert!(ftl.l2p.entries.iter().all(|&e| e == 0));
        let last = ftl.logical_pages() - 1;
        ftl.write(&mut ex, &mut NullObserver, last, true, 7);
        let at = ftl.mapped(last).expect("mapped");
        let geom = ftl.config().geometry;
        let corner = GlobalPpa::new(1, Ppa::new(geom.blocks - 1, geom.pages_per_block() - 1));
        for probe in [at, corner] {
            ftl.l2p.set(0, Some(probe));
            assert_eq!(ftl.l2p.get(0), Some(probe));
        }
        assert_eq!(ftl.chips[at.chip].lpa_at(ftl.flat(at.ppa)), Some(last));
    }
}
