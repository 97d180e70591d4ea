//! The sanitization seam: every decision about what happens to a secured
//! page once it is dead (paper §6 `secSSD`, §7 baselines).
//!
//! The rest of the FTL tells this module *that* secured pages died and
//! never looks at the policy: nothing outside this file and `policy.rs`
//! names a [`SanitizePolicy`] variant. The four entry points come first,
//! one per way a dead secured page comes to the FTL's attention; a new
//! backend is one more variant, one more arm in each of their `match`es,
//! and whatever mechanism the arms call (DESIGN.md §3.1).

use super::*;

impl Ftl {
    // ---- Entry points ----

    /// Host invalidation: `secured` are the secured pages of `block` that
    /// an overwrite (`HostUpdate`, deferrable — the host never waits on
    /// it) or a trim (synchronous — the ack promises the data is sealed)
    /// just killed. May append a merged queue batch to `secured`.
    pub(super) fn sanitize_invalidated<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        secured: &mut Vec<GlobalPpa>,
        cause: InvalidateCause,
    ) {
        match self.policy {
            SanitizePolicy::None => {}
            SanitizePolicy::Evanesco { use_block } => {
                let fully_dead = self.block_meta(chip, block).fully_dead();
                // Lock coalescing: deferrable locks queue until the block
                // dies — one bLock then covers the whole batch — or until
                // the age window expires.
                let defer = self.cfg.lock_coalescing && cause == InvalidateCause::HostUpdate;
                if defer && !fully_dead {
                    if !secured.is_empty() {
                        let pages = secured.len();
                        self.note_decision(ex, Decision::CoalesceEnqueue { chip, block, pages });
                        let since = self.stats.host_write_pages;
                        self.pending_locks.enqueue(chip, block, secured, since);
                    }
                    return;
                }
                let queued = if fully_dead { self.merge_queued(chip, block, secured) } else { 0 };
                let promote = self.promotes_to_block(use_block, chip, block, secured.len());
                self.settle_locks(ex, chip, block, secured.iter().copied(), queued, promote);
            }
            SanitizePolicy::EraseBased => {
                if !secured.is_empty() {
                    self.scoped(ex, OpCause::Sanitize, |f, ex| f.erase_block_now(ex, chip, block));
                }
            }
            SanitizePolicy::Scrub => {
                for &old in secured.iter() {
                    self.scoped(ex, OpCause::Sanitize, |f, ex| f.scrub_wordline(ex, old));
                }
            }
        }
    }

    /// GC victim death: every live page of `block` was just relocated;
    /// `secured_olds` are the old copies of the secured ones.
    pub(super) fn sanitize_gc_victim<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        secured_olds: &mut Vec<GlobalPpa>,
    ) {
        self.scoped(ex, OpCause::Sanitize, |f, ex| match f.policy {
            SanitizePolicy::None => {}
            SanitizePolicy::Evanesco { use_block } => {
                // The victim is fully dead now; any locks still queued for
                // it coalesce into this one settlement.
                debug_assert!(f.block_meta(chip, block).fully_dead(), "GC victim still live");
                let queued = f.merge_queued(chip, block, secured_olds);
                let promote = f.promotes_to_block(use_block, chip, block, secured_olds.len());
                f.settle_locks(ex, chip, block, secured_olds.iter().copied(), queued, promote);
            }
            SanitizePolicy::EraseBased => {
                if !secured_olds.is_empty() {
                    // Eager erase destroys every invalid page in the block.
                    f.sanitize_erase(ex, chip, block);
                }
            }
            SanitizePolicy::Scrub => {
                for &old in secured_olds.iter() {
                    ex.scrub(old);
                    f.stats.scrubs += 1;
                }
            }
        });
    }

    /// Deferred-lock settle: one coalescing-queue entry leaves the queue
    /// *now* (its age window expired, or the queue is being flushed). The
    /// only settle the decision log records, as a promote or a flush.
    pub(super) fn settle_deferred<E: NandExecutor>(&mut self, ex: &mut E, entry: CoalesceEntry) {
        let (chip, block, n) = (entry.chip, entry.block, entry.pages.len());
        let use_block = matches!(self.policy, SanitizePolicy::Evanesco { use_block: true });
        let promote = self.promotes_to_block(use_block, chip, block, n);
        let decision = if promote {
            Decision::CoalescePromote { chip, block, pages: n }
        } else {
            Decision::CoalesceFlush { chip, block, pages: n }
        };
        self.note_decision(ex, decision);
        self.settle_locks(ex, chip, block, entry.addresses(), n as u64, promote);
        self.pending_locks.recycle(entry.pages);
    }

    /// Post-recovery reseal: `targets` are the stale secured versions
    /// (sequence-contest losers) and decodable secured orphans the power-up
    /// scan found. The lock arms climb the runtime ladder's block-level
    /// settle ([`Ftl::secure_block`]) or its per-page rung
    /// ([`Ftl::plock_or_scrub`]), never its relocation.
    pub(super) fn reseal_after_recovery<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        targets: &[GlobalPpa],
    ) {
        // Group by (chip, block) — same batching the runtime paths use.
        let mut groups: Vec<(usize, u32, Vec<GlobalPpa>)> = Vec::new();
        for &at in targets {
            let key = (at.chip, at.ppa.block.0);
            match groups.iter_mut().find(|(c, b, _)| (*c, *b) == key) {
                Some((_, _, v)) => v.push(at),
                None => groups.push((key.0, key.1, vec![at])),
            }
        }
        for (chip, block, group) in groups {
            match self.policy {
                SanitizePolicy::None => {}
                SanitizePolicy::Evanesco { use_block } => {
                    if self.promotes_to_block(use_block, chip, block, group.len()) {
                        self.secure_block(ex, chip, block, group.into_iter());
                    } else {
                        for at in group {
                            self.plock_or_scrub(ex, at);
                        }
                    }
                }
                // No frontier is open and no space is reserved this early:
                // relocate and erase without the runtime path's preamble.
                SanitizePolicy::EraseBased => self.relocate_and_erase(ex, chip, block),
                SanitizePolicy::Scrub => {
                    for &at in &group {
                        self.scoped(ex, OpCause::Sanitize, |f, ex| f.scrub_wordline(ex, at));
                    }
                }
            }
        }
    }

    // ---- secSSD: the lock-settle rule ----

    /// The `secSSD` rule: a batch of `batch` dead secured pages of one
    /// block becomes a single `bLock` when `bLock` is allowed, the block is
    /// fully dead (a `bLock` on anything else would take live data or free
    /// slots with it) and the batch is at least `block_min_plocks` (below
    /// that the `pLock`s are cheaper); otherwise each page gets a `pLock`.
    fn promotes_to_block(&self, use_block: bool, chip: usize, block: u32, batch: usize) -> bool {
        use_block && self.block_meta(chip, block).fully_dead() && batch >= self.cfg.block_min_plocks
    }

    /// Moves the block's coalescing-queue entry, if any, onto the end of
    /// `pages` and returns how many pages it held.
    fn merge_queued(&mut self, chip: usize, block: u32, pages: &mut Vec<GlobalPpa>) -> u64 {
        if !self.cfg.lock_coalescing {
            return 0;
        }
        let Some(entry) = self.pending_locks.take(chip, block) else { return 0 };
        pages.extend(entry.addresses());
        let queued = entry.pages.len() as u64;
        self.pending_locks.recycle(entry.pages);
        queued
    }

    /// Settles `pages` — dead secured pages of one block, `queued` of which
    /// came out of the coalescing queue — as [`Ftl::promotes_to_block`]
    /// decided, and accounts what became of the queued ones.
    fn settle_locks<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        pages: impl Iterator<Item = GlobalPpa>,
        queued: u64,
        promote: bool,
    ) {
        if promote {
            self.secure_block(ex, chip, block, pages);
            self.stats.coalesced_plocks += queued;
        } else {
            for at in pages {
                self.secure_page(ex, at);
            }
            self.stats.coalesce_flushed_plocks += queued;
        }
    }

    /// A physical erase of `block` is about to sanitize harder than any
    /// lock: locks still queued for it are satisfied for free.
    pub(super) fn supersede_queued_locks<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
    ) {
        if !self.cfg.lock_coalescing {
            return;
        }
        if let Some(entry) = self.pending_locks.take(chip, block) {
            let pages = entry.pages.len();
            self.pending_locks.recycle(entry.pages);
            self.stats.coalesced_plocks += pages as u64;
            self.note_decision(ex, Decision::CoalesceSupersede { chip, block, pages });
        }
    }

    // ---- erSSD: relocate, then erase now ----

    /// erSSD: relocate all live pages of `block`, then erase it immediately.
    fn erase_block_now<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, block: u32) {
        // Cannot erase a block we are appending to without losing the
        // write pointer.
        self.chips[chip].close_if_active(block);
        // The relocation burst can consume up to two blocks before the
        // victim's erase returns one; reserve headroom first (this GC
        // pressure is part of erSSD's cost and is accounted normally).
        self.ensure_space(ex, chip, self.cfg.gc_free_threshold + 1);
        self.relocate_and_erase(ex, chip, block);
    }

    /// Moves the live pages out of `block` and erases it, unless a GC pass
    /// or an earlier group's relocations already consumed it (lazy-erased
    /// on reuse, or retired): then the secured data is physically gone.
    fn relocate_and_erase<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, block: u32) {
        if !self.block_meta(chip, block).holds_data() {
            return;
        }
        self.relocate_live_pages(ex, chip, block, &mut Vec::new());
        self.sanitize_erase(ex, chip, block);
    }

    /// Erases `block` for sanitization's sake and re-lists it as free. An
    /// emergency GC may already have queued the (dead) block as
    /// reclaimable; detaching first avoids a double listing.
    pub(super) fn sanitize_erase<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, block: u32) {
        self.detach_block(chip, block);
        if self.erase_block(ex, chip, block) {
            self.stats.sanitize_erases += 1;
            self.chips[chip].free.push_back(block);
        }
    }

    // ---- scrSSD: move the wordline's live siblings, then scrub it ----

    /// scrSSD: copy live wordline siblings elsewhere, then destroy the
    /// wordline in place.
    fn scrub_wordline<E: NandExecutor>(&mut self, ex: &mut E, target: GlobalPpa) {
        // Sibling relocation consumes pages outside the host-write path;
        // keep the usual GC headroom.
        self.ensure_space(ex, target.chip, self.cfg.gc_free_threshold);
        let chip = target.chip;
        let block = target.ppa.block;
        // The reservation GC may have collected the block and lazy-erased it
        // (physically destroying the target); don't scrub reused slots.
        if self.chips[chip].status[self.flat(target.ppa)] != PageStatus::Invalid {
            return;
        }
        let siblings = self.cfg.geometry.wordline_siblings(target.ppa.page);
        for page in siblings.clone() {
            self.relocate_page(ex, GlobalPpa::new(chip, Ppa { block, page }), true);
        }

        // Destroy the wordline: the target, the siblings' old slots, and any
        // never-written slots (which become unusable).
        let mut last_destroyed = 0;
        for page in siblings {
            let at = GlobalPpa::new(chip, Ppa { block, page });
            let idx = self.flat(at.ppa);
            if self.chips[chip].status[idx] == PageStatus::Free {
                self.chips[chip].mark_invalid(idx, block.0);
                self.chips[chip].blocks[block.0 as usize].written += 1;
            }
            ex.scrub(at);
            last_destroyed = page.0;
        }
        self.stats.scrubs += 1;

        // If the wordline overlapped the active block's write pointer, the
        // pointer must skip past the destroyed slots.
        let ppb = self.cfg.geometry.pages_per_block();
        let cs = &mut self.chips[chip];
        if let Some(ab) = cs.active.as_mut() {
            if ab.id == block.0 && ab.next_page <= last_destroyed {
                ab.next_page = last_destroyed + 1;
                if ab.next_page >= ppb {
                    cs.active = None;
                    cs.blocks[block.0 as usize].state = BlockState::Full;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn evanesco_locks_trimmed_secured_page() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 4242);
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        assert_eq!(ftl.stats().plocks, 1);
        let attacker = Attacker::new();
        for chip in ex.chips_mut() {
            assert!(!attacker.recover_tag(chip, 4242));
        }
        ftl.check_invariants();
    }

    #[test]
    fn evanesco_skips_insecure_pages() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, false, 1);
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        assert_eq!(ftl.stats().plocks, 0);
        assert_eq!(ftl.stats().blocks_locked, 0);
    }

    #[test]
    fn evanesco_overwrite_locks_old_version() {
        // Condition C2: no old content after an update.
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 100);
        ftl.write(&mut ex, &mut NullObserver, 0, true, 200);
        assert_eq!(ftl.stats().plocks, 1);
        let attacker = Attacker::new();
        let mut found_new = false;
        for chip in ex.chips_mut() {
            assert!(!attacker.recover_tag(chip, 100), "old version leaked");
            found_new |= attacker.recover_tag(chip, 200);
        }
        assert!(found_new, "current version must remain readable");
    }

    #[test]
    fn block_used_for_whole_block_trim() {
        // Fill one whole block on one chip with secured pages, then trim them
        // all: the lock manager should issue a single bLock, not 24 pLocks.
        let cfg = FtlConfig::tiny_for_tests();
        let ppb = cfg.geometry.pages_per_block() as u64; // 24
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        // Interleave lpas so one chip gets a full block: with 2 chips,
        // even lpas go to chip 0. Write 2*ppb pages.
        let lpas: Vec<Lpa> = (0..2 * ppb).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, true, l);
        }
        ftl.trim(&mut ex, &mut NullObserver, &lpas);
        let s = ftl.stats();
        assert_eq!(s.blocks_locked, 2, "one bLock per fully-dead block");
        assert_eq!(s.plocks, 0, "no pLocks needed: {s:?}");
        // Nothing recoverable.
        let attacker = Attacker::new();
        for chip in ex.chips_mut() {
            for &l in &lpas {
                assert!(!attacker.recover_tag(chip, l));
            }
        }
        ftl.check_invariants();
    }

    #[test]
    fn no_block_policy_uses_plocks_only() {
        let cfg = FtlConfig::tiny_for_tests();
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco_no_block());
        let lpas: Vec<Lpa> = (0..2 * ppb).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, true, l);
        }
        ftl.trim(&mut ex, &mut NullObserver, &lpas);
        let s = ftl.stats();
        assert_eq!(s.blocks_locked, 0);
        assert_eq!(s.plocks, 2 * ppb);
    }

    #[test]
    fn erase_based_destroys_immediately_with_copies() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::erase_based());
        for (l, tag) in [(0u64, 10u64), (1, 20), (2, 30)] {
            ftl.write(&mut ex, &mut NullObserver, l, true, tag);
        }
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        let s = ftl.stats();
        assert_eq!(s.sanitize_erases, 1);
        assert!(s.copied_pages >= 2, "live pages relocated: {s:?}");
        let attacker = Attacker::new();
        for chip in ex.chips_mut() {
            assert!(!attacker.recover_tag(chip, 10));
        }
        // The survivors are still readable through the FTL.
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 20);
        assert_eq!(ftl.read(&mut ex, 2).unwrap().tag(), 30);
        ftl.check_invariants();
    }

    #[test]
    fn scrub_destroys_page_and_relocates_wl_siblings() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::scrub());
        // Three pages fill exactly one TLC wordline.
        for (l, tag) in [(0u64, 10u64), (1, 20), (2, 30)] {
            ftl.write(&mut ex, &mut NullObserver, l, true, tag);
        }
        ftl.trim(&mut ex, &mut NullObserver, &[1]); // middle page of the WL
        let s = ftl.stats();
        assert_eq!(s.scrubs, 1);
        assert_eq!(s.copied_pages, 2, "both live siblings relocated");
        let attacker = Attacker::new();
        for chip in ex.chips_mut() {
            assert!(!attacker.recover_tag(chip, 20));
        }
        assert_eq!(ftl.read(&mut ex, 0).unwrap().tag(), 10);
        assert_eq!(ftl.read(&mut ex, 2).unwrap().tag(), 30);
        ftl.check_invariants();
    }

    #[test]
    fn waf_of_erase_based_far_exceeds_evanesco() {
        // Steady-state random overwrites of secured data.
        let run = |policy| {
            let (mut ftl, mut ex) = setup(policy);
            let logical = ftl.logical_pages();
            for l in 0..logical {
                ftl.write(&mut ex, &mut NullObserver, l, true, l);
            }
            let mut rng_state = 12345u64;
            for i in 0..2000u64 {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let l = rng_state % logical;
                ftl.write(&mut ex, &mut NullObserver, l, true, 1_000_000 + i);
            }
            ftl.check_invariants();
            ftl.stats().waf()
        };
        let waf_er = run(SanitizePolicy::erase_based());
        let waf_sec = run(SanitizePolicy::evanesco());
        let waf_scr = run(SanitizePolicy::scrub());
        // In this tiny geometry (24-page blocks) erSSD relocates at most 23
        // pages per sanitization, so the gap is smaller than the paper's
        // 576-page blocks; the ordering and a clear multiple still hold.
        assert!(waf_er > 3.0 * waf_sec, "erSSD {waf_er} vs secSSD {waf_sec}");
        assert!(waf_scr > waf_sec, "scrSSD {waf_scr} vs secSSD {waf_sec}");
    }

    #[test]
    fn scrub_in_open_block_advances_write_pointer() {
        // Trim the only written page of the active block: the scrub destroys
        // its whole wordline including the two never-written sibling slots,
        // and subsequent writes must skip past them.
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::scrub());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 10); // page 0 of WL0
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        ftl.check_invariants();
        // Next write lands on page 3 (WL1), not on the destroyed WL0 slots.
        ftl.write(&mut ex, &mut NullObserver, 1, true, 11);
        let at = ftl.mapped(1).unwrap();
        assert_eq!(at.ppa.page.0, 3, "write pointer must skip the scrubbed WL");
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 11);
        ftl.check_invariants();
    }

    #[test]
    fn erase_based_handles_target_in_active_block() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::erase_based());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 1);
        ftl.write(&mut ex, &mut NullObserver, 1, true, 2);
        // Overwrite lpa 0: its old copy sits in the *active* block, which
        // must be closed, relocated and erased immediately.
        ftl.write(&mut ex, &mut NullObserver, 0, true, 3);
        assert_eq!(ftl.stats().sanitize_erases, 1);
        assert_eq!(ftl.read(&mut ex, 0).unwrap().tag(), 3);
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 2);
        ftl.check_invariants();
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 1));
    }

    #[test]
    fn block_not_used_while_block_still_open() {
        // Trimming many secured pages of a block that still has free slots
        // must fall back to pLocks: bLock would brick the unwritten pages.
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        // Write 12 of the block's 24 pages, then trim them all at once.
        let lpas: Vec<Lpa> = (0..12).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, true, l);
        }
        ftl.trim(&mut ex, &mut NullObserver, &lpas);
        let s = ftl.stats();
        assert_eq!(s.blocks_locked, 0, "open block must not be bLocked");
        assert_eq!(s.plocks, 12);
        // The block is still usable for new writes.
        ftl.write(&mut ex, &mut NullObserver, 20, true, 99);
        assert_eq!(ftl.read(&mut ex, 20).unwrap().tag(), 99);
        ftl.check_invariants();
    }
}
