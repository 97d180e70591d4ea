//! The deferred-lock queue behind lock coalescing (paper §4.3 lock-queue
//! merge) and its age window. What a queued batch *becomes* when it
//! settles is decided behind the sanitization seam.

use super::*;

/// One block's worth of deferred `pLock`s in the coalescing queue: secured
/// pages invalidated by overwrite or GC whose locks wait for the block to
/// die — at which point the whole batch becomes a single `bLock` — or for
/// the age window to expire.
#[derive(Debug, Clone)]
pub(super) struct CoalesceEntry {
    pub(super) chip: usize,
    pub(super) block: u32,
    /// Page ids within `block`, in enqueue order (the `pLock` order).
    pub(super) pages: Vec<u32>,
    /// Host-write tick at which the first page entered (age reference for
    /// the bounded coalescing window).
    pub(super) since: u64,
}

impl CoalesceEntry {
    /// The queued pages as addresses, in enqueue order.
    pub(super) fn addresses(&self) -> impl Iterator<Item = GlobalPpa> + '_ {
        self.pages.iter().map(|&page| GlobalPpa::new(self.chip, Ppa::new(self.block, page)))
    }
}

/// The deferred-lock queue, engineered for the host data plane: a dense
/// per-`(chip, block)` table finds a block's entry in O(1) (this lookup
/// runs on every secured overwrite), entries live in a slab whose slots and
/// page buffers are recycled, and an age-ordered queue of
/// generation-stamped slot references drives window expiry. Out-of-band
/// removals (block death, erase supersede) leave stale references behind
/// instead of shifting the queue; pops skip them by generation mismatch.
#[derive(Debug, Clone, Default)]
pub(super) struct CoalesceQueue {
    slab: Vec<CoalesceEntry>,
    /// Per-slot generation, bumped when the slot is freed; an `order`
    /// reference is live iff its stamp matches.
    gen: Vec<u32>,
    free: Vec<u32>,
    /// Entry-creation order: `(slot, generation stamp)`.
    order: VecDeque<(u32, u32)>,
    /// `chip * blocks_per_chip + block` → slot + 1 (0 = nothing queued).
    at: Vec<u32>,
    blocks_per_chip: u32,
    /// Recycled page buffers from settled entries.
    spare: Vec<Vec<u32>>,
    /// Total queued pages across live entries.
    queued_pages: usize,
    /// Live entry count (the checkpoint codec needs it up front).
    live: usize,
}

impl CoalesceQueue {
    pub(super) fn new(chips: usize, blocks_per_chip: u32) -> Self {
        CoalesceQueue {
            at: vec![0; chips * blocks_per_chip as usize],
            blocks_per_chip,
            ..Default::default()
        }
    }

    fn key(&self, chip: usize, block: u32) -> usize {
        chip * self.blocks_per_chip as usize + block as usize
    }

    /// Appends the ids of `pages` (all in `block`) to the block's entry,
    /// creating one (age-stamped `since`) when none is queued. Steady state
    /// never allocates: slots and page buffers come from the recycle pools.
    pub(super) fn enqueue(&mut self, chip: usize, block: u32, pages: &[GlobalPpa], since: u64) {
        self.queued_pages += pages.len();
        let ids = pages.iter().map(|at| at.ppa.page.0);
        let key = self.key(chip, block);
        let slot = self.at[key];
        if slot != 0 {
            self.slab[(slot - 1) as usize].pages.extend(ids);
            return;
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend(ids);
        let entry = CoalesceEntry { chip, block, pages: buf, since };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = entry;
                s
            }
            None => {
                self.slab.push(entry);
                self.gen.push(0);
                (self.slab.len() - 1) as u32
            }
        };
        self.at[key] = slot + 1;
        self.order.push_back((slot, self.gen[slot as usize]));
        self.live += 1;
    }

    /// Removes and returns the block's queued entry, if any. The caller
    /// owns the pages buffer; hand it back via [`CoalesceQueue::recycle`]
    /// once drained.
    pub(super) fn take(&mut self, chip: usize, block: u32) -> Option<CoalesceEntry> {
        let key = self.key(chip, block);
        let slot = self.at[key];
        if slot == 0 {
            return None;
        }
        let s = (slot - 1) as usize;
        self.at[key] = 0;
        self.gen[s] = self.gen[s].wrapping_add(1);
        self.free.push(slot - 1);
        self.live -= 1;
        let e = &mut self.slab[s];
        let entry = CoalesceEntry {
            chip: e.chip,
            block: e.block,
            pages: std::mem::take(&mut e.pages),
            since: e.since,
        };
        self.queued_pages -= entry.pages.len();
        Some(entry)
    }

    /// Age stamp of the oldest live entry, if any (prunes stale
    /// references from the front).
    fn front_since(&mut self) -> Option<u64> {
        while let Some(&(slot, stamp)) = self.order.front() {
            if self.gen[slot as usize] == stamp {
                return Some(self.slab[slot as usize].since);
            }
            self.order.pop_front();
        }
        None
    }

    /// Removes and returns the oldest live entry.
    pub(super) fn pop_front(&mut self) -> Option<CoalesceEntry> {
        self.front_since()?;
        let &(slot, _) = self.order.front().expect("front is live");
        let (chip, block) = {
            let e = &self.slab[slot as usize];
            (e.chip, e.block)
        };
        self.order.pop_front();
        self.take(chip, block)
    }

    /// Returns a drained entry's page buffer to the recycle pool.
    pub(super) fn recycle(&mut self, pages: Vec<u32>) {
        if pages.capacity() > 0 && self.spare.len() < 64 {
            self.spare.push(pages);
        }
    }

    /// Live queued pages across all entries.
    fn total_pages(&self) -> usize {
        self.queued_pages
    }

    /// Live entry count.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Live entries in age (creation) order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &CoalesceEntry> {
        self.order
            .iter()
            .filter(|&&(slot, stamp)| self.gen[slot as usize] == stamp)
            .map(|&(slot, _)| &self.slab[slot as usize])
    }

    /// Drops every entry, keeping slots and buffers for reuse.
    pub(super) fn clear(&mut self) {
        while let Some(entry) = self.pop_front() {
            self.recycle(entry.pages);
        }
    }
}

impl Ftl {
    /// Flushes queue entries older than the coalescing window (called once
    /// per host write; entries are in age order, so this stops at the first
    /// young one).
    pub(super) fn flush_aged_locks<E: NandExecutor>(&mut self, ex: &mut E) {
        let now = self.stats.host_write_pages;
        while let Some(since) = self.pending_locks.front_since() {
            if now.saturating_sub(since) < self.cfg.coalesce_window {
                break;
            }
            let entry = self.pending_locks.pop_front().expect("front exists");
            self.settle_deferred(ex, entry);
        }
    }

    /// Drains the whole coalescing queue (quiesce: end of run, or before a
    /// planned shutdown). Afterwards no deferred lock is outstanding.
    pub fn flush_coalesced<E: NandExecutor, O: FtlObserver>(&mut self, ex: &mut E, obs: &mut O) {
        self.events.arm(obs.listening());
        while let Some(entry) = self.pending_locks.pop_front() {
            self.settle_deferred(ex, entry);
        }
        self.events.drain_into(obs);
    }

    /// Number of deferred `pLock`s currently queued by lock coalescing.
    pub fn pending_coalesced_locks(&self) -> usize {
        self.pending_locks.total_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn coalescing_promotes_block_death_to_single_block_lock() {
        // A block whose secured pages die one by one (overwrites) must end
        // with exactly one bLock and zero per-page pLocks.
        let cfg = FtlConfig { n_chips: 1, lock_coalescing: true, ..FtlConfig::tiny_for_tests() };
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        for l in 0..ppb {
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, true, l);
        }
        for l in 0..ppb {
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, true, 100 + l);
            ftl.check_invariants();
        }
        let s = ftl.stats();
        assert_eq!(s.blocks_locked, 1, "one bLock for the whole dead block");
        assert_eq!(s.plocks, 0, "no redundant per-page locks");
        assert_eq!(s.coalesced_plocks, ppb - 1, "all queued locks coalesced");
        assert_eq!(ftl.pending_coalesced_locks(), 0);
        // The batch bLock actually seals the stale data.
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 0));
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], ppb - 1));
    }

    #[test]
    fn coalescing_age_window_flushes_individual_plocks() {
        // A queued lock whose block never dies must still be issued within
        // the bounded window.
        let cfg = FtlConfig {
            n_chips: 1,
            lock_coalescing: true,
            coalesce_window: 4,
            ..FtlConfig::tiny_for_tests()
        };
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        for l in 0..ppb {
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, true, l);
        }
        ftl.write(&mut ex, &mut NullObserver, 0, true, 999); // queue one lock
        assert_eq!(ftl.pending_coalesced_locks(), 1);
        assert_eq!(ftl.stats().plocks, 0);
        for i in 0..6u64 {
            ftl.write(&mut ex, &mut NullObserver, (ppb + 1 + i) as Lpa, false, 5000 + i);
        }
        assert_eq!(ftl.pending_coalesced_locks(), 0, "window expired");
        let s = ftl.stats();
        assert_eq!(s.plocks, 1);
        assert_eq!(s.coalesce_flushed_plocks, 1);
        assert_eq!(s.blocks_locked, 0);
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 0));
        ftl.check_invariants();
    }

    #[test]
    fn flush_coalesced_drains_the_queue_on_demand() {
        let cfg = FtlConfig { n_chips: 1, lock_coalescing: true, ..FtlConfig::tiny_for_tests() };
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        for l in 0..ppb {
            ftl.write(&mut ex, &mut NullObserver, l as Lpa, true, l);
        }
        ftl.write(&mut ex, &mut NullObserver, 3, true, 999);
        assert_eq!(ftl.pending_coalesced_locks(), 1);
        ftl.flush_coalesced(&mut ex, &mut NullObserver);
        assert_eq!(ftl.pending_coalesced_locks(), 0);
        assert_eq!(ftl.stats().plocks, 1, "block still has live pages: pLock, not bLock");
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 3));
        ftl.check_invariants();
    }
}
