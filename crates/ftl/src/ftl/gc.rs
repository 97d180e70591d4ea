//! Garbage collection: the live-count-bucketed victim index, victim
//! selection, and live-page relocation (shared with every sanitization
//! path that has to move data before destroying it).

use super::*;
use crate::config::GcVictimPolicy;

/// Live-count-bucketed index over the chip's `Full` blocks, so GC victim
/// selection is O(1) amortized instead of an O(blocks) scan per call.
///
/// Invariant: a block is indexed iff its state is [`BlockState::Full`], in
/// the bucket matching its current live count.
#[derive(Debug, Clone)]
pub(super) struct VictimIndex {
    /// `buckets[live]` holds the Full blocks with that live count.
    pub(super) buckets: Vec<Vec<u32>>,
    /// Per-block `(live, slot in buckets[live])` when indexed.
    pub(super) pos: Vec<Option<(u32, u32)>>,
    /// Lower bound on the lowest non-empty bucket (advanced lazily).
    pub(super) min_live: u32,
}

impl VictimIndex {
    pub(super) fn new(blocks: u32, pages_per_block: u32) -> Self {
        VictimIndex {
            buckets: vec![Vec::new(); pages_per_block as usize + 1],
            pos: vec![None; blocks as usize],
            min_live: 0,
        }
    }

    pub(super) fn insert(&mut self, block: u32, live: u32) {
        debug_assert!(self.pos[block as usize].is_none(), "block {block} indexed twice");
        let bucket = &mut self.buckets[live as usize];
        self.pos[block as usize] = Some((live, bucket.len() as u32));
        bucket.push(block);
        self.min_live = self.min_live.min(live);
    }

    pub(super) fn remove(&mut self, block: u32) {
        let Some((live, slot)) = self.pos[block as usize].take() else { return };
        let bucket = &mut self.buckets[live as usize];
        bucket.swap_remove(slot as usize);
        if let Some(&moved) = bucket.get(slot as usize) {
            self.pos[moved as usize] = Some((live, slot));
        }
    }

    /// Re-buckets `block` after a live-count change (no-op if unindexed).
    pub(super) fn update(&mut self, block: u32, live: u32) {
        if let Some((old, _)) = self.pos[block as usize] {
            if old != live {
                self.remove(block);
                self.insert(block, live);
            }
        }
    }

    /// The live-count bucket `block` is indexed under, if it is indexed.
    pub(super) fn bucket_of(&self, block: u32) -> Option<u32> {
        self.pos[block as usize].map(|(live, _)| live)
    }

    /// The indexed block with the fewest live pages, excluding fully-live
    /// blocks and `skip` (in-flight GC victims). Ties break to the lowest
    /// block id. Amortized O(1): `min_live` only moves down on insert and
    /// is advanced past drained buckets here.
    fn min_live_candidate(&mut self, skip: &std::collections::HashSet<u32>) -> Option<u32> {
        let full_live = self.buckets.len() as u32 - 1;
        while self.min_live < full_live && self.buckets[self.min_live as usize].is_empty() {
            self.min_live += 1;
        }
        for live in self.min_live..full_live {
            let bucket = &self.buckets[live as usize];
            if let Some(&b) = bucket.iter().filter(|b| !skip.contains(b)).min() {
                return Some(b);
            }
        }
        None
    }

    /// Iterates every indexed `(block, live)` pair (cost-benefit GC scans
    /// the Full blocks only, never the whole block array).
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .flat_map(|(live, bucket)| bucket.iter().map(move |&b| (b, live as u32)))
    }
}

/// What collecting a block is worth under `policy` at host-write tick
/// `now`: its invalid-page count (greedy), weighted by age over the copy
/// cost for cost-benefit. Selection maximizes it; the decision log
/// reports it.
fn victim_score(policy: GcVictimPolicy, ppb: u32, now: u64, m: &BlockMeta) -> f64 {
    let invalid = f64::from(ppb - m.live);
    match policy {
        GcVictimPolicy::Greedy => invalid,
        GcVictimPolicy::CostBenefit => {
            let age = (now.saturating_sub(m.closed_at) + 1) as f64;
            invalid * age / (f64::from(m.live) + 1.0)
        }
    }
}

impl Ftl {
    /// One GC pass on `chip`. Returns false when no profitable victim
    /// exists.
    pub(super) fn gc_once<E: NandExecutor>(&mut self, ex: &mut E, chip: usize) -> bool {
        let ppb = self.cfg.geometry.pages_per_block();
        let now = self.stats.host_write_pages;
        let policy = self.cfg.gc_victim;
        // Victim selection runs over the Full-block index, never the whole
        // block array: greedy is an amortized-O(1) bucket lookup,
        // cost-benefit an O(|Full|) scan of indexed blocks only.
        let cs = &mut self.chips[chip];
        let victim = match policy {
            GcVictimPolicy::Greedy => cs.victims.min_live_candidate(&cs.gc_in_progress),
            GcVictimPolicy::CostBenefit => cs
                .victims
                .iter()
                .filter(|&(id, live)| live < ppb && !cs.gc_in_progress.contains(&id))
                .max_by(|&(a, _), &(b, _)| {
                    let score = |id: u32| victim_score(policy, ppb, now, &cs.blocks[id as usize]);
                    score(a).partial_cmp(&score(b)).expect("finite score")
                })
                .map(|(id, _)| id),
        };
        let Some(victim) = victim else { return false };
        self.scoped(ex, OpCause::Gc, |f, ex| {
            if f.decisions.enabled() {
                let m = f.block_meta(chip, victim);
                let (live, invalid) = (m.live, ppb - m.live);
                let score = victim_score(policy, ppb, now, &m);
                f.note_decision(
                    ex,
                    Decision::GcVictim { chip, block: victim, live, invalid, score },
                );
            }
            f.stats.gc_invocations += 1;
            f.chips[chip].gc_in_progress.insert(victim);
            // A recycled buffer: one GC pass per few host requests would
            // otherwise allocate (and regrow) a vector each.
            let mut secured_olds = std::mem::take(&mut f.gc_scratch);
            f.relocate_live_pages(ex, chip, victim, &mut secured_olds);
            f.chips[chip].gc_in_progress.remove(&victim);

            // Paper Fig. 13: "GC done" -> lock manager.
            f.sanitize_gc_victim(ex, chip, victim, &mut secured_olds);
            secured_olds.clear();
            f.gc_scratch = secured_olds;

            // Reclamation: lazy by default (erase deferred to reuse); eager
            // under the ablation flag; already done when erSSD erased the
            // block above.
            if f.block_meta(chip, victim).state == BlockState::Full {
                if f.cfg.eager_gc_erase {
                    if f.erase_block(ex, chip, victim) {
                        f.chips[chip].free.push_back(victim);
                    }
                } else {
                    let cs = &mut f.chips[chip];
                    cs.set_block_state(victim, BlockState::Reclaimable);
                    cs.reclaimable.push_back(victim);
                }
            }
        });
        true
    }

    /// Copies every live page out of `block` (within the same chip),
    /// remapping and invalidating the old slots. Appends the old addresses
    /// that were secured to `secured_olds`; sanitizing them is the caller's
    /// decision.
    pub(super) fn relocate_live_pages<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        secured_olds: &mut Vec<GlobalPpa>,
    ) {
        for p in 0..self.cfg.geometry.pages_per_block() {
            let old = GlobalPpa::new(chip, Ppa { block: BlockId(block), page: PageId(p) });
            if self.relocate_page(ex, old, false) == Some(true) {
                secured_olds.push(old);
            }
        }
    }

    /// Moves the page at `old`, if live, to a fresh page of the same chip
    /// (chip-local so a queued read's cached chip set stays valid) and
    /// invalidates the old slot — bookkeeping only; `destroyed` says the
    /// caller is about to physically destroy that slot whatever its
    /// class. Returns whether the moved page was secured, `None` if
    /// nothing was live there.
    pub(super) fn relocate_page<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        old: GlobalPpa,
        destroyed: bool,
    ) -> Option<bool> {
        let chip = old.chip;
        let idx = self.flat(old.ppa);
        let st = self.chips[chip].status[idx];
        if !st.is_live() {
            return None;
        }
        let lpa = self.chips[chip].lpa_at(idx).expect("live page has a reverse mapping");
        let data = ex.read(old).expect("live page is readable");
        self.stats.nand_reads += 1;
        let secure = st == PageStatus::Secured;
        let seq = self.next_seq();
        let payload = data.with_oob(PageOob { lpa, secure, seq });
        let new_at =
            self.program_remapping(ex, &payload, secure, |f, ex| f.allocate_on_chip(ex, chip));
        self.stats.copied_pages += 1;
        self.commit_mapping(lpa, new_at, secure);
        self.events.program(lpa, new_at, true, secure);
        self.chips[chip].mark_invalid(idx, old.ppa.block.0);
        let sanitized = destroyed || (self.policy.is_immediate() && secure);
        self.events.invalidate(old, secure, sanitized, InvalidateCause::GcCopy);
        Some(secure)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn gc_reclaims_space_under_pressure() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        let logical = ftl.logical_pages();
        // Write the full logical space twice: forces GC.
        for round in 0..2 {
            for l in 0..logical {
                ftl.write(&mut ex, &mut NullObserver, l, false, round * 10_000 + l);
            }
        }
        let s = ftl.stats();
        assert!(s.gc_invocations > 0, "GC must have run: {s:?}");
        assert!(s.nand_erases > 0);
        assert!(s.waf() >= 1.0);
        // All data still correct after GC.
        for l in 0..logical {
            assert_eq!(ftl.read(&mut ex, l).unwrap().tag(), 10_000 + l);
        }
        ftl.check_invariants();
    }

    #[test]
    fn gc_relocation_of_secured_pages_sanitizes_old_copies() {
        // Condition C2 under GC: moved secured pages leave no readable old
        // copy, enforced by bLock of the dead victim block.
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        let logical = ftl.logical_pages();
        for round in 0..3u64 {
            for l in 0..logical {
                ftl.write(&mut ex, &mut NullObserver, l, true, round * 100_000 + l);
            }
        }
        let s = ftl.stats();
        assert!(s.gc_invocations > 0);
        assert!(s.total_lock_commands() > 0);
        // No stale version of any page is recoverable.
        let attacker = Attacker::new();
        let mut recovered = std::collections::HashSet::new();
        for chip in ex.chips_mut() {
            recovered.extend(attacker.recoverable_tags(chip));
        }
        for l in 0..logical {
            assert!(!recovered.contains(&l), "round-0 version of {l} leaked");
            assert!(!recovered.contains(&(100_000 + l)), "round-1 version of {l} leaked");
            assert!(recovered.contains(&(200_000 + l)), "current version of {l} missing");
        }
        ftl.check_invariants();
    }

    #[test]
    fn cost_benefit_gc_also_reclaims() {
        let mut cfg = FtlConfig::tiny_for_tests();
        cfg.gc_victim = crate::config::GcVictimPolicy::CostBenefit;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        let logical = ftl.logical_pages();
        for round in 0..3u64 {
            for l in 0..logical {
                ftl.write(&mut ex, &mut NullObserver, l, true, round * 100_000 + l);
            }
        }
        assert!(ftl.stats().gc_invocations > 0);
        for l in 0..logical {
            assert_eq!(ftl.read(&mut ex, l).unwrap().tag(), 200_000 + l);
        }
        ftl.check_invariants();
    }

    #[test]
    fn incremental_counters_survive_churn_gc_and_coalescing() {
        // Heavy overwrite/trim churn with GC and coalescing enabled: the
        // O(chips) live/invalid totals and the victim index must stay in
        // lockstep with the ground-truth page scan the whole way.
        let cfg =
            FtlConfig { lock_coalescing: true, coalesce_window: 8, ..FtlConfig::tiny_for_tests() };
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        let span = 200u64;
        for i in 0..2200u64 {
            let lpa = (i * 17 + i / 31) % span;
            ftl.write(&mut ex, &mut NullObserver, lpa as Lpa, i % 2 == 0, i);
            if i % 97 == 0 {
                let t = (i % span) as Lpa;
                ftl.trim(&mut ex, &mut NullObserver, &[t, t + 1, t + 2]);
            }
            if i % 256 == 0 {
                ftl.check_invariants();
            }
        }
        assert!(ftl.stats().gc_invocations > 0, "churn must exercise the victim index");
        ftl.flush_coalesced(&mut ex, &mut NullObserver);
        assert_eq!(ftl.pending_coalesced_locks(), 0);
        ftl.check_invariants();
        // The O(1)-maintained aggregates agree with a fresh scan of reality.
        let mapped = (0..span).filter(|&l| ftl.mapped(l as Lpa).is_some()).count() as u64;
        assert_eq!(ftl.live_pages(), mapped);
        assert!(ftl.invalid_pages() > 0);
    }
}
