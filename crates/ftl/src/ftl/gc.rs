//! Garbage collection: victim selection by one scan of the block table,
//! and live-page relocation (shared with every sanitization path that has
//! to move data before destroying it).

use super::*;
use crate::config::GcVictimPolicy;

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
        // One pass over the block table per GC pass: candidacy is read from
        // `state` and `live`, which every page op keeps current anyway.
        let cs = &self.chips[chip];
        let candidates = (0..).zip(&cs.blocks).filter(|&(id, m)| {
            m.state == BlockState::Full && m.live < ppb && !cs.gc_in_progress.contains(&id)
        });
        let victim = match policy {
            GcVictimPolicy::Greedy => candidates.min_by_key(|&(id, m)| (m.live, id)).map(|c| c.0),
            // Ascending ids and a strict comparison: ties go to the lowest.
            GcVictimPolicy::CostBenefit => candidates
                .map(|(id, m)| (id, victim_score(policy, ppb, now, m)))
                .reduce(|best, c| if c.1 > best.1 { c } else { best })
                .map(|c| c.0),
        };
        #[cfg(test)]
        tests::PICKS.with_borrow_mut(|p| {
            p.push((cs.blocks.clone(), cs.gc_in_progress.clone(), victim));
        });
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
            f.chips[chip].gc_in_progress.push(victim);
            // A recycled buffer: one GC pass per few host requests would
            // otherwise allocate (and regrow) a vector each.
            let mut secured_olds = std::mem::take(&mut f.gc_scratch);
            f.relocate_live_pages(ex, chip, victim, &mut secured_olds);
            let done = f.chips[chip].gc_in_progress.pop();
            debug_assert_eq!(done, Some(victim), "nested GC passes finish innermost first");

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
                    cs.blocks[victim as usize].state = BlockState::Reclaimable;
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
        self.events.push(ObserverEvent::Program { lpa, at: new_at, secure });
        self.chips[chip].mark_invalid(idx, old.ppa.block.0);
        let sanitized = destroyed || (self.policy.is_immediate() && secure);
        let cause = InvalidateCause::GcCopy;
        self.events.push(ObserverEvent::Invalidate { at: old, secure, sanitized, cause });
        Some(secure)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::decision::{Decision, DecisionLevel};
    use std::cell::RefCell;

    /// One victim choice: the chip's block table and in-progress list as
    /// the scan saw them, and what it picked.
    type Pick = (Vec<BlockMeta>, Vec<u32>, Option<u32>);

    thread_local! {
        /// Every victim choice of this test thread.
        pub(super) static PICKS: RefCell<Vec<Pick>> = const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn greedy_victims_are_the_brute_force_minimum_even_when_nested() {
        // Erase failures retire blocks out of a one-block reserve until a
        // GC pass finds its open block full and no block to spare: the
        // relocation's allocation runs GC inside GC. A nested greedy pass
        // can only pick a victim with live pages too, so the nesting
        // recurses until the chip runs out of blocks (an open defect);
        // every pick down to that one is checked.
        let faults = FaultConfig { erase_fail: 0.1, seed: 1, ..FaultConfig::none() };
        let cfg = FtlConfig { gc_free_threshold: 1, faults, ..FtlConfig::tiny_for_tests() };
        let mut ftl = Ftl::new(cfg, SanitizePolicy::evanesco());
        let mut ex = MemExecutor::with_faults(cfg.geometry, cfg.n_chips, faults);
        ftl.enable_decision_log(1 << 16, DecisionLevel::Info);
        let logical = ftl.logical_pages();
        let mut x = 0x9E37u64;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..4 * logical {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ftl.write(&mut ex, &mut NullObserver, (x >> 33) % logical, i % 3 != 0, i);
            }
        }));
        let picks = PICKS.take();
        assert!(picks.iter().filter(|p| !p.1.is_empty()).count() > 5, "GC must nest");
        let ppb = cfg.geometry.pages_per_block();
        for (blocks, busy, victim) in &picks {
            let brute = (0..blocks.len() as u32)
                .filter(|&b| {
                    let m = blocks[b as usize];
                    m.state == BlockState::Full && m.live < ppb && !busy.contains(&b)
                })
                .min_by_key(|&b| (blocks[b as usize].live, b));
            assert_eq!(*victim, brute, "in progress {busy:?}");
        }
        let logged: Vec<u32> = ftl
            .decision_log()
            .records()
            .filter_map(|r| match r.decision {
                Decision::GcVictim { block, .. } => Some(block),
                _ => None,
            })
            .collect();
        let picked: Vec<u32> = picks.iter().filter_map(|p| p.2).collect();
        assert_eq!(logged, picked, "every logged victim is a checked pick");
    }

    #[test]
    fn cost_benefit_ties_go_to_the_lowest_block_id() {
        let cfg = FtlConfig {
            n_chips: 1,
            gc_victim: GcVictimPolicy::CostBenefit,
            ..FtlConfig::tiny_for_tests()
        };
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::none());
        // Two dead blocks, equal in every term of the score.
        let ppb = cfg.geometry.pages_per_block();
        for b in [9, 4] {
            let dead = BlockMeta {
                state: BlockState::Full,
                invalid: ppb,
                written: ppb,
                ..BlockMeta::EMPTY
            };
            ftl.chips[0].blocks[b] = dead;
        }
        assert!(ftl.gc_once(&mut ex, 0));
        assert_eq!(PICKS.take().last().map(|p| p.2), Some(Some(4)));
        assert_eq!(ftl.chips[0].blocks[4].state, BlockState::Reclaimable);
        assert_eq!(ftl.chips[0].blocks[9].state, BlockState::Full);
    }

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
        // O(chips) live/invalid totals must stay in lockstep with the
        // ground-truth page scan the whole way.
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
        assert!(ftl.stats().gc_invocations > 0, "churn must exercise GC");
        ftl.flush_coalesced(&mut ex, &mut NullObserver);
        assert_eq!(ftl.pending_coalesced_locks(), 0);
        ftl.check_invariants();
        // The O(1)-maintained aggregates agree with a fresh scan of reality.
        let mapped = (0..span).filter(|&l| ftl.mapped(l as Lpa).is_some()).count() as u64;
        assert_eq!(ftl.live_pages(), mapped);
        assert!(ftl.invalid_pages() > 0);
    }
}
