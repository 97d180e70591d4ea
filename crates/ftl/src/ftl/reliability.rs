//! Reliability manager: the FTL's one retry loop and the lock ladders
//! built on it (runtime and power-up recovery alike), program-failure
//! remap, grown-bad-block retirement, and the degraded-mode state machine.

use super::*;
use crate::decision::EscalationRung;

/// Extra `pLock` attempts after a verify failure before the caller picks
/// the next rung (block-level escalation, or a scrub).
const PLOCK_RETRY_BUDGET: u32 = 3;
/// Extra `bLock` attempts before falling back to per-page locks or an
/// immediate erase.
const BLOCK_RETRY_BUDGET: u32 = 2;
/// Extra `erase` attempts before retiring the block as grown-bad.
const ERASE_RETRY_BUDGET: u32 = 1;
/// Base of the exponential retry back-off (`BACKOFF_BASE << attempt`).
const BACKOFF_BASE: Nanos = Nanos::from_micros(100);

/// Service level of the drive under grown-bad-block pressure (the
/// degraded-mode state machine: `Normal → SpareLow → ReadOnly`, never
/// backwards except through a full recovery rebuild).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Full service.
    #[default]
    Normal,
    /// Some chip's spare-block reserve fell to its low watermark; service
    /// continues but the drive should be replaced.
    SpareLow,
    /// Some chip exhausted its spare reserve: host writes are rejected;
    /// reads, trims, and sanitization still run (deleting data must keep
    /// working on a dying drive).
    ReadOnly,
}

impl Ftl {
    /// Current degraded-mode service level.
    pub fn degraded(&self) -> DegradedMode {
        self.mode
    }

    /// Size of the grown-bad-block table (retired blocks across all chips).
    pub fn retired_block_count(&self) -> u32 {
        self.chips.iter().map(|c| c.retired).sum()
    }

    /// The FTL's one retry loop: issues a command on `chip` up to
    /// `1 + budget` times, backing off exponentially between attempts.
    /// Returns whether its status register reported success and how many
    /// commands were issued (every one but the last was answered with a
    /// retry).
    fn with_retry<E: NandExecutor>(
        ex: &mut E,
        chip: usize,
        budget: u32,
        mut issue: impl FnMut(&mut E) -> bool,
    ) -> (bool, u64) {
        for attempt in 0..=budget {
            if issue(ex) {
                return (true, u64::from(attempt) + 1);
            }
            if attempt < budget {
                ex.stall(chip, Nanos(BACKOFF_BASE.0 << attempt));
            }
        }
        (false, u64::from(budget) + 1)
    }

    /// Erases `block` with bounded, backed-off retries. Returns whether the
    /// erase succeeded; retirement on failure is the caller's rung.
    pub(super) fn erase_with_retry<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
    ) -> bool {
        let (ok, issued) = Self::with_retry(ex, chip, ERASE_RETRY_BUDGET, |ex| {
            ex.erase(chip, BlockId(block)).is_ok()
        });
        self.stats.nand_erases += issued;
        self.stats.erase_retries += issued - 1;
        ok
    }

    /// Issues one `pLock` with bounded, backed-off retries. Returns whether
    /// the flag verified. Does not escalate — callers pick the next rung.
    fn plock_with_retry<E: NandExecutor>(&mut self, ex: &mut E, at: GlobalPpa) -> bool {
        let (ok, issued) =
            Self::with_retry(ex, at.chip, PLOCK_RETRY_BUDGET, |ex| ex.p_lock(at).is_ok());
        self.stats.plocks += issued;
        self.stats.plock_retries += issued - 1;
        ok
    }

    /// `bLock` with bounded, backed-off retries. Returns verify success;
    /// counts the terminal failure as a fallback.
    fn block_lock_with_retry<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
    ) -> bool {
        let (ok, issued) = Self::with_retry(ex, chip, BLOCK_RETRY_BUDGET, |ex| {
            ex.b_lock(chip, BlockId(block)).is_ok()
        });
        self.stats.blocks_locked += issued;
        self.stats.block_lock_retries += issued - 1;
        self.stats.block_lock_fallbacks += u64::from(!ok);
        ok
    }

    /// Whether `at` still needs a lock: an earlier escalation in the same
    /// batch may already have erased, scrubbed, or even recycled the slot.
    fn still_dead(&self, at: GlobalPpa) -> bool {
        self.chips[at.chip].status[self.flat(at.ppa)] == PageStatus::Invalid
    }

    fn note_escalation<E: NandExecutor>(
        &mut self,
        ex: &E,
        chip: usize,
        block: u32,
        rung: EscalationRung,
    ) {
        self.note_decision(ex, Decision::Escalation { chip, block, rung });
    }

    /// Secures one dead page — the hot-path escalation ladder: `pLock`
    /// retries, then block-level escalation (relocate + `bLock`, erase as
    /// last resort). On return the page is never host-readable.
    pub(super) fn secure_page<E: NandExecutor>(&mut self, ex: &mut E, at: GlobalPpa) {
        if !self.still_dead(at) || self.plock_with_retry(ex, at) {
            return;
        }
        self.stats.plock_escalations += 1;
        let (chip, block) = (at.chip, at.ppa.block.0);
        self.note_escalation(ex, chip, block, EscalationRung::PlockExhausted);
        self.scoped(ex, OpCause::Retry, |f, ex| f.escalate_block(ex, chip, block));
    }

    /// Terminal per-page rung inside a failed block-level settle, and
    /// power-up recovery's per-page lock: `pLock` retries, then an in-place
    /// scrub (infallible — the partial pulse physically destroys the
    /// wordline's charge). Never relocates.
    pub(super) fn plock_or_scrub<E: NandExecutor>(&mut self, ex: &mut E, at: GlobalPpa) {
        if !self.still_dead(at) || self.plock_with_retry(ex, at) {
            return;
        }
        self.stats.lock_scrub_fallbacks += 1;
        self.note_escalation(ex, at.chip, at.ppa.block.0, EscalationRung::ScrubFallback);
        ex.scrub(at);
        self.stats.scrubs += 1;
    }

    /// Settles a batch of dead secured pages of one block with a `bLock`,
    /// demoting to per-page locks (scrub as last resort) when the SSL
    /// program keeps failing its verify.
    pub(super) fn secure_block<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
        pages: impl Iterator<Item = GlobalPpa>,
    ) {
        if self.block_lock_with_retry(ex, chip, block) {
            return;
        }
        self.note_escalation(ex, chip, block, EscalationRung::BlockLockDemoted);
        for at in pages {
            self.plock_or_scrub(ex, at);
        }
    }

    /// Block-level escalation after a page's `pLock` ladder is exhausted:
    /// stop appending to the block, relocate its live pages, then `bLock`
    /// the whole block; if even that fails, erase it immediately (the
    /// erSSD fallback — which retires the block if the erase fails too).
    fn escalate_block<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, block: u32) {
        self.chips[chip].close_if_active(block);
        if self.block_meta(chip, block).live > 0 {
            // The relocation burst consumes pages; reserve headroom first.
            self.ensure_space(ex, chip, self.cfg.gc_free_threshold + 1);
            // The reservation GC may have consumed (or retired) the block:
            // the offending page is then already physically gone.
            if !self.block_meta(chip, block).holds_data() {
                return;
            }
            let before = self.stats.copied_pages;
            self.relocate_live_pages(ex, chip, block, &mut Vec::new());
            self.stats.reliability_relocations += self.stats.copied_pages - before;
        }
        if !self.block_meta(chip, block).holds_data() {
            return;
        }
        if self.block_lock_with_retry(ex, chip, block) {
            let cs = &mut self.chips[chip];
            if cs.blocks[block as usize].state == BlockState::Full {
                cs.blocks[block as usize].state = BlockState::Reclaimable;
                cs.reclaimable.push_back(block);
            }
            return;
        }
        // erSSD rung: physically destroy the block's contents now.
        self.note_escalation(ex, chip, block, EscalationRung::SanitizeErase);
        self.sanitize_erase(ex, chip, block);
    }

    /// Quarantines the slot consumed by a failed program: the page holds a
    /// torn remnant of the payload. If the payload was secure-class the
    /// remnant is destroyed on the spot (a torn page can still decode).
    pub(super) fn note_program_failure<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        at: GlobalPpa,
        secure: bool,
    ) {
        self.stats.program_fail_remaps += 1;
        let idx = self.flat(at.ppa);
        self.chips[at.chip].mark_invalid(idx, at.ppa.block.0);
        if secure {
            ex.scrub(at);
            self.stats.scrubs += 1;
        }
    }

    /// Retires a block as grown-bad: scrubs every written page (the erase
    /// pulse no longer completes, but single-wordline scrub pulses still
    /// destroy charge, so no remnant survives), programs the spare-area
    /// retirement sentinel, removes the block from circulation, and
    /// re-evaluates the degraded mode.
    pub(super) fn retire_block<E: NandExecutor>(&mut self, ex: &mut E, chip: usize, id: u32) {
        // Retirement is the fault ladder's terminal rung.
        self.scoped(ex, OpCause::Retry, |f, ex| {
            let written = ex.probe_block(chip, BlockId(id)).next_program;
            for p in 0..written {
                ex.scrub(GlobalPpa::new(chip, Ppa { block: BlockId(id), page: PageId(p) }));
                f.stats.scrubs += 1;
            }
            ex.mark_bad(chip, BlockId(id));
        });
        self.detach_block(chip, id);
        let cs = &mut self.chips[chip];
        cs.blocks[id as usize].state = BlockState::Retired;
        cs.retired += 1;
        self.stats.retired_blocks += 1;
        self.note_decision(ex, Decision::BlockRetired { chip, block: id });
        self.update_degraded(chip, ex.now());
    }

    /// Re-derives the degraded mode from `chip`'s retired count. The mode
    /// only escalates at runtime; recovery rebuilds it from scratch.
    /// `now` timestamps the transition in the decision log.
    pub(super) fn update_degraded(&mut self, chip: usize, now: Nanos) {
        let res = &self.cfg.reliability;
        let used = self.chips[chip].retired as usize;
        let from = self.mode;
        if used >= res.spare_blocks {
            self.mode = DegradedMode::ReadOnly;
        } else if res.spare_blocks - used <= res.spare_low_watermark
            && self.mode == DegradedMode::Normal
        {
            self.mode = DegradedMode::SpareLow;
        }
        if self.mode != from {
            self.decisions.record(
                now,
                self.stats.host_write_pages,
                Decision::DegradedTransition { from, to: self.mode },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn plock_retry_absorbs_transient_verify_failures() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 10);
        ftl.write(&mut ex, &mut NullObserver, 1, true, 20);
        // Two forced verify failures: within the retry budget of 3.
        ex.chips_mut()[0].inject_lock_verify_failures(2);
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        let s = ftl.stats();
        assert_eq!(s.plocks, 3, "two failed attempts plus the success");
        assert_eq!(s.plock_retries, 2);
        assert_eq!(s.plock_escalations, 0);
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 10));
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 20);
        ftl.check_invariants();
    }

    #[test]
    fn plock_exhaustion_escalates_to_block_settlement() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 10);
        ftl.write(&mut ex, &mut NullObserver, 1, true, 20);
        // Exhaust the pLock ladder (budget 3 -> 4 attempts); the subsequent
        // bLock succeeds.
        ex.chips_mut()[0].inject_lock_verify_failures(4);
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        let s = ftl.stats();
        assert_eq!(s.plocks, 4);
        assert_eq!(s.plock_retries, 3);
        assert_eq!(s.plock_escalations, 1);
        assert_eq!(s.blocks_locked, 1, "escalation settles the block with one bLock");
        assert_eq!(s.reliability_relocations, 1, "live sibling moved out first");
        // The injected hazards are fully accounted for by the responses.
        let f = ex.fault_totals();
        assert_eq!(f.plock_failures, s.plock_retries + s.plock_escalations);
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 10));
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 20, "relocated page survives");
        ftl.check_invariants();
    }

    #[test]
    fn block_lock_fallback_demotes_to_per_page_locks() {
        let cfg = FtlConfig { n_chips: 1, ..FtlConfig::tiny_for_tests() };
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        let lpas: Vec<Lpa> = (0..ppb).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, true, l);
        }
        // Exhaust the bLock ladder (budget 2 -> 3 attempts); per-page locks
        // then succeed.
        ex.chips_mut()[0].inject_lock_verify_failures(3);
        ftl.trim(&mut ex, &mut NullObserver, &lpas);
        let s = ftl.stats();
        assert_eq!(s.blocks_locked, 3);
        assert_eq!(s.block_lock_retries, 2);
        assert_eq!(s.block_lock_fallbacks, 1);
        assert_eq!(s.plocks, ppb, "every dead page sealed individually");
        assert_eq!(s.lock_scrub_fallbacks, 0);
        assert_eq!(ex.fault_totals().block_lock_failures, 3);
        let attacker = Attacker::new();
        for &l in &lpas {
            assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], l));
        }
        ftl.check_invariants();
    }

    #[test]
    fn erase_failure_retires_block_after_relocating_live_pages() {
        let faults = FaultConfig { erase_fail: 1.0, seed: 11, ..FaultConfig::none() };
        let (mut ftl, mut ex) = setup_faulty(SanitizePolicy::erase_based(), faults);
        for (l, tag) in [(0u64, 10u64), (1, 20), (2, 30)] {
            ftl.write(&mut ex, &mut NullObserver, l, true, tag);
        }
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        let s = ftl.stats();
        assert_eq!(s.erase_retries, 1, "one backed-off retry before giving up");
        assert_eq!(s.retired_blocks, 1);
        assert_eq!(s.sanitize_erases, 0, "the erase never succeeded");
        assert!(s.copied_pages >= 2, "live pages relocated before the erase: {s:?}");
        assert_eq!(ftl.retired_block_count(), 1);
        assert_eq!(ftl.degraded(), DegradedMode::SpareLow, "one of two spares consumed");
        // Retirement scrubs every written page of the dead block.
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 10));
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 20);
        assert_eq!(ftl.read(&mut ex, 2).unwrap().tag(), 30);
        // Both erase attempts were injected faults.
        assert_eq!(ex.fault_totals().erase_failures, 2);
        ftl.check_invariants();
    }

    #[test]
    fn spare_exhaustion_enters_read_only_mode() {
        let faults = FaultConfig { erase_fail: 1.0, seed: 11, ..FaultConfig::none() };
        let (mut ftl, mut ex) = setup_faulty(SanitizePolicy::erase_based(), faults);
        for (l, tag) in [(0u64, 10u64), (1, 20), (2, 30)] {
            ftl.write(&mut ex, &mut NullObserver, l, true, tag);
        }
        ftl.trim(&mut ex, &mut NullObserver, &[0]); // retires block 0
        assert_eq!(ftl.degraded(), DegradedMode::SpareLow);
        ftl.trim(&mut ex, &mut NullObserver, &[1]); // retires the next block
        assert_eq!(ftl.retired_block_count(), 2);
        assert_eq!(ftl.degraded(), DegradedMode::ReadOnly, "spare reserve exhausted");
        // Host writes are rejected; reads still serve.
        assert!(!ftl.write(&mut ex, &mut NullObserver, 7, false, 70));
        assert_eq!(ftl.stats().writes_rejected_readonly, 1);
        assert_eq!(ftl.mapped(7), None);
        assert_eq!(ftl.read(&mut ex, 2).unwrap().tag(), 30);
        // The accounting identity holds: every injected erase failure is an
        // FTL retry or a retirement.
        let s = ftl.stats();
        assert_eq!(ex.fault_totals().erase_failures, s.erase_retries + s.retired_blocks);
        ftl.check_invariants();
    }

    #[test]
    fn program_failure_remaps_and_destroys_secure_remnant() {
        let faults = FaultConfig { program_fail: 0.5, seed: 3, ..FaultConfig::none() };
        let (mut ftl, mut ex) = setup_faulty(SanitizePolicy::evanesco(), faults);
        for l in 0..30u64 {
            assert!(ftl.write(&mut ex, &mut NullObserver, l, true, 1000 + l));
        }
        for l in 0..30u64 {
            assert_eq!(ftl.read(&mut ex, l).unwrap().tag(), 1000 + l, "remap preserved data");
        }
        let s = ftl.stats();
        assert!(s.program_fail_remaps > 0, "p=0.5 over 30 writes must fail sometimes");
        // Every injected program failure is one remap, and every secure
        // remnant was destroyed on the spot.
        assert_eq!(ex.fault_totals().program_failures, s.program_fail_remaps);
        assert_eq!(s.scrubs, s.program_fail_remaps);
        ftl.check_invariants();
    }
}
