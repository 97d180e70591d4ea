//! Power-up recovery: the physical scan that rebuilds every RAM table
//! from on-flash state (see [`crate::recovery`] for the algorithm
//! overview). What to do about the stale secured pages it finds is decided
//! behind the sanitization seam.

use super::*;

impl Ftl {
    /// Rebuilds all RAM state from on-flash state after an unclean
    /// shutdown and re-establishes every lock lost mid-flight, *before*
    /// any host operation is served.
    ///
    /// Cumulative [`FtlStats`] are deliberately preserved: they are
    /// simulator-level observability, not FTL RAM state.
    pub fn recover<E: NandExecutor, O: FtlObserver>(
        &mut self,
        ex: &mut E,
        obs: &mut O,
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let ppb = self.cfg.geometry.pages_per_block();
        let n_blocks = self.cfg.geometry.blocks;
        self.events.arm(obs.listening());

        // Phase 0: forget everything RAM held. The on-flash truth wins.
        self.l2p = L2p::new(&self.cfg);
        for cs in &mut self.chips {
            *cs = ChipState::new(n_blocks, ppb);
            // The scan below decides which blocks are free.
            cs.free.clear();
        }
        self.next_chip = 0;
        // Rebuilt below from the on-flash grown-bad-block marks.
        self.mode = DegradedMode::Normal;
        // The deferred-lock queue died with RAM. Its pages are rediscovered
        // below as stale secured versions (sequence-contest losers) and
        // resealed through the policy's own mechanism.
        self.pending_locks.clear();

        // Best version of each logical page seen so far: (seq, at, secure).
        let mut winner: Vec<Option<(u64, GlobalPpa, bool)>> = vec![None; self.l2p.len()];
        // Every readable mapped page: (at, lpa, seq, secure).
        let mut candidates: Vec<(GlobalPpa, Lpa, u64, bool)> = Vec::new();
        // Decodable torn writes of secured data (never acknowledged).
        let mut orphans: Vec<GlobalPpa> = Vec::new();
        let mut max_seq = 0u64;

        // Phase 1: physical scan.
        for chip in 0..self.chips.len() {
            for b in 0..n_blocks {
                let bid = BlockId(b);
                let bp = ex.probe_block(chip, bid);

                // A grown-bad mark short-circuits everything: the block was
                // retired (its contents scrubbed at retirement) and never
                // re-enters circulation. The spare-area sentinel is the
                // persistent bad-block table.
                if bp.bad {
                    let cs = &mut self.chips[chip];
                    cs.blocks[b as usize].state = BlockState::Retired;
                    cs.retired += 1;
                    continue;
                }

                // A torn erase is finished first: its low-voltage flag
                // cells may already be clear while data pages survive, so
                // the block must be sealed before anything is served.
                // (A terminal erase failure retires the block instead —
                // either way the hazard is closed.)
                if bp.torn_erase {
                    if self.erase_block(ex, chip, b) {
                        self.chips[chip].free.push_back(b);
                    }
                    report.resealed_blocks += 1;
                    continue;
                }

                // A bLock — torn or complete — only ever covers dead data:
                // mark every occupied page invalid, then complete it if
                // torn (the runtime block settle, per-page locks and
                // scrubs as its fallbacks).
                if bp.lock.reads_locked() || bp.lock.is_torn() {
                    let cs = &mut self.chips[chip];
                    let base = (b * ppb) as usize;
                    for i in 0..bp.next_program as usize {
                        cs.mark_invalid(base + i, b);
                    }
                    cs.blocks[b as usize].written = bp.next_program;
                    if bp.next_program == 0 {
                        cs.free.push_back(b);
                    } else {
                        cs.blocks[b as usize].state = BlockState::Full;
                    }
                    if bp.lock.is_torn() {
                        let pages = (0..bp.next_program)
                            .map(|p| GlobalPpa::new(chip, Ppa { block: bid, page: PageId(p) }));
                        self.secure_block(ex, chip, b, pages);
                        report.reissued_blocks += 1;
                    }
                    continue;
                }

                if bp.next_program == 0 {
                    self.chips[chip].free.push_back(b);
                    continue;
                }

                // Page-by-page scan of the occupied prefix.
                for p in 0..bp.next_program {
                    let at = GlobalPpa::new(chip, Ppa { block: bid, page: PageId(p) });
                    let idx = self.flat(at.ppa);
                    let probe = ex.probe_page(at);
                    report.scanned_pages += 1;
                    self.stats.nand_reads += 1;
                    self.chips[chip].blocks[b as usize].written += 1;
                    self.chips[chip].mark_invalid(idx, b);

                    if probe.torn {
                        report.torn_writes += 1;
                        if probe.oob.is_some_and(|o| o.secure) {
                            report.orphaned_pages += 1;
                            orphans.push(at);
                        }
                        continue;
                    }
                    if probe.lock.is_torn() {
                        // The pLock's page is by definition a dead secured
                        // version; completing the lock sanitizes it.
                        self.plock_or_scrub(ex, at);
                        report.relocked_pages += 1;
                        continue;
                    }
                    if probe.lock.reads_locked() {
                        continue; // completed lock: sealed dead data
                    }
                    match probe.oob {
                        Some(oob) if (oob.lpa as usize) < winner.len() => {
                            max_seq = max_seq.max(oob.seq);
                            candidates.push((at, oob.lpa, oob.seq, oob.secure));
                            let w = &mut winner[oob.lpa as usize];
                            if w.is_none_or(|(ws, _, _)| oob.seq > ws) {
                                *w = Some((oob.seq, at, oob.secure));
                            }
                        }
                        // Garbage / destroyed / out-of-range OOB: stays
                        // Invalid.
                        _ => {}
                    }
                }
                // Partially-written blocks are sealed, not resumed: the
                // interrupted tail page makes in-order append unsafe.
                self.chips[chip].blocks[b as usize].state = BlockState::Full;
            }
        }
        self.seq = max_seq + 1;

        // Phase 2: commit the newest version of each logical page.
        for (lpa, won) in winner.iter().enumerate() {
            if let Some((_, at, secure)) = *won {
                // commit_mapping expects the slot not to be counted live yet.
                self.commit_mapping(lpa as Lpa, at, secure);
                report.rebuilt_mappings += 1;
            }
        }

        // Phase 3: classify fully-dead blocks as reclaimable (lazy erase).
        for cs in &mut self.chips {
            for b in 0..n_blocks {
                if cs.blocks[b as usize].state == BlockState::Full
                    && cs.blocks[b as usize].live == 0
                {
                    cs.blocks[b as usize].state = BlockState::Reclaimable;
                    cs.reclaimable.push_back(b);
                }
            }
        }

        // Phase 4: sanitize sequence-contest losers that carried the
        // secure mark, plus decodable secured orphans, through the active
        // policy's own mechanism.
        let mut to_sanitize: Vec<GlobalPpa> = Vec::new();
        for &(at, lpa, seq, secure) in &candidates {
            let lost = winner[lpa as usize] != Some((seq, at, secure));
            if lost && secure {
                report.stale_secured += 1;
                to_sanitize.push(at);
            }
        }
        to_sanitize.extend_from_slice(&orphans);
        self.reseal_after_recovery(ex, &to_sanitize);

        // Phase 5: re-derive the degraded mode from the rebuilt grown-bad
        // table (blocks retired during this recovery included).
        report.retired_blocks = u64::from(self.retired_block_count());
        for chip in 0..self.chips.len() {
            self.update_degraded(chip, ex.now());
        }

        // The rebuilt state is the new ground truth: reseal the metadata
        // guard (and settle any injected-but-undetected corruption — the
        // rebuild itself is the flash-side repair).
        self.guard_after_recover();

        self.events.drain_into(obs);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn recover_rebuilds_mapping_after_ram_loss() {
        // Crash with no in-flight op: recovery must reproduce the exact
        // pre-crash mapping from OOB metadata alone.
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        let logical = ftl.logical_pages();
        for round in 0..3u64 {
            for l in 0..logical {
                ftl.write(&mut ex, &mut NullObserver, l, l % 2 == 0, round * 100_000 + l);
            }
        }
        ftl.trim(&mut ex, &mut NullObserver, &[0, 1, 2]);
        let before: Vec<_> = (0..logical).map(|l| ftl.mapped(l)).collect();
        let report = ftl.recover(&mut ex, &mut NullObserver);
        ftl.check_invariants();
        // Secured trims (lpa 0, 2) are locked on flash and stay deleted.
        // The insecure trim (lpa 1) is advisory: its old version is still
        // readable on flash, so the scan legitimately resurrects it.
        assert_eq!(report.rebuilt_mappings, logical - 2);
        assert!(report.scanned_pages > 0);
        assert_eq!(ftl.mapped(0), None);
        assert_eq!(ftl.mapped(2), None);
        assert_eq!(ftl.read(&mut ex, 1).unwrap().tag(), 200_001);
        let after: Vec<_> = (0..logical).map(|l| ftl.mapped(l)).collect();
        assert_eq!(before[3..], after[3..], "recovery changed surviving mappings");
        for l in 3..logical {
            assert_eq!(ftl.read(&mut ex, l).unwrap().tag(), 200_000 + l);
        }
        // The device still takes writes after recovery.
        ftl.write(&mut ex, &mut NullObserver, 0, true, 555);
        assert_eq!(ftl.read(&mut ex, 0).unwrap().tag(), 555);
        ftl.check_invariants();
    }

    #[test]
    fn recover_completes_torn_plock() {
        // Power cut mid-pLock during a secure trim: the only version of the
        // page has a torn lock. Recovery completes the lock; the data is
        // unrecoverable and the mapping stays gone.
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 4242);
        let at = ftl.mapped(0).unwrap();
        ex.chips_mut()[at.chip].interrupt_p_lock(at.ppa, 0.5, 7).unwrap();
        let report = ftl.recover(&mut ex, &mut NullObserver);
        assert_eq!(report.relocked_pages, 1);
        assert_eq!(ftl.mapped(0), None);
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[at.chip], 4242));
        ftl.check_invariants();
    }

    #[test]
    fn recover_reerases_torn_erase_block() {
        // Power cut early in an erase: flag cells (low-voltage) are already
        // clear but the data survived — momentarily unlocked. Recovery must
        // finish the erase before serving anything.
        let cfg = FtlConfig::tiny_for_tests();
        let ppb = cfg.geometry.pages_per_block() as u64;
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        let lpas: Vec<Lpa> = (0..ppb).collect();
        for &l in &lpas {
            ftl.write(&mut ex, &mut NullObserver, l, true, 9000 + l);
        }
        ftl.trim(&mut ex, &mut NullObserver, &lpas); // one bLock
        assert_eq!(ftl.stats().blocks_locked, 1);
        // Interrupt an erase of the locked block at 20% of tBERS: past the
        // flag-wipe point, before the data-wipe point.
        ex.chips_mut()[0].interrupt_erase(BlockId(0), 0.2, 11).unwrap();
        let attacker = Attacker::new();
        assert!(
            attacker.recover_tag(&mut ex.chips_mut()[0], 9000),
            "the partial erase should have dropped the lock while data survives"
        );
        let report = ftl.recover(&mut ex, &mut NullObserver);
        assert_eq!(report.resealed_blocks, 1);
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 9000));
        ftl.check_invariants();
    }

    #[test]
    fn recover_retries_lock_verify_failures_with_backoff() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 1);
        let at = ftl.mapped(0).unwrap();
        ex.chips_mut()[at.chip].interrupt_p_lock(at.ppa, 0.5, 3).unwrap();
        // The first two re-issues fail program-verify; the third succeeds.
        ex.chips_mut()[at.chip].inject_lock_verify_failures(2);
        let report = ftl.recover(&mut ex, &mut NullObserver);
        assert_eq!(report.relocked_pages, 1);
        let s = ftl.stats();
        assert_eq!((s.plocks, s.plock_retries, s.lock_scrub_fallbacks), (3, 2, 0));
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[at.chip], 1));
    }

    #[test]
    fn recover_falls_back_to_scrub_after_retry_budget() {
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 1);
        let at = ftl.mapped(0).unwrap();
        ex.chips_mut()[at.chip].interrupt_p_lock(at.ppa, 0.5, 3).unwrap();
        // Every re-issue fails: recovery must not loop forever.
        ex.chips_mut()[at.chip].inject_lock_verify_failures(100);
        ftl.recover(&mut ex, &mut NullObserver);
        let s = ftl.stats();
        assert_eq!((s.plocks, s.plock_retries, s.lock_scrub_fallbacks), (4, 3, 1));
        assert_eq!(s.plock_escalations, 0, "recovery never relocates");
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[at.chip], 1), "scrub fallback");
        ftl.check_invariants();
    }

    #[test]
    fn recover_completes_torn_block_lock() {
        // Power cut mid-bLock of a whole-block secure trim: every page of
        // the block is dead and its SSL is torn. Recovery completes the
        // lock through the runtime block settle; with the bLock's verify
        // failing past its budget it demotes to per-page locks.
        let cfg = FtlConfig { n_chips: 1, ..FtlConfig::tiny_for_tests() };
        let ppb = cfg.geometry.pages_per_block() as u64;
        for verify_failures in [0, 3] {
            let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
            let lpas: Vec<Lpa> = (0..ppb).collect();
            for &l in &lpas {
                ftl.write(&mut ex, &mut NullObserver, l, true, 7000 + l);
            }
            assert!(lpas.iter().all(|&l| ftl.mapped(l).unwrap().ppa.block == BlockId(0)));
            ex.chips_mut()[0].interrupt_b_lock(BlockId(0), 0.5, 5).unwrap();
            assert!(ex.probe_block(0, BlockId(0)).lock.is_torn(), "the cut must tear the SSL");
            ex.chips_mut()[0].inject_lock_verify_failures(verify_failures);
            let report = ftl.recover(&mut ex, &mut NullObserver);
            assert_eq!(report.reissued_blocks, 1);
            assert!(lpas.iter().all(|&l| ftl.mapped(l).is_none()), "a bLock covers dead data");
            let s = ftl.stats();
            let rungs = (s.blocks_locked, s.block_lock_retries, s.block_lock_fallbacks, s.plocks);
            if verify_failures == 0 {
                assert_eq!(rungs, (1, 0, 0, 0), "{s:?}");
            } else {
                assert_eq!(rungs, (3, 2, 1, ppb), "demoted to one pLock per page: {s:?}");
            }
            assert_eq!((s.plock_retries, s.lock_scrub_fallbacks), (0, 0));
            let f = ex.fault_totals();
            assert_eq!(f.block_lock_failures, s.block_lock_retries + s.block_lock_fallbacks);
            let attacker = Attacker::new();
            for &l in &lpas {
                assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 7000 + l));
            }
            ftl.check_invariants();
        }
    }

    #[test]
    fn recover_sanitizes_torn_secure_overwrite_orphan() {
        // Power cut mid-program of a secure overwrite, late enough that the
        // partial page decodes: the old version must win the seq contest and
        // the unacknowledged orphan must not be attacker-readable.
        let (mut ftl, mut ex) = setup_one_chip(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 100);
        let old = ftl.mapped(0).unwrap();
        // Hand-craft the torn overwrite on the next append slot.
        let next = GlobalPpa::new(0, Ppa::new(0, 1));
        let data = PageData::tagged(200).with_oob(PageOob { lpa: 0, secure: true, seq: 999 });
        ex.chips_mut()[0].interrupt_program(next.ppa, data, 0.9).unwrap();
        let report = ftl.recover(&mut ex, &mut NullObserver);
        assert_eq!(report.torn_writes, 1);
        assert_eq!(report.orphaned_pages, 1);
        // The acknowledged old version is still served...
        assert_eq!(ftl.mapped(0), Some(old));
        assert_eq!(ftl.read(&mut ex, 0).unwrap().tag(), 100);
        // ...and the torn orphan is sealed against forensics.
        let attacker = Attacker::new();
        assert!(!attacker.recover_tag(&mut ex.chips_mut()[0], 200));
        ftl.check_invariants();
    }

    #[test]
    fn recovery_rebuilds_bad_block_table_and_degraded_mode() {
        let faults = FaultConfig { erase_fail: 1.0, seed: 11, ..FaultConfig::none() };
        let (mut ftl, mut ex) = setup_faulty(SanitizePolicy::erase_based(), faults);
        for (l, tag) in [(0u64, 10u64), (1, 20), (2, 30)] {
            ftl.write(&mut ex, &mut NullObserver, l, true, tag);
        }
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        assert_eq!(ftl.retired_block_count(), 1);
        // Power cycle: all RAM state (mapping, bad-block table, mode) lost.
        let cfg = FtlConfig { n_chips: 1, faults, ..FtlConfig::tiny_for_tests() };
        let mut fresh = Ftl::new(cfg, SanitizePolicy::erase_based());
        let report = fresh.recover(&mut ex, &mut NullObserver);
        assert_eq!(report.retired_blocks, 1, "table rebuilt from spare-area marks");
        assert_eq!(fresh.retired_block_count(), 1);
        assert_eq!(fresh.degraded(), DegradedMode::SpareLow);
        assert_eq!(fresh.read(&mut ex, 1).unwrap().tag(), 20);
        assert_eq!(fresh.read(&mut ex, 2).unwrap().tag(), 30);
        fresh.check_invariants();
    }
}
