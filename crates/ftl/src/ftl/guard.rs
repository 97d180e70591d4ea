//! Metadata-integrity guard: shadow checksums over every FTL RAM table, a
//! background audit scrubber that cross-checks RAM against on-flash OOB
//! between host operations, and the deterministic corruption injector that
//! exercises both.
//!
//! The protocol is a strict bracket around every host operation:
//!
//! * **pre-op** ([`Ftl::guard_preop`]): verify every table against its seal
//!   and repair any divergence *before* the operation is served — the FTL
//!   never serves from a table that failed its check — then advance the
//!   audit scrubber by one block.
//! * **post-op** ([`Ftl::guard_postop`]): reseal every table over the
//!   now-current state, then (maybe) inject the next corruption. The seal
//!   always reflects the truth, so an injection is guaranteed to be caught
//!   at the next pre-op or at [`Ftl::guard_finalize`].
//!
//! Repair is classified per table. Derived structures (the live/invalid
//! counters) are re-derived from the page status table in RAM; authoritative structures (L2P map, coalescing queue, bad-block
//! table) fall back to the full power-up recovery scan, rebuilding from
//! on-flash OOB; a sealed trim-tombstone filter then prunes any mapping
//! the scan resurrected from insecurely trimmed (still readable) flash,
//! keeping the repair invisible to the host. A repair that still fails
//! the consistency check degrades
//! the drive to [`DegradedMode::ReadOnly`] — the existing watermark
//! machinery — rather than silently serving wrong mappings.
//!
//! Corruption draws are keyed on `(seed, op-boundary ordinal)` alone, never
//! on wall-clock or dispatch order, so a qd1 and a qd8 run of the same host
//! sequence inject — and repair — identically.

use super::*;
use evanesco_core::fault::{
    CorruptTarget, CorruptionConfig, CorruptionHit, CorruptionModel, CorruptionStats,
};
use evanesco_nand::math::{fnv1a, FNV1A_OFFSET};

/// FNV-1a 64-bit accumulator for the table seals. Not cryptographic — the
/// threat model is accidental bit corruption, not an adversary forging a
/// table and its checksum together (see DESIGN.md §14).
struct Seal(u64);

impl Seal {
    fn new() -> Self {
        Seal(FNV1A_OFFSET)
    }

    fn u64(&mut self, v: u64) {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
    }

    fn gppa(&mut self, at: GlobalPpa) {
        self.u64(at.chip as u64);
        self.u64(u64::from(at.ppa.block.0));
        self.u64(u64::from(at.ppa.page.0));
    }

    fn done(self) -> u64 {
        self.0
    }
}

/// Seal slots, indexed to match [`CorruptTarget::ALL`]; the last target,
/// GC candidacy, is a block counter and shares the counters' seal.
const N_SEALS: usize = 4;

/// The guard state riding alongside the FTL (RAM-only, never checkpointed).
#[derive(Debug, Clone)]
pub(crate) struct MetaGuard {
    /// Deterministic corruption injector (rate 0 = armor without attack).
    model: CorruptionModel,
    /// Shadow checksums, one per guarded table, resealed at every post-op.
    seals: [u64; N_SEALS],
    /// Flat audit-scrub cursor: `chip * blocks_per_chip + block`.
    cursor: u64,
    /// Trim tombstone filter: one bit per logical page, set when the
    /// sealed L2P truth has that page deliberately unmapped. Flash OOB
    /// cannot represent an *insecure* delete (the page stays readable
    /// with valid metadata — a real FTL persists trims in its mapping
    /// journal), so a mid-run repair that rebuilds from the recovery
    /// scan would resurrect insecurely trimmed data. The filter prunes
    /// those resurrections right after the rebuild. Deliberately NOT
    /// consulted by genuine post-power-cut recovery, where the filter
    /// is stale and flash-only rebuild semantics are the contract.
    unmapped: Vec<u64>,
    /// An injection landed after the last verify and has not been settled
    /// yet (used to account injections wiped by a power cut: the recovery
    /// rebuild is their repair).
    pending: bool,
    /// Test hook: the next pre-op declares the state unrecoverable.
    force_unrecoverable: bool,
}

impl Ftl {
    /// Arms the metadata-integrity guard: seals every table and starts the
    /// audit scrubber and the corruption injector (`cfg.rate == 0` runs the
    /// armor without any attack). Purely RAM-side: the guard is never
    /// checkpointed, and a recovered FTL reseals from its rebuilt state.
    pub fn enable_guard(&mut self, cfg: CorruptionConfig) {
        self.guard = Some(Box::new(MetaGuard {
            model: CorruptionModel::new(cfg),
            seals: [0; N_SEALS],
            cursor: 0,
            pending: false,
            force_unrecoverable: false,
            unmapped: Vec::new(),
        }));
        self.guard_reseal();
    }

    /// Whether the guard is armed.
    pub fn guard_enabled(&self) -> bool {
        self.guard.is_some()
    }

    /// The injector's own accounting (`None` when the guard is off). The
    /// chaos gate cross-checks this against [`FtlStats`].
    pub fn guard_corruption_stats(&self) -> Option<CorruptionStats> {
        self.guard.as_ref().map(|g| g.model.stats())
    }

    /// Test hook: the next [`Ftl::guard_preop`] treats the state as an
    /// unrecoverable corruption and degrades to read-only (accounted as one
    /// injected + detected + unrecoverable event, keeping the identity).
    pub fn guard_force_unrecoverable(&mut self) {
        if let Some(g) = self.guard.as_mut() {
            g.force_unrecoverable = true;
        }
    }

    /// Recomputes every seal over the current state. Call after any
    /// out-of-band mutation between op brackets (quiesce flush, recovery).
    pub fn guard_reseal(&mut self) {
        if self.guard.is_none() {
            return;
        }
        let seals = self.compute_seals();
        let mut bits = std::mem::take(&mut self.guard.as_mut().expect("guard armed").unmapped);
        bits.clear();
        bits.resize(self.l2p.len().div_ceil(64), 0);
        for i in 0..self.l2p.len() {
            if self.l2p.get(i).is_none() {
                bits[i / 64] |= 1u64 << (i % 64);
            }
        }
        let g = self.guard.as_mut().expect("guard armed");
        g.seals = seals;
        g.unmapped = bits;
    }

    /// Pre-op gate: verify + repair, then one audit-scrub step. Must run
    /// before serving each host operation.
    pub fn guard_preop<E: NandExecutor, O: FtlObserver>(&mut self, ex: &mut E, obs: &mut O) {
        let Some(g) = self.guard.as_mut() else { return };
        if std::mem::take(&mut g.force_unrecoverable) {
            g.pending = false;
            g.model.note_injected(CorruptTarget::L2pMap);
            self.stats.meta_corruptions_injected += 1;
            self.stats.meta_corruptions_detected += 1;
            self.stats.meta_unrecoverable += 1;
            self.mode = DegradedMode::ReadOnly;
            self.guard_reseal();
            return;
        }
        self.guard_verify_and_repair(ex, obs);
        self.guard_audit_step(ex, obs);
    }

    /// Post-op: reseal every table over the (now mutated) state, then maybe
    /// inject the next corruption. Must run after each host operation.
    pub fn guard_postop(&mut self) {
        if self.guard.is_none() {
            return;
        }
        self.guard_reseal();
        let Some(hit) = self.guard.as_mut().expect("guard armed").model.next_boundary() else {
            return;
        };
        let target = self.apply_corruption(hit);
        self.stats.meta_corruptions_injected += 1;
        let g = self.guard.as_mut().expect("guard armed");
        g.model.note_injected(target);
        g.pending = true;
    }

    /// End-of-run settlement: verify + repair without injecting, so every
    /// injected corruption is accounted before results are read.
    pub fn guard_finalize<E: NandExecutor, O: FtlObserver>(&mut self, ex: &mut E, obs: &mut O) {
        if self.guard.is_none() {
            return;
        }
        self.guard_verify_and_repair(ex, obs);
    }

    /// Called at the end of [`Ftl::recover`]: the rebuilt state is the new
    /// ground truth. An injection that was still pending (e.g. wiped by a
    /// power cut before its pre-op) is settled here — the flash-side
    /// rebuild *is* its repair, and is accounted as corrected-from-OOB.
    pub(super) fn guard_after_recover(&mut self) {
        let Some(g) = self.guard.as_mut() else { return };
        if std::mem::take(&mut g.pending) {
            self.stats.meta_corruptions_detected += 1;
            self.stats.meta_repairs_from_oob += 1;
        }
        self.guard_reseal();
    }

    // -----------------------------------------------------------------
    // Verify / repair
    // -----------------------------------------------------------------

    fn guard_verify_and_repair<E: NandExecutor, O: FtlObserver>(
        &mut self,
        ex: &mut E,
        obs: &mut O,
    ) {
        let expected = self.guard.as_ref().expect("guard armed").seals;
        let actual = self.compute_seals();
        if actual == expected {
            return;
        }
        self.stats.meta_corruptions_detected += 1;
        // One injection can tamper more than one seal (un-retiring a block
        // moves both the bad-block and state seals); pick the strongest
        // repair any mismatched table needs.
        let mismatch = |t: CorruptTarget| actual[seal_index(t)] != expected[seal_index(t)];
        let needs_oob = mismatch(CorruptTarget::L2pMap)
            || mismatch(CorruptTarget::CoalesceQueue)
            || mismatch(CorruptTarget::BadBlockTable);
        if needs_oob {
            // Authoritative tables: rebuild everything from on-flash OOB.
            self.guard_rebuild_from_flash(ex, obs);
            self.stats.meta_repairs_from_oob += 1;
        } else {
            // Derived structures: re-derive from the RAM status table.
            self.guard.as_mut().expect("guard armed").pending = false;
            self.rederive_counters();
            self.stats.meta_repairs_rederived += 1;
        }
        if self.first_violation().is_some() {
            // Never serve from a table that failed its check: degrade to
            // read-only through the existing watermark machinery.
            self.stats.meta_unrecoverable += 1;
            self.mode = DegradedMode::ReadOnly;
        }
        self.guard_reseal();
    }

    /// Rebuilds every table through the power-up recovery scan, then
    /// re-invalidates every mapping the scan resurrected from insecurely
    /// trimmed (still readable) flash: a page whose sealed truth (the
    /// tombstone filter captured at the last reseal — the trim truth flash
    /// cannot carry) was *deliberately unmapped* but that the OOB rebuild
    /// re-mapped. Between reseal and repair the only mutation was the
    /// injected corruption, so the filter is exact. The re-invalidation
    /// replays the host's original delete (trim cause: synchronous locks if
    /// a secured page ever got here), so the repair stays semantically
    /// invisible to the host.
    fn guard_rebuild_from_flash<E: NandExecutor, O: FtlObserver>(
        &mut self,
        ex: &mut E,
        obs: &mut O,
    ) {
        let g = self.guard.as_mut().expect("guard armed");
        // recover() settles `pending` itself; clear it first so this
        // detection is not double-counted by guard_after_recover.
        g.pending = false;
        let tombstones = std::mem::take(&mut g.unmapped);
        let _ = self.recover(ex, obs);
        self.events.arm(obs.listening());
        let resurrected: Vec<Lpa> = (0..self.l2p.len())
            .filter(|&i| {
                self.l2p.get(i).is_some()
                    && tombstones.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
            })
            .map(|i| i as Lpa)
            .collect();
        if resurrected.is_empty() {
            return;
        }
        self.stats.meta_resurrections_pruned += resurrected.len() as u64;
        self.unmap_and_invalidate(ex, resurrected.into_iter());
        self.events.drain_into(obs);
    }

    /// Rebuilds the per-block live/invalid counters and the per-chip
    /// running totals from the page status table.
    fn rederive_counters(&mut self) {
        let ppb = self.cfg.geometry.pages_per_block();
        let n_blocks = self.cfg.geometry.blocks;
        for c in &mut self.chips {
            let mut live_total = 0u64;
            let mut invalid_total = 0u64;
            for b in 0..n_blocks as usize {
                let (live, invalid) = c.scan_block(b, ppb);
                c.blocks[b].live = live;
                c.blocks[b].invalid = invalid;
                live_total += u64::from(live);
                invalid_total += u64::from(invalid);
            }
            c.live_total = live_total;
            c.invalid_total = invalid_total;
        }
    }

    // -----------------------------------------------------------------
    // Audit scrubber
    // -----------------------------------------------------------------

    /// One incremental audit step: cross-checks the cursor block's RAM
    /// state against on-flash OOB, then advances the cursor. A divergence
    /// here means the seal machinery missed something (it should stay 0 in
    /// every run); it is counted separately and repaired from flash.
    fn guard_audit_step<E: NandExecutor, O: FtlObserver>(&mut self, ex: &mut E, obs: &mut O) {
        let n_blocks = u64::from(self.cfg.geometry.blocks);
        let total = self.chips.len() as u64 * n_blocks;
        let g = self.guard.as_mut().expect("guard armed");
        let cur = g.cursor % total;
        g.cursor = cur + 1;
        let chip = (cur / n_blocks) as usize;
        let block = (cur % n_blocks) as u32;
        self.stats.audit_scrub_blocks += 1;
        if self.audit_block_diverges(ex, chip, block) {
            self.stats.audit_divergences += 1;
            self.guard_rebuild_from_flash(ex, obs);
            self.guard_reseal();
        }
    }

    /// Cross-checks one block: retirement mark, and for every RAM-live page
    /// the flash copy must be readable with matching OOB and back-pointers.
    fn audit_block_diverges<E: NandExecutor>(
        &mut self,
        ex: &mut E,
        chip: usize,
        block: u32,
    ) -> bool {
        let bp = ex.probe_block(chip, BlockId(block));
        let state = self.chips[chip].blocks[block as usize].state;
        if bp.bad != (state == BlockState::Retired) {
            return true;
        }
        if bp.bad {
            return false;
        }
        let ppb = self.cfg.geometry.pages_per_block();
        for p in 0..bp.next_program.min(ppb) {
            let at = GlobalPpa::new(chip, Ppa { block: BlockId(block), page: PageId(p) });
            let idx = self.flat(at.ppa);
            let st = self.chips[chip].status[idx];
            if !st.is_live() {
                // Free/invalid RAM slots legitimately cover locked, stale,
                // or destroyed flash pages; nothing to cross-check.
                continue;
            }
            let probe = ex.probe_page(at);
            self.stats.nand_reads += 1;
            if probe.torn || probe.lock.is_torn() || probe.lock.reads_locked() {
                return true; // a live page must be readable
            }
            match probe.oob {
                Some(oob) => {
                    if self.chips[chip].lpa_at(idx) != Some(oob.lpa) {
                        return true;
                    }
                    if self.l2p.get(oob.lpa as usize) != Some(at) {
                        return true;
                    }
                    if (st == PageStatus::Secured) != oob.secure {
                        return true;
                    }
                }
                None => return true,
            }
        }
        false
    }

    // -----------------------------------------------------------------
    // Seals
    // -----------------------------------------------------------------

    fn compute_seals(&self) -> [u64; N_SEALS] {
        [self.seal_l2p(), self.seal_counters(), self.seal_coalesce(), self.seal_bad_blocks()]
    }

    fn seal_l2p(&self) -> u64 {
        let mut s = Seal::new();
        for lpa in 0..self.l2p.len() {
            match self.l2p.get(lpa) {
                Some(at) => s.gppa(at),
                None => s.u64(u64::MAX),
            }
        }
        s.done()
    }

    fn seal_counters(&self) -> u64 {
        let mut s = Seal::new();
        for c in &self.chips {
            for b in &c.blocks {
                s.u64(u64::from(b.live));
                s.u64(u64::from(b.invalid));
            }
            s.u64(c.live_total);
            s.u64(c.invalid_total);
        }
        s.done()
    }

    fn seal_coalesce(&self) -> u64 {
        let mut s = Seal::new();
        s.u64(self.pending_locks.len() as u64);
        for e in self.pending_locks.iter() {
            s.u64(e.chip as u64);
            s.u64(u64::from(e.block));
            s.u64(e.since);
            s.u64(e.pages.len() as u64);
            for p in e.addresses() {
                s.gppa(p);
            }
        }
        s.done()
    }

    fn seal_bad_blocks(&self) -> u64 {
        let mut s = Seal::new();
        for c in &self.chips {
            s.u64(u64::from(c.retired));
            for b in &c.blocks {
                s.u64(u64::from(b.state == BlockState::Retired));
            }
        }
        s.done()
    }

    // -----------------------------------------------------------------
    // Injection
    // -----------------------------------------------------------------

    /// Applies a drawn corruption, guaranteeing a state change so every
    /// injection is detectable. Draws whose target structure is empty fall
    /// through to the L2P map (always populated); the returned target is
    /// the one actually damaged.
    fn apply_corruption(&mut self, hit: CorruptionHit) -> CorruptTarget {
        let salt = hit.salt;
        let target = match hit.target {
            CorruptTarget::CoalesceQueue if self.pending_locks.len() == 0 => CorruptTarget::L2pMap,
            CorruptTarget::BadBlockTable if !self.chips.iter().any(|c| c.retired > 0) => {
                CorruptTarget::L2pMap
            }
            CorruptTarget::GcCandidacy if !self.chips.iter().any(|c| c.first_full().is_some()) => {
                CorruptTarget::L2pMap
            }
            t => t,
        };
        match target {
            CorruptTarget::L2pMap => {
                let i = (salt % self.l2p.len() as u64) as usize;
                let flipped = match self.l2p.get(i) {
                    Some(_) => None,
                    None => {
                        let geom = self.cfg.geometry;
                        Some(GlobalPpa::new(
                            ((salt >> 8) % self.chips.len() as u64) as usize,
                            Ppa {
                                block: BlockId(((salt >> 24) % u64::from(geom.blocks)) as u32),
                                page: PageId(
                                    ((salt >> 48) % u64::from(geom.pages_per_block())) as u32,
                                ),
                            },
                        ))
                    }
                };
                self.l2p.set(i, flipped);
            }
            CorruptTarget::Counters => {
                let chip = (salt % self.chips.len() as u64) as usize;
                let b = ((salt >> 16) % u64::from(self.cfg.geometry.blocks)) as usize;
                let delta = ((salt >> 32) % 7 + 1) as u32;
                let c = &mut self.chips[chip];
                c.blocks[b].live = c.blocks[b].live.wrapping_add(delta);
                c.live_total = c.live_total.wrapping_add(u64::from(delta));
            }
            CorruptTarget::CoalesceQueue => {
                // Silently drop a whole batch of deferred locks — exactly
                // the remnant-data hazard the guard exists to catch.
                let e = self.pending_locks.pop_front().expect("fall-through checked non-empty");
                self.pending_locks.recycle(e.pages);
            }
            CorruptTarget::BadBlockTable => {
                let n = self.chips.len();
                let start = (salt % n as u64) as usize;
                let chip = (0..n)
                    .map(|i| (start + i) % n)
                    .find(|&i| self.chips[i].retired > 0)
                    .expect("fall-through checked a retired block exists");
                let c = &mut self.chips[chip];
                let b = c
                    .blocks
                    .iter()
                    .position(|b| b.state == BlockState::Retired)
                    .expect("retired count > 0");
                // Un-retire: the grown-bad block looks reusable again.
                c.blocks[b].state = BlockState::Reclaimable;
                c.retired -= 1;
            }
            CorruptTarget::GcCandidacy => {
                let n = self.chips.len();
                let start = (salt % n as u64) as usize;
                let (c, b) = (0..n)
                    .map(|i| (start + i) % n)
                    .find_map(|i| Some((i, self.chips[i].first_full()?)))
                    .expect("fall-through checked a Full block exists");
                // Skew a collectable block's live count: GC ranks it wrongly.
                let delta = ((salt >> 32) % 7 + 1) as u32;
                let live = &mut self.chips[c].blocks[b].live;
                *live = live.wrapping_add(delta);
            }
        }
        target
    }
}

fn seal_index(t: CorruptTarget) -> usize {
    CorruptTarget::ALL.iter().position(|&x| x == t).expect("target in ALL")
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    fn drive(ftl: &mut Ftl, ex: &mut MemExecutor, rounds: u64) {
        let logical = ftl.config().logical_pages();
        let mut x = 0x1234_5678u64;
        for _ in 0..rounds {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let lpa = x % logical;
            ftl.guard_preop(ex, &mut NullObserver);
            match x % 5 {
                0 => {
                    ftl.trim(ex, &mut NullObserver, &[lpa]);
                }
                1 => {
                    let _ = ftl.read(ex, lpa);
                }
                _ => {
                    ftl.write(ex, &mut NullObserver, lpa, !x.is_multiple_of(3), x);
                }
            }
            ftl.guard_postop();
        }
    }

    #[test]
    fn guarded_storm_accounts_every_injection() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.enable_guard(CorruptionConfig::storm(0.3, 99));
        drive(&mut ftl, &mut ex, 300);
        ftl.guard_finalize(&mut ex, &mut NullObserver);
        let s = ftl.stats();
        assert!(s.meta_corruptions_injected > 10, "storm actually fired: {s:?}");
        assert!(s.meta_accounting_balanced(), "identity violated: {s:?}");
        assert_eq!(s.audit_divergences, 0, "seals caught everything first");
        assert_eq!(
            ftl.guard_corruption_stats().unwrap().injected,
            s.meta_corruptions_injected,
            "model and FtlStats agree"
        );
        ftl.check_invariants();
    }

    #[test]
    fn guard_at_rate_zero_changes_no_host_visible_state() {
        let cfg = FtlConfig::tiny_for_tests();
        let mut guarded = Ftl::new(cfg, SanitizePolicy::evanesco());
        let mut bare = Ftl::new(cfg, SanitizePolicy::evanesco());
        let mut ex_g = MemExecutor::new(cfg.geometry, cfg.n_chips);
        let mut ex_b = MemExecutor::new(cfg.geometry, cfg.n_chips);
        guarded.enable_guard(CorruptionConfig::none());
        drive(&mut guarded, &mut ex_g, 200);
        drive(&mut bare, &mut ex_b, 200);
        guarded.guard_finalize(&mut ex_g, &mut NullObserver);
        let s = guarded.stats();
        assert_eq!(s.meta_corruptions_injected, 0);
        assert_eq!(s.meta_corruptions_detected, 0);
        assert_eq!(s.audit_divergences, 0);
        assert!(s.audit_scrub_blocks >= 200);
        for lpa in 0..cfg.logical_pages() {
            assert_eq!(guarded.mapped(lpa), bare.mapped(lpa), "mapping diverged at {lpa}");
        }
        for lpa in 0..cfg.logical_pages() {
            let a = guarded.read(&mut ex_g, lpa).map(|d| d.tag());
            let b = bare.read(&mut ex_b, lpa).map(|d| d.tag());
            assert_eq!(a, b, "read diverged at {lpa}");
        }
    }

    #[test]
    fn injections_are_qd_invariant_for_a_fixed_op_sequence() {
        // The draw is keyed on the boundary ordinal alone; two identical
        // host sequences see identical injections and identical repairs.
        let cfg = FtlConfig::tiny_for_tests();
        let mk = || {
            let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
            ftl.enable_guard(CorruptionConfig::storm(0.25, 7));
            drive(&mut ftl, &mut ex, 250);
            ftl.guard_finalize(&mut ex, &mut NullObserver);
            (ftl, ex)
        };
        let (a, mut ex_a) = mk();
        let (b, mut ex_b) = mk();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.guard_corruption_stats(), b.guard_corruption_stats());
        let mut ea = evanesco_nand::snapshot::Enc::new();
        let mut eb = evanesco_nand::snapshot::Enc::new();
        let (mut a, mut b) = (a, b);
        a.encode_state(&mut ea);
        b.encode_state(&mut eb);
        assert_eq!(ea.into_bytes(), eb.into_bytes(), "post-repair state diverged");
        for lpa in 0..cfg.logical_pages() {
            let ra = a.read(&mut ex_a, lpa).map(|d| d.tag());
            let rb = b.read(&mut ex_b, lpa).map(|d| d.tag());
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn forced_unrecoverable_degrades_to_read_only_and_stays_accounted() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.enable_guard(CorruptionConfig::none());
        ftl.guard_preop(&mut ex, &mut NullObserver);
        ftl.write(&mut ex, &mut NullObserver, 0, true, 1);
        ftl.guard_postop();
        ftl.guard_force_unrecoverable();
        ftl.guard_preop(&mut ex, &mut NullObserver);
        assert_eq!(ftl.degraded(), DegradedMode::ReadOnly);
        assert!(!ftl.write(&mut ex, &mut NullObserver, 1, true, 2), "writes rejected");
        let s = ftl.stats();
        assert_eq!(s.meta_unrecoverable, 1);
        assert!(s.meta_accounting_balanced(), "{s:?}");
    }

    #[test]
    fn oob_repair_does_not_resurrect_insecurely_trimmed_data() {
        // An insecure trim leaves the page readable with valid OOB — the
        // recovery scan would happily re-map it. The guard's tombstone
        // filter must prune that resurrection after an OOB repair.
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.enable_guard(CorruptionConfig::none());
        for (lpa, secure, tag) in [(1, true, 0xA1u64), (3, false, 0xB3)] {
            ftl.guard_preop(&mut ex, &mut NullObserver);
            ftl.write(&mut ex, &mut NullObserver, lpa, secure, tag);
            ftl.guard_postop();
        }
        ftl.guard_preop(&mut ex, &mut NullObserver);
        ftl.trim(&mut ex, &mut NullObserver, &[3]);
        ftl.guard_postop();
        assert!(ftl.read(&mut ex, 3).is_none(), "trim acked");
        // Hand-corrupt the L2P map (the rate is 0, so nothing else fires):
        // dropping a live mapping forces the full-scan OOB repair.
        ftl.l2p.set(1, None);
        ftl.guard_finalize(&mut ex, &mut NullObserver);
        let s = ftl.stats();
        assert_eq!(s.meta_repairs_from_oob, 1, "{s:?}");
        assert!(s.meta_resurrections_pruned >= 1, "{s:?}");
        assert_eq!(ftl.read(&mut ex, 1).map(|d| d.tag()), Some(0xA1), "live data survived");
        assert!(ftl.mapped(3).is_none(), "trimmed page stayed dead");
        assert!(ftl.read(&mut ex, 3).is_none(), "trimmed page stayed dead");
        ftl.check_invariants();
    }

    #[test]
    fn storm_never_leaks_a_secured_delete() {
        use evanesco_core::threat::Attacker;
        // Corruption + repair must never unwind an acked sanitization.
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.enable_guard(CorruptionConfig::storm(0.5, 3));
        let tags: Vec<u64> = (0..8).map(|i| 0xDEAD_0000 + i).collect();
        for (i, &t) in tags.iter().enumerate() {
            ftl.guard_preop(&mut ex, &mut NullObserver);
            ftl.write(&mut ex, &mut NullObserver, i as Lpa, true, t);
            ftl.guard_postop();
        }
        for i in 0..tags.len() {
            ftl.guard_preop(&mut ex, &mut NullObserver);
            ftl.trim(&mut ex, &mut NullObserver, &[i as Lpa]);
            ftl.guard_postop();
        }
        ftl.guard_preop(&mut ex, &mut NullObserver);
        ftl.flush_coalesced(&mut ex, &mut NullObserver);
        ftl.guard_reseal();
        ftl.guard_finalize(&mut ex, &mut NullObserver);
        let attacker = Attacker::new();
        for chip in ex.chips_mut() {
            for &t in &tags {
                assert!(!attacker.recover_tag(chip, t), "tag {t:#x} recoverable after storm");
            }
        }
        assert!(ftl.stats().meta_accounting_balanced(), "{:?}", ftl.stats());
    }
}
