//! FTL operation counters and derived metrics (WAF, lock mix).

/// Cumulative FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host-initiated page writes.
    pub host_write_pages: u64,
    /// Host-initiated page reads.
    pub host_read_pages: u64,
    /// Host-initiated trimmed pages.
    pub host_trim_pages: u64,
    /// NAND page programs (host + relocation).
    pub nand_programs: u64,
    /// NAND page reads (host + relocation).
    pub nand_reads: u64,
    /// NAND block erases.
    pub nand_erases: u64,
    /// Pages copied by GC or sanitization-forced relocation.
    pub copied_pages: u64,
    /// GC invocations.
    pub gc_invocations: u64,
    /// `pLock` commands issued.
    pub plocks: u64,
    /// `bLock` commands issued.
    pub blocks_locked: u64,
    /// Wordline scrubs performed (scrSSD).
    pub scrubs: u64,
    /// Immediate block erases forced by sanitization (erSSD).
    pub sanitize_erases: u64,
    /// Deferred `pLock`s retired *without* a per-page command: their block
    /// was promoted to one `bLock`, or physically erased while they were
    /// queued (lock coalescing, paper §4.3's lock-queue merge).
    pub coalesced_plocks: u64,
    /// Deferred `pLock`s that aged out of the coalescing window and were
    /// issued individually after all.
    pub coalesce_flushed_plocks: u64,
    /// Reliability manager — `pLock` verify failures answered with a
    /// backed-off retry.
    pub plock_retries: u64,
    /// `pLock` retry budgets exhausted, escalating the page's block to a
    /// block-level sanitize (relocate + `bLock`/erase).
    pub plock_escalations: u64,
    /// `pLock` retry budgets exhausted inside a block-level fallback,
    /// answered with an in-place scrub (the infallible terminal rung).
    pub lock_scrub_fallbacks: u64,
    /// `bLock` verify failures answered with a backed-off retry.
    pub block_lock_retries: u64,
    /// `bLock` retry budgets exhausted, falling back to per-page locks or
    /// an immediate erase.
    pub block_lock_fallbacks: u64,
    /// Program-status failures remapped to a fresh page (the consumed slot
    /// is marked invalid-suspect and scrubbed if it held secure data).
    pub program_fail_remaps: u64,
    /// Erase-status failures answered with a retry.
    pub erase_retries: u64,
    /// Blocks retired as grown-bad after exhausting the erase retry budget.
    pub retired_blocks: u64,
    /// Live pages relocated because their block was escalated to a
    /// block-level sanitize (subset of `copied_pages`).
    pub reliability_relocations: u64,
    /// Host writes rejected because the drive is in read-only degraded
    /// mode (spare-block reserve exhausted).
    pub writes_rejected_readonly: u64,
    /// Metadata guard — corruptions injected into FTL RAM structures by
    /// the chaos injector (zero outside chaos runs).
    pub meta_corruptions_injected: u64,
    /// Metadata guard — corruptions detected by the shadow checksums or
    /// the OOB audit scrubber before any host op was served from the
    /// damaged table.
    pub meta_corruptions_detected: u64,
    /// Metadata guard — detected corruptions repaired by rebuilding the
    /// structure from on-flash OOB ground truth (full recovery scan).
    pub meta_repairs_from_oob: u64,
    /// Metadata guard — detected corruptions repaired by re-deriving the
    /// structure (counters, victim index) from the in-RAM map.
    pub meta_repairs_rederived: u64,
    /// Metadata guard — repairs that failed post-verification; the drive
    /// degraded to read-only instead of serving from the bad table.
    pub meta_unrecoverable: u64,
    /// Audit scrubber — blocks cross-checked against on-flash OOB.
    pub audit_scrub_blocks: u64,
    /// Audit scrubber — RAM-vs-OOB divergences found (subset of
    /// `meta_corruptions_detected`).
    pub audit_divergences: u64,
    /// Metadata guard — logical pages a repair's recovery scan re-mapped
    /// from stale-but-readable flash (insecurely trimmed data has no
    /// on-flash tombstone) and the guard's trim filter re-invalidated
    /// before any host op could read the resurrected mapping.
    pub meta_resurrections_pruned: u64,
}

impl FtlStats {
    /// Write amplification factor: NAND programs per host page write.
    ///
    /// Returns 0 when nothing has been written.
    pub fn waf(&self) -> f64 {
        if self.host_write_pages == 0 {
            0.0
        } else {
            self.nand_programs as f64 / self.host_write_pages as f64
        }
    }

    /// Pages sanitized per lock command mix — how many `pLock`s were saved
    /// by `bLock` batching is derived by callers comparing policies.
    pub fn total_lock_commands(&self) -> u64 {
        self.plocks + self.blocks_locked
    }

    /// Field-wise difference `self − earlier`: the counters accumulated
    /// since an earlier snapshot (used to exclude the prefill phase from
    /// measured metrics).
    pub fn since(&self, earlier: &FtlStats) -> FtlStats {
        FtlStats {
            host_write_pages: self.host_write_pages - earlier.host_write_pages,
            host_read_pages: self.host_read_pages - earlier.host_read_pages,
            host_trim_pages: self.host_trim_pages - earlier.host_trim_pages,
            nand_programs: self.nand_programs - earlier.nand_programs,
            nand_reads: self.nand_reads - earlier.nand_reads,
            nand_erases: self.nand_erases - earlier.nand_erases,
            copied_pages: self.copied_pages - earlier.copied_pages,
            gc_invocations: self.gc_invocations - earlier.gc_invocations,
            plocks: self.plocks - earlier.plocks,
            blocks_locked: self.blocks_locked - earlier.blocks_locked,
            scrubs: self.scrubs - earlier.scrubs,
            sanitize_erases: self.sanitize_erases - earlier.sanitize_erases,
            coalesced_plocks: self.coalesced_plocks - earlier.coalesced_plocks,
            coalesce_flushed_plocks: self.coalesce_flushed_plocks - earlier.coalesce_flushed_plocks,
            plock_retries: self.plock_retries - earlier.plock_retries,
            plock_escalations: self.plock_escalations - earlier.plock_escalations,
            lock_scrub_fallbacks: self.lock_scrub_fallbacks - earlier.lock_scrub_fallbacks,
            block_lock_retries: self.block_lock_retries - earlier.block_lock_retries,
            block_lock_fallbacks: self.block_lock_fallbacks - earlier.block_lock_fallbacks,
            program_fail_remaps: self.program_fail_remaps - earlier.program_fail_remaps,
            erase_retries: self.erase_retries - earlier.erase_retries,
            retired_blocks: self.retired_blocks - earlier.retired_blocks,
            reliability_relocations: self.reliability_relocations - earlier.reliability_relocations,
            writes_rejected_readonly: self.writes_rejected_readonly
                - earlier.writes_rejected_readonly,
            meta_corruptions_injected: self.meta_corruptions_injected
                - earlier.meta_corruptions_injected,
            meta_corruptions_detected: self.meta_corruptions_detected
                - earlier.meta_corruptions_detected,
            meta_repairs_from_oob: self.meta_repairs_from_oob - earlier.meta_repairs_from_oob,
            meta_repairs_rederived: self.meta_repairs_rederived - earlier.meta_repairs_rederived,
            meta_unrecoverable: self.meta_unrecoverable - earlier.meta_unrecoverable,
            audit_scrub_blocks: self.audit_scrub_blocks - earlier.audit_scrub_blocks,
            audit_divergences: self.audit_divergences - earlier.audit_divergences,
            meta_resurrections_pruned: self.meta_resurrections_pruned
                - earlier.meta_resurrections_pruned,
        }
    }

    /// Serializes every counter into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
        for v in self.as_array() {
            e.u64(v);
        }
    }

    /// Inverse of [`FtlStats::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        Ok(FtlStats {
            host_write_pages: d.u64()?,
            host_read_pages: d.u64()?,
            host_trim_pages: d.u64()?,
            nand_programs: d.u64()?,
            nand_reads: d.u64()?,
            nand_erases: d.u64()?,
            copied_pages: d.u64()?,
            gc_invocations: d.u64()?,
            plocks: d.u64()?,
            blocks_locked: d.u64()?,
            scrubs: d.u64()?,
            sanitize_erases: d.u64()?,
            coalesced_plocks: d.u64()?,
            coalesce_flushed_plocks: d.u64()?,
            plock_retries: d.u64()?,
            plock_escalations: d.u64()?,
            lock_scrub_fallbacks: d.u64()?,
            block_lock_retries: d.u64()?,
            block_lock_fallbacks: d.u64()?,
            program_fail_remaps: d.u64()?,
            erase_retries: d.u64()?,
            retired_blocks: d.u64()?,
            reliability_relocations: d.u64()?,
            writes_rejected_readonly: d.u64()?,
            meta_corruptions_injected: d.u64()?,
            meta_corruptions_detected: d.u64()?,
            meta_repairs_from_oob: d.u64()?,
            meta_repairs_rederived: d.u64()?,
            meta_unrecoverable: d.u64()?,
            audit_scrub_blocks: d.u64()?,
            audit_divergences: d.u64()?,
            meta_resurrections_pruned: d.u64()?,
        })
    }

    fn as_array(&self) -> [u64; 32] {
        [
            self.host_write_pages,
            self.host_read_pages,
            self.host_trim_pages,
            self.nand_programs,
            self.nand_reads,
            self.nand_erases,
            self.copied_pages,
            self.gc_invocations,
            self.plocks,
            self.blocks_locked,
            self.scrubs,
            self.sanitize_erases,
            self.coalesced_plocks,
            self.coalesce_flushed_plocks,
            self.plock_retries,
            self.plock_escalations,
            self.lock_scrub_fallbacks,
            self.block_lock_retries,
            self.block_lock_fallbacks,
            self.program_fail_remaps,
            self.erase_retries,
            self.retired_blocks,
            self.reliability_relocations,
            self.writes_rejected_readonly,
            self.meta_corruptions_injected,
            self.meta_corruptions_detected,
            self.meta_repairs_from_oob,
            self.meta_repairs_rederived,
            self.meta_unrecoverable,
            self.audit_scrub_blocks,
            self.audit_divergences,
            self.meta_resurrections_pruned,
        ]
    }

    /// The metadata-integrity accounting identity: every injected
    /// corruption must be answered by exactly one repair (from OOB or
    /// re-derived) or a counted unrecoverable degradation — and every
    /// detection must trace back to an injection (no false positives).
    pub fn meta_accounting_balanced(&self) -> bool {
        self.meta_corruptions_detected == self.meta_corruptions_injected
            && self.meta_repairs_from_oob + self.meta_repairs_rederived + self.meta_unrecoverable
                == self.meta_corruptions_detected
    }

    /// Total reliability-manager interventions (every injected command
    /// failure is answered by exactly one of these).
    pub fn reliability_events(&self) -> u64 {
        self.plock_retries
            + self.plock_escalations
            + self.lock_scrub_fallbacks
            + self.block_lock_retries
            + self.block_lock_fallbacks
            + self.program_fail_remaps
            + self.erase_retries
            + self.retired_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_is_programs_over_host_writes() {
        let s = FtlStats { host_write_pages: 100, nand_programs: 250, ..Default::default() };
        assert!((s.waf() - 2.5).abs() < 1e-12);
        assert_eq!(FtlStats::default().waf(), 0.0);
    }

    #[test]
    fn lock_command_total() {
        let s = FtlStats { plocks: 7, blocks_locked: 2, ..Default::default() };
        assert_eq!(s.total_lock_commands(), 9);
    }

    #[test]
    fn meta_accounting_identity() {
        assert!(FtlStats::default().meta_accounting_balanced());
        let balanced = FtlStats {
            meta_corruptions_injected: 5,
            meta_corruptions_detected: 5,
            meta_repairs_from_oob: 3,
            meta_repairs_rederived: 1,
            meta_unrecoverable: 1,
            ..Default::default()
        };
        assert!(balanced.meta_accounting_balanced());
        let silent = FtlStats { meta_corruptions_injected: 1, ..Default::default() };
        assert!(!silent.meta_accounting_balanced(), "an unaccounted injection must trip");
        let phantom = FtlStats {
            meta_corruptions_detected: 1,
            meta_repairs_rederived: 1,
            ..Default::default()
        };
        assert!(!phantom.meta_accounting_balanced(), "a false positive must trip");
    }

    #[test]
    fn guard_counters_roundtrip_and_are_required() {
        use evanesco_nand::snapshot::{Dec, Enc};
        let s = FtlStats {
            host_write_pages: 9,
            meta_corruptions_injected: 4,
            meta_corruptions_detected: 4,
            meta_repairs_from_oob: 2,
            meta_repairs_rederived: 2,
            audit_scrub_blocks: 17,
            ..Default::default()
        };
        let mut e = Enc::new();
        s.encode_snapshot(&mut e);
        let bytes = e.into_bytes();
        let restored = FtlStats::decode_snapshot(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(restored, s);
        // A stream cut after the first 24 counters (the retired v1 layout)
        // is truncated, not zero-filled.
        let mut d = Dec::new(&bytes[..24 * 8]);
        assert!(FtlStats::decode_snapshot(&mut d).is_err(), "decode needs all 32 counters");
    }
}
