//! FTL operation counters and derived metrics (WAF, lock mix).

evanesco_nand::counters! {
    /// Cumulative FTL statistics.
    FtlStats;
    /// Host-initiated page writes.
    host_write_pages: "Host-initiated page writes.",
    /// Host-initiated page reads.
    host_read_pages: "Host-initiated page reads.",
    /// Host-initiated trimmed pages.
    host_trim_pages: "Host-initiated trimmed pages.",
    /// NAND page programs (host + relocation).
    nand_programs: "NAND page programs (host + relocation).",
    /// NAND page reads (host + relocation).
    nand_reads: "NAND page reads (host + relocation).",
    /// NAND block erases.
    nand_erases: "NAND block erases.",
    /// Pages copied by GC or sanitization-forced relocation.
    copied_pages: "Pages copied by GC or forced relocation.",
    /// GC invocations.
    gc_invocations: "GC invocations.",
    /// `pLock` commands issued.
    plocks: "pLock commands issued.",
    /// `bLock` commands issued.
    blocks_locked: "bLock commands issued.",
    /// Wordline scrubs performed (scrSSD).
    scrubs: "Wordline scrubs performed.",
    /// Immediate block erases forced by sanitization (erSSD).
    sanitize_erases: "Immediate erases forced by sanitization.",
    /// Deferred `pLock`s retired *without* a per-page command: their block
    /// was promoted to one `bLock`, or physically erased while they were
    /// queued (lock coalescing, paper §4.3's lock-queue merge).
    coalesced_plocks: "Deferred pLocks retired without a command.",
    /// Deferred `pLock`s that aged out of the coalescing window and were
    /// issued individually after all.
    coalesce_flushed_plocks: "Deferred pLocks aged out and issued individually.",
    /// Reliability manager — `pLock` verify failures answered with a
    /// backed-off retry.
    plock_retries: "pLock verify failures retried.",
    /// `pLock` retry budgets exhausted, escalating the page's block to a
    /// block-level sanitize (relocate + `bLock`/erase).
    plock_escalations: "pLock budgets escalated to block sanitize.",
    /// `pLock` retry budgets exhausted inside a block-level fallback,
    /// answered with an in-place scrub (the infallible terminal rung).
    lock_scrub_fallbacks: "Lock failures resolved by a scrub.",
    /// `bLock` verify failures answered with a backed-off retry.
    block_lock_retries: "bLock verify failures retried.",
    /// `bLock` retry budgets exhausted, falling back to per-page locks or
    /// an immediate erase.
    block_lock_fallbacks: "bLock budgets exhausted, fallback taken.",
    /// Program-status failures remapped to a fresh page (the consumed slot
    /// is marked invalid-suspect and scrubbed if it held secure data).
    program_fail_remaps: "Program failures remapped to fresh pages.",
    /// Erase-status failures answered with a retry.
    erase_retries: "Erase-status failures retried.",
    /// Blocks retired as grown-bad after exhausting the erase retry budget.
    retired_blocks: "Blocks retired as grown-bad.",
    /// Live pages relocated because their block was escalated to a
    /// block-level sanitize (subset of `copied_pages`).
    reliability_relocations: "Live pages relocated by escalations.",
    /// Host writes rejected because the drive is in read-only degraded
    /// mode (spare-block reserve exhausted).
    writes_rejected_readonly: "Host writes rejected in read-only degraded mode.",
    /// Metadata guard — corruptions injected into FTL RAM structures by
    /// the chaos injector (zero outside chaos runs).
    meta_corruptions_injected: "Metadata corruptions injected by the chaos model.",
    /// Metadata guard — corruptions detected by the shadow checksums or
    /// the OOB audit scrubber before any host op was served from the
    /// damaged table.
    meta_corruptions_detected: "Metadata corruptions caught by seals or the audit scrubber.",
    /// Metadata guard — detected corruptions repaired by rebuilding the
    /// structure from on-flash OOB ground truth (full recovery scan).
    meta_repairs_from_oob: "Metadata repairs rebuilt from on-flash OOB.",
    /// Metadata guard — detected corruptions repaired by re-deriving the
    /// per-block and per-chip counters from the in-RAM page status table.
    meta_repairs_rederived: "Metadata repairs re-derived from RAM state.",
    /// Metadata guard — repairs that failed post-verification; the drive
    /// degraded to read-only instead of serving from the bad table.
    meta_unrecoverable: "Failed repairs that degraded the drive to read-only.",
    /// Audit scrubber — blocks cross-checked against on-flash OOB.
    audit_scrub_blocks: "Blocks cross-checked by the audit scrubber.",
    /// Audit scrubber — RAM-vs-OOB divergences found (subset of
    /// `meta_corruptions_detected`).
    audit_divergences: "RAM-vs-OOB divergences found by the scrubber.",
    /// Metadata guard — logical pages a repair's recovery scan re-mapped
    /// from stale-but-readable flash (insecurely trimmed data has no
    /// on-flash tombstone) and the guard's trim filter re-invalidated
    /// before any host op could read the resurrected mapping.
    meta_resurrections_pruned:
        "Insecurely trimmed mappings a repair resurrected and the guard re-invalidated.",
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
        let (now, then) = (self.as_array(), earlier.as_array());
        Self::from_array(std::array::from_fn(|i| now[i] - then[i]))
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
}
