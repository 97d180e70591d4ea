//! FTL operation counters and derived metrics (WAF, lock mix).

/// Declares a struct of `u64` counters from one list, so the struct, its
/// array view and the checkpoint wire order cannot drift apart: a counter's
/// position in the list *is* its position in every checkpoint.
macro_rules! counters {
    ($(#[$sdoc:meta])* $ty:ident; $($(#[$doc:meta])* $name:ident,)*) => {
        $(#[$sdoc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $ty {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $ty {
            /// Number of counters.
            const N: usize = [$(stringify!($name)),*].len();

            fn as_array(&self) -> [u64; Self::N] {
                [$(self.$name),*]
            }

            fn from_array([$($name),*]: [u64; Self::N]) -> Self {
                $ty { $($name),* }
            }

            /// Serializes every counter into a checkpoint stream.
            pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
                for v in self.as_array() {
                    e.u64(v);
                }
            }

            /// Inverse of `encode_snapshot`.
            ///
            /// # Errors
            ///
            /// Fails on truncation.
            pub fn decode_snapshot(
                d: &mut evanesco_nand::snapshot::Dec<'_>,
            ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
                let mut counters = [0u64; Self::N];
                for v in &mut counters {
                    *v = d.u64()?;
                }
                Ok(Self::from_array(counters))
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Cumulative FTL statistics.
    FtlStats;
    /// Host-initiated page writes.
    host_write_pages,
    /// Host-initiated page reads.
    host_read_pages,
    /// Host-initiated trimmed pages.
    host_trim_pages,
    /// NAND page programs (host + relocation).
    nand_programs,
    /// NAND page reads (host + relocation).
    nand_reads,
    /// NAND block erases.
    nand_erases,
    /// Pages copied by GC or sanitization-forced relocation.
    copied_pages,
    /// GC invocations.
    gc_invocations,
    /// `pLock` commands issued.
    plocks,
    /// `bLock` commands issued.
    blocks_locked,
    /// Wordline scrubs performed (scrSSD).
    scrubs,
    /// Immediate block erases forced by sanitization (erSSD).
    sanitize_erases,
    /// Deferred `pLock`s retired *without* a per-page command: their block
    /// was promoted to one `bLock`, or physically erased while they were
    /// queued (lock coalescing, paper §4.3's lock-queue merge).
    coalesced_plocks,
    /// Deferred `pLock`s that aged out of the coalescing window and were
    /// issued individually after all.
    coalesce_flushed_plocks,
    /// Reliability manager — `pLock` verify failures answered with a
    /// backed-off retry.
    plock_retries,
    /// `pLock` retry budgets exhausted, escalating the page's block to a
    /// block-level sanitize (relocate + `bLock`/erase).
    plock_escalations,
    /// `pLock` retry budgets exhausted inside a block-level fallback,
    /// answered with an in-place scrub (the infallible terminal rung).
    lock_scrub_fallbacks,
    /// `bLock` verify failures answered with a backed-off retry.
    block_lock_retries,
    /// `bLock` retry budgets exhausted, falling back to per-page locks or
    /// an immediate erase.
    block_lock_fallbacks,
    /// Program-status failures remapped to a fresh page (the consumed slot
    /// is marked invalid-suspect and scrubbed if it held secure data).
    program_fail_remaps,
    /// Erase-status failures answered with a retry.
    erase_retries,
    /// Blocks retired as grown-bad after exhausting the erase retry budget.
    retired_blocks,
    /// Live pages relocated because their block was escalated to a
    /// block-level sanitize (subset of `copied_pages`).
    reliability_relocations,
    /// Host writes rejected because the drive is in read-only degraded
    /// mode (spare-block reserve exhausted).
    writes_rejected_readonly,
    /// Metadata guard — corruptions injected into FTL RAM structures by
    /// the chaos injector (zero outside chaos runs).
    meta_corruptions_injected,
    /// Metadata guard — corruptions detected by the shadow checksums or
    /// the OOB audit scrubber before any host op was served from the
    /// damaged table.
    meta_corruptions_detected,
    /// Metadata guard — detected corruptions repaired by rebuilding the
    /// structure from on-flash OOB ground truth (full recovery scan).
    meta_repairs_from_oob,
    /// Metadata guard — detected corruptions repaired by re-deriving the
    /// structure (counters, victim index) from the in-RAM map.
    meta_repairs_rederived,
    /// Metadata guard — repairs that failed post-verification; the drive
    /// degraded to read-only instead of serving from the bad table.
    meta_unrecoverable,
    /// Audit scrubber — blocks cross-checked against on-flash OOB.
    audit_scrub_blocks,
    /// Audit scrubber — RAM-vs-OOB divergences found (subset of
    /// `meta_corruptions_detected`).
    audit_divergences,
    /// Metadata guard — logical pages a repair's recovery scan re-mapped
    /// from stale-but-readable flash (insecurely trimmed data has no
    /// on-flash tombstone) and the guard's trim filter re-invalidated
    /// before any host op could read the resurrected mapping.
    meta_resurrections_pruned,
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
