//! Power-up recovery after an unclean shutdown.
//!
//! A power cut can interrupt any in-flight NAND operation — a program, an
//! erase, a `pLock`/`bLock` — leaving partially-written pages, half-erased
//! blocks, and lock-flag cells with degraded margin. On the next power-up
//! the FTL's RAM tables are gone; [`crate::ftl::Ftl::recover`] rebuilds
//! them from on-flash state (per-page OOB metadata stamped on every
//! program) and, critically for Evanesco's security conditions C1/C2,
//! **re-establishes every lock that was lost mid-flight before any host
//! read is served**:
//!
//! 1. blocks with a torn-erase signature are re-erased (their low-voltage
//!    flag cells decay before the data does, so a half-erased block may
//!    hold unlocked-but-recoverable secured data);
//! 2. torn `bLock`s are completed (a bLock only ever covers dead data):
//!    the block's written pages are marked dead, then settled by the
//!    runtime block settle — `bLock` retries, per-page locks, scrubs;
//! 3. torn `pLock`s are completed by the runtime per-page rung — `pLock`
//!    retries with exponential back-off while the command's status
//!    register reports a verify failure, then a destructive scrub;
//! 4. readable pages are entered into a sequence-number contest per
//!    logical page; losers are stale versions, and stale *secured*
//!    versions are sanitized through the active policy's own mechanism;
//! 5. torn writes carrying a `secure` OOB mark are orphans — data the
//!    host never acknowledged — and are sanitized the same way.
//!
//! Recovery has no retry ladder of its own: every lock it issues climbs
//! the reliability manager's (`ftl/reliability.rs`), minus the relocation
//! rung, and its retries and fallbacks count in the same `FtlStats`
//! counters as the runtime's. The scan costs one page read per occupied
//! page on timed executors, which is what the recovery-time metric
//! measures.

crate::stats::counters! {
    /// Counters describing one recovery scan. Its lock commands, their
    /// retries and their fallbacks count in the [`crate::stats::FtlStats`]
    /// rungs, as on every other path.
    RecoveryReport;
    /// Occupied pages probed (one flash read each).
    scanned_pages,
    /// Logical mappings rebuilt from OOB metadata.
    rebuilt_mappings,
    /// Pages found holding a program interrupted by the power cut.
    torn_writes,
    /// Torn writes of *secured* data that were still decodable — never
    /// acknowledged to the host, so they are sanitized, not mapped.
    orphaned_pages,
    /// Pages whose `pLock` was found torn and was re-issued.
    relocked_pages,
    /// Blocks whose `bLock` was found torn and was re-issued.
    reissued_blocks,
    /// Blocks with a torn-erase signature that were re-erased.
    resealed_blocks,
    /// Stale secured versions (sequence-contest losers) sanitized.
    stale_secured,
    /// Grown-bad blocks in the rebuilt bad-block table after this scan
    /// (spare-area marks rediscovered plus blocks retired mid-recovery).
    retired_blocks,
}

impl RecoveryReport {
    /// Folds a later scan's report into this sum: every counter adds up
    /// except `retired_blocks`, which is the later scan's table size.
    pub fn absorb(&mut self, later: &RecoveryReport) {
        let (sum, add) =
            (RecoveryReport { retired_blocks: 0, ..*self }.as_array(), later.as_array());
        *self = Self::from_array(std::array::from_fn(|i| sum[i] + add[i]));
    }

    /// The counters summed since `earlier`, a snapshot of the same sum;
    /// `retired_blocks` stays this one's.
    pub fn since(&self, earlier: &RecoveryReport) -> RecoveryReport {
        let (now, then) =
            (self.as_array(), RecoveryReport { retired_blocks: 0, ..*earlier }.as_array());
        Self::from_array(std::array::from_fn(|i| now[i] - then[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_since_diffs_all_but_the_bad_block_table() {
        let scan = |n| RecoveryReport {
            scanned_pages: 10 * n,
            relocked_pages: n,
            retired_blocks: n,
            ..Default::default()
        };
        let mut sum = scan(1);
        let earlier = sum;
        sum.absorb(&scan(2));
        assert_eq!((sum.scanned_pages, sum.relocked_pages, sum.retired_blocks), (30, 3, 2));
        let d = sum.since(&earlier);
        assert_eq!((d.scanned_pages, d.relocked_pages, d.retired_blocks), (20, 2, 2));
    }
}
