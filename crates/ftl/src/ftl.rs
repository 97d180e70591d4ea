//! The flash translation layer (paper §2.2 baseline behaviour, §6
//! SecureSSD extensions).
//!
//! One `Ftl` implementation hosts every evaluated SSD variant; the
//! [`SanitizePolicy`] selects what happens when a *secured* page is
//! invalidated (host overwrite, trim/delete, or GC relocation):
//!
//! | policy             | action on secured-page invalidation |
//! |--------------------|--------------------------------------|
//! | `baseline`         | nothing (data lingers until lazy erase) |
//! | `secSSD`           | `pLock`, or one `bLock` when a whole block dies |
//! | `secSSD_nobLock`   | `pLock` only |
//! | `erSSD`            | relocate the block's live pages, erase it now |
//! | `scrSSD`           | copy live wordline siblings away, scrub the wordline |
//!
//! Structural choices that matter for the results:
//!
//! * **append-only writes** with a per-chip active block and round-robin
//!   chip striping;
//! * **greedy GC** (min-live victim) triggered by a free-block threshold;
//! * **lazy erase** (paper §5.4): GC victims are merely marked reclaimable;
//!   the physical erase happens right before the block is reopened for
//!   writing, keeping the open interval short — and leaving invalid data
//!   recoverable in the meantime, which is exactly the window Evanesco
//!   closes.
//!
//! This file holds the `Ftl` state and the host interface; the rest is
//! `impl Ftl` blocks under `ftl/`, one module per concern (DESIGN.md §3.1 has
//! the map). Every policy decision lives behind `ftl/sanitize.rs`.

use crate::addr::{GlobalPpa, Lpa};
use crate::config::FtlConfig;
use crate::decision::{Decision, DecisionLog};
use crate::executor::{NandExecutor, OpCause};
use crate::observer::{EventBatch, FtlObserver, InvalidateCause, ObserverEvent};
use crate::policy::SanitizePolicy;
use crate::recovery::RecoveryReport;
use crate::stats::FtlStats;
use crate::status::PageStatus;
use evanesco_nand::chip::{PageData, PageOob};
use evanesco_nand::geometry::{BlockId, PageId, Ppa};
use evanesco_nand::timing::Nanos;
use std::collections::VecDeque;

mod alloc;
mod coalesce;
mod codec;
mod gc;
mod guard;
mod map;
mod recover;
mod reliability;
mod sanitize;

use alloc::ActiveBlock;
use coalesce::{CoalesceEntry, CoalesceQueue};
use map::{BlockMeta, BlockState, ChipState, L2p};
pub use reliability::DegradedMode;

/// A page-mapping FTL with pluggable sanitization policy.
#[derive(Debug, Clone)]
pub struct Ftl {
    cfg: FtlConfig,
    policy: SanitizePolicy,
    l2p: L2p,
    chips: Vec<ChipState>,
    /// Chip visit order of the write frontier (see
    /// [`crate::config::WriteAlloc`]); the frontier position `next_chip`
    /// indexes into this permutation.
    chip_order: Vec<usize>,
    next_chip: usize,
    stats: FtlStats,
    /// Next program sequence number; stamped into every page's OOB so a
    /// power-up recovery scan can order versions of the same logical page.
    seq: u64,
    /// Deferred-lock queue, oldest entry first ([`FtlConfig::lock_coalescing`]).
    /// RAM-only: a power cut loses it, and recovery's sequence contest
    /// re-identifies every queued page as a stale secured version to reseal.
    pending_locks: CoalesceQueue,
    /// Degraded-mode state (driven by the per-chip retired counts against
    /// the spare reserve).
    mode: DegradedMode,
    /// Bounded "explain why" log of policy decisions (disabled by default;
    /// see [`Ftl::enable_decision_log`]). Purely observational.
    decisions: DecisionLog,
    /// Recycled buffers for the host data plane and GC (always empty between
    /// operations; never checkpointed — a restored FTL starts them fresh).
    secured_scratch: Vec<GlobalPpa>,
    trim_pending_scratch: Vec<Lpa>,
    trim_group_scratch: Vec<GlobalPpa>,
    gc_scratch: Vec<GlobalPpa>,
    /// Buffered observer events: internal paths record here and the public
    /// entry points drain to the caller's observer once per host operation,
    /// preserving event order exactly. Always empty between operations.
    events: EventBatch,
    /// Metadata-integrity guard: shadow checksums over every RAM table, the
    /// background audit scrubber, and the corruption injector (see
    /// [`Ftl::enable_guard`]). RAM-only and never checkpointed — a restored
    /// or recovered FTL reseals from its rebuilt state.
    guard: Option<Box<guard::MetaGuard>>,
}

impl Ftl {
    /// Creates an FTL over `cfg.n_chips` erased chips.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FtlConfig::validate`].
    pub fn new(cfg: FtlConfig, policy: SanitizePolicy) -> Self {
        cfg.validate();
        let ppb = cfg.geometry.pages_per_block();
        Ftl {
            l2p: L2p::new(&cfg),
            chips: (0..cfg.n_chips).map(|_| ChipState::new(cfg.geometry.blocks, ppb)).collect(),
            chip_order: Self::chip_order_for(&cfg),
            next_chip: 0,
            stats: FtlStats::default(),
            seq: 0,
            pending_locks: CoalesceQueue::new(cfg.n_chips, cfg.geometry.blocks),
            mode: DegradedMode::Normal,
            decisions: DecisionLog::disabled(),
            secured_scratch: Vec::new(),
            trim_pending_scratch: Vec::new(),
            trim_group_scratch: Vec::new(),
            gc_scratch: Vec::new(),
            events: EventBatch::new(),
            guard: None,
            cfg,
            policy,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// The configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// The sanitization policy.
    pub fn policy(&self) -> SanitizePolicy {
        self.policy
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Turns the decision log on, keeping at most `capacity` records at
    /// `min_level` and above. Observational only: enabling it never
    /// changes simulated results.
    pub fn enable_decision_log(
        &mut self,
        capacity: usize,
        min_level: crate::decision::DecisionLevel,
    ) {
        self.decisions = DecisionLog::new(capacity, min_level);
    }

    /// The decision log (empty and disabled unless
    /// [`Ftl::enable_decision_log`] was called).
    pub fn decision_log(&self) -> &DecisionLog {
        &self.decisions
    }

    /// Records a decision with the executor's current clock (no-op while
    /// the log is disabled; never issues a command).
    fn note_decision<E: NandExecutor>(&mut self, ex: &E, decision: Decision) {
        if self.decisions.enabled() {
            self.decisions.record(ex.now(), self.stats.host_write_pages, decision);
        }
    }

    /// Runs `f` with `cause` as the innermost attribution of every command
    /// it issues (even inside GC, lock / erase / scrub traffic is
    /// sanitization work; a fault ladder's rungs are retry work).
    fn scoped<E: NandExecutor, R>(
        &mut self,
        ex: &mut E,
        cause: OpCause,
        f: impl FnOnce(&mut Self, &mut E) -> R,
    ) -> R {
        ex.push_cause(cause);
        let r = f(self, ex);
        ex.pop_cause();
        r
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    // ---- Host interface ----

    /// Handles a host page write. `secure` marks the data as requiring
    /// sanitization on invalidation (the default; `O_INSEC` files pass
    /// `false`). `tag` identifies the content (for forensic verification).
    ///
    /// Returns `false` when the drive is in read-only degraded mode and the
    /// write was rejected.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical address space.
    pub fn write<E: NandExecutor, O: FtlObserver>(
        &mut self,
        ex: &mut E,
        obs: &mut O,
        lpa: Lpa,
        secure: bool,
        tag: u64,
    ) -> bool {
        self.write_data(ex, obs, lpa, secure, PageData::tagged(tag))
    }

    /// [`Ftl::write`] with an explicit page payload (byte contents travel
    /// to the chip; used by the host file-system layer).
    ///
    /// Returns `false` when the drive is in read-only degraded mode and the
    /// write was rejected.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical address space.
    pub fn write_data<E: NandExecutor, O: FtlObserver>(
        &mut self,
        ex: &mut E,
        obs: &mut O,
        lpa: Lpa,
        secure: bool,
        data: PageData,
    ) -> bool {
        assert!((lpa as usize) < self.l2p.len(), "lpa {lpa} out of logical space");
        if self.mode == DegradedMode::ReadOnly {
            self.stats.writes_rejected_readonly += 1;
            return false;
        }
        self.stats.host_write_pages += 1;
        self.events.arm(obs.listening());
        self.events.push(ObserverEvent::HostTick);
        if self.cfg.lock_coalescing {
            self.flush_aged_locks(ex);
        }
        if let Some(old) = self.l2p.get(lpa as usize) {
            // A single superseded page is one block group by construction;
            // dispatch it directly instead of routing through the grouping
            // pass (this is the hottest invalidation path in the system).
            self.invalidate_block_group(
                ex,
                old.chip,
                old.ppa.block.0,
                &[old],
                InvalidateCause::HostUpdate,
            );
        }
        let seq = self.next_seq();
        let payload = data.with_oob(PageOob { lpa, secure, seq });
        let at = self.program_remapping(ex, &payload, secure, Self::allocate);
        self.commit_mapping(lpa, at, secure);
        self.events.push(ObserverEvent::Program { lpa, at, secure });
        self.events.drain_into(obs);
        true
    }

    /// Handles a host page read; returns the stored data if mapped.
    pub fn read<E: NandExecutor>(&mut self, ex: &mut E, lpa: Lpa) -> Option<PageData> {
        self.stats.host_read_pages += 1;
        let at = self.l2p.get(lpa as usize)?;
        self.stats.nand_reads += 1;
        ex.read(at)
    }

    /// Handles a host trim (delete) of a set of logical pages. Batching
    /// matters: contiguous trims of secured pages in the same block are the
    /// `bLock` opportunity (paper §6).
    pub fn trim<E: NandExecutor, O: FtlObserver>(&mut self, ex: &mut E, obs: &mut O, lpas: &[Lpa]) {
        self.stats.host_trim_pages += lpas.len() as u64;
        self.events.arm(obs.listening());
        let logical = self.l2p.len();
        self.unmap_and_invalidate(ex, lpas.iter().copied().filter(|&l| (l as usize) < logical));
        self.events.drain_into(obs);
    }
}

#[cfg(test)]
mod testutil {
    pub(super) use crate::config::FtlConfig;
    pub(super) use crate::executor::MemExecutor;
    pub(super) use crate::observer::NullObserver;
    pub(super) use evanesco_core::fault::FaultConfig;
    pub(super) use evanesco_core::threat::Attacker;

    use super::{Ftl, SanitizePolicy};

    pub(super) fn setup_with(cfg: FtlConfig, policy: SanitizePolicy) -> (Ftl, MemExecutor) {
        (Ftl::new(cfg, policy), MemExecutor::new(cfg.geometry, cfg.n_chips))
    }

    pub(super) fn setup(policy: SanitizePolicy) -> (Ftl, MemExecutor) {
        setup_with(FtlConfig::tiny_for_tests(), policy)
    }

    /// Single-chip setup so page placement is deterministic.
    pub(super) fn setup_one_chip(policy: SanitizePolicy) -> (Ftl, MemExecutor) {
        setup_with(FtlConfig { n_chips: 1, ..FtlConfig::tiny_for_tests() }, policy)
    }

    /// Single chip with the fault model armed (placement deterministic).
    pub(super) fn setup_faulty(policy: SanitizePolicy, faults: FaultConfig) -> (Ftl, MemExecutor) {
        let cfg = FtlConfig { n_chips: 1, faults, ..FtlConfig::tiny_for_tests() };
        let ftl = Ftl::new(cfg, policy);
        let ex = MemExecutor::with_faults(cfg.geometry, cfg.n_chips, faults);
        (ftl, ex)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::observer::Tee;

    #[test]
    fn write_read_roundtrip() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        ftl.write(&mut ex, &mut NullObserver, 5, false, 777);
        assert_eq!(ftl.read(&mut ex, 5).unwrap().tag(), 777);
        assert_eq!(ftl.read(&mut ex, 6), None);
        ftl.check_invariants();
    }

    #[test]
    fn overwrite_remaps_and_invalidates() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        ftl.write(&mut ex, &mut NullObserver, 0, false, 1);
        let first = ftl.mapped(0).unwrap();
        ftl.write(&mut ex, &mut NullObserver, 0, false, 2);
        let second = ftl.mapped(0).unwrap();
        assert_ne!(first, second, "append-only: overwrite uses a new page");
        assert_eq!(ftl.page_status(first), PageStatus::Invalid);
        assert_eq!(ftl.read(&mut ex, 0).unwrap().tag(), 2);
        assert_eq!(ftl.invalid_pages(), 1);
        ftl.check_invariants();
    }

    #[test]
    fn trim_unmaps() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        ftl.write(&mut ex, &mut NullObserver, 3, false, 9);
        ftl.trim(&mut ex, &mut NullObserver, &[3]);
        assert_eq!(ftl.mapped(3), None);
        assert_eq!(ftl.read(&mut ex, 3), None);
        ftl.check_invariants();
    }

    #[test]
    fn baseline_leaves_deleted_data_recoverable() {
        // The data-versioning vulnerability: without sanitization, a raw-chip
        // attacker recovers trimmed data.
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 4242);
        ftl.trim(&mut ex, &mut NullObserver, &[0]);
        let attacker = Attacker::new();
        // The first write lands on chip 0 (round-robin starts there).
        assert!(attacker.recover_tag(&mut ex.chips_mut()[0], 4242));
    }

    #[test]
    #[should_panic(expected = "out of logical space")]
    fn write_outside_logical_space_panics() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::none());
        let too_big = ftl.logical_pages();
        ftl.write(&mut ex, &mut NullObserver, too_big, false, 0);
    }

    #[test]
    fn trim_of_unmapped_lpas_is_harmless() {
        let (mut ftl, mut ex) = setup(SanitizePolicy::evanesco());
        ftl.write(&mut ex, &mut NullObserver, 0, true, 1);
        // Mix of mapped and never-written lpas.
        ftl.trim(&mut ex, &mut NullObserver, &[0, 5, 6]);
        assert_eq!(ftl.mapped(0), None);
        assert_eq!(ftl.stats().plocks, 1);
        ftl.check_invariants();
    }

    /// Overwrite and trim churn deep enough for GC, with coalescing, a
    /// flush and a recovery scan: every entry point that drains events.
    fn churn<O: FtlObserver>(obs: &mut O) -> (FtlStats, usize) {
        let cfg =
            FtlConfig { lock_coalescing: true, coalesce_window: 8, ..FtlConfig::tiny_for_tests() };
        let (mut ftl, mut ex) = setup_with(cfg, SanitizePolicy::evanesco());
        let logical = ftl.logical_pages();
        for i in 0..4 * logical {
            let lpa = i * 7 % logical;
            ftl.write(&mut ex, obs, lpa, i % 3 != 0, i);
            if i % 5 == 0 {
                ftl.trim(&mut ex, obs, &[(lpa + 3) % logical, (lpa + 4) % logical]);
            }
        }
        ftl.flush_coalesced(&mut ex, obs);
        ftl.recover(&mut ex, obs);
        ftl.check_invariants();
        assert!(ftl.stats().gc_invocations > 0 && ftl.stats().nand_erases > 0);
        (ftl.stats(), ftl.events.capacity())
    }

    #[test]
    fn events_are_buffered_only_for_an_observer_that_listens() {
        let mut direct: Vec<ObserverEvent> = Vec::new();
        let (stats, _) = churn(&mut direct);
        assert!(direct.len() > 1000, "the churn produces every kind of event");

        // Behind `Option` and `Tee` a listener sees the identical sequence.
        let mut wrapped = Vec::new();
        assert_eq!(churn(&mut Tee(None::<Vec<_>>, Some(&mut wrapped))).0, stats);
        assert!(wrapped == direct, "a wrapped observer lost or reordered events");

        // Nobody listening: the same run, and the batch never held an event.
        for cap in [churn(&mut NullObserver), churn(&mut Tee(None::<Vec<_>>, NullObserver))] {
            assert_eq!(cap, (stats, 0));
        }
    }
}
