//! The executor abstraction between FTL logic and the flash devices.
//!
//! The FTL decides *what* NAND operations happen; an executor applies them
//! to chips and (in the SSD emulator) accounts simulated time on the right
//! channel/chip resources. Keeping the FTL generic over the executor lets
//! unit tests drive it with a plain in-memory device array and lets the
//! emulator add timing without touching FTL logic.

use crate::addr::GlobalPpa;
use evanesco_core::chip::{EvanescoChip, FlagState};
use evanesco_core::fault::FaultConfig;
pub use evanesco_core::fault::OpStatus;
use evanesco_nand::chip::{PageData, PageOob};
use evanesco_nand::geometry::{BlockId, Geometry, Ppa};
use evanesco_nand::timing::Nanos;

/// Why the FTL is issuing the commands inside the current cause scope —
/// the attribution tag the latency-anatomy layer stamps onto trace
/// events so a blocked request can name *what kind of work* occupied
/// its resource (see `evanesco-ssd`'s `anatomy` module).
///
/// Causes nest (GC can trigger emergency GC, an escalation can scrub):
/// executors that care keep a stack via [`NandExecutor::push_cause`] /
/// [`NandExecutor::pop_cause`] and stamp the innermost entry. The tag is
/// purely observational — it must never change command timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OpCause {
    /// Foreground host-request work (the default outside any scope).
    #[default]
    Host,
    /// Garbage collection: victim selection, live-page copy, reclaim
    /// erases (including the lazy erase when opening a reclaimable block).
    Gc,
    /// Sanitization beyond the per-command lock kinds: erase-based or
    /// scrub-based sanitize passes and their sibling relocations.
    Sanitize,
    /// Fault-ladder work: reliability escalations, block retirement, and
    /// read-retry rounds.
    Retry,
}

impl OpCause {
    /// Stable lowercase label (Prometheus / chrome-trace args).
    pub fn label(self) -> &'static str {
        match self {
            OpCause::Host => "host",
            OpCause::Gc => "gc",
            OpCause::Sanitize => "sanitize",
            OpCause::Retry => "retry",
        }
    }
}

/// What a recovery scan learns about one physical page: occupancy, torn
/// state, lock margin, and (when readable) the FTL's OOB metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageProbe {
    /// Written (programmed, torn, or destroyed) since the last erase.
    pub written: bool,
    /// Holds a program interrupted by a power cut.
    pub torn: bool,
    /// Margin-read state of the page's pAP cells.
    pub lock: FlagState,
    /// OOB metadata, when the page decodes and is not access-blocked.
    pub oob: Option<PageOob>,
}

/// What a recovery scan learns about one block before touching its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockProbe {
    /// Next in-order program index (pages `0..next_program` are occupied).
    pub next_program: u32,
    /// The last erase of this block was interrupted (blank-check signature).
    pub torn_erase: bool,
    /// Margin-read state of the block's SSL (bAP) cells.
    pub lock: FlagState,
    /// The block carries the grown-bad retirement mark in its spare area.
    pub bad: bool,
}

/// Executes NAND operations for the FTL.
///
/// Implementations must apply each operation to the addressed chip;
/// timing-aware implementations additionally account latency.
pub trait NandExecutor {
    /// Reads a page; returns its data if it is programmed and not locked.
    fn read(&mut self, at: GlobalPpa) -> Option<PageData>;
    /// Programs a page, reporting the chip's pass/fail status. On `Failed`
    /// the page is consumed but holds an unreliable partial program.
    fn program(&mut self, at: GlobalPpa, data: PageData) -> OpStatus;
    /// Erases a block, reporting pass/fail. On `Failed` nothing was erased:
    /// data and lock flags keep their state.
    fn erase(&mut self, chip: usize, block: BlockId) -> OpStatus;
    /// Issues `pLock` on a page, reporting flag-program verify status. On
    /// `Failed` the flag cells are left torn (page still readable).
    fn p_lock(&mut self, at: GlobalPpa) -> OpStatus;
    /// Issues `bLock` on a block, reporting SSL-program verify status.
    fn b_lock(&mut self, chip: usize, block: BlockId) -> OpStatus;
    /// Destroys a page in place (one-shot scrub). Infallible: the scrub
    /// pulse needs no verify — it only has to move cells off their read
    /// levels, which a partial pulse already does.
    fn scrub(&mut self, at: GlobalPpa);
    /// Programs the grown-bad retirement sentinel into a block's spare
    /// area (see [`EvanescoChip::mark_bad_block`]).
    fn mark_bad(&mut self, chip: usize, block: BlockId);
    /// Recovery-scan probe of one page (costs a page read on timed
    /// implementations: the scan reads the page to get its OOB).
    fn probe_page(&mut self, at: GlobalPpa) -> PageProbe;
    /// Recovery-scan probe of one block (status-register class, untimed).
    fn probe_block(&mut self, chip: usize, block: BlockId) -> BlockProbe;
    /// Busy-waits `dur` on a chip (lock-retry backoff). Untimed
    /// implementations ignore it.
    fn stall(&mut self, _chip: usize, _dur: Nanos) {}

    /// Enters a cause scope: until the matching [`NandExecutor::pop_cause`],
    /// commands are attributed to `cause` (innermost scope wins). Purely
    /// observational; untimed executors ignore it.
    fn push_cause(&mut self, _cause: OpCause) {}

    /// Leaves the innermost cause scope (no-op when none is open).
    fn pop_cause(&mut self) {}

    /// Current value of the executor's clock, for observational timestamps
    /// (the FTL decision log). Reading it never advances time or issues a
    /// command, so instrumentation stays timing-neutral. Untimed
    /// implementations without any clock return zero.
    fn now(&self) -> Nanos {
        Nanos::ZERO
    }

    // -----------------------------------------------------------------
    // Dispatch/complete split (out-of-order host scheduling)
    // -----------------------------------------------------------------
    //
    // The multi-queue scheduler dispatches independent host requests with
    // an explicit dependency time (the moment the request's queue slot and
    // its per-LPA predecessors are done). A timed executor must therefore
    // distinguish *when a command chain may start* from *when it finishes*:
    // `begin_dispatch(earliest)` opens a window whose commands start no
    // earlier than `earliest` on their chip/channel resources, and
    // `end_dispatch` reports the completion time of everything issued in
    // the window. Untimed executors have no clock, so the defaults are
    // no-ops returning time zero.

    /// Opens a dispatch window: until [`NandExecutor::end_dispatch`], every
    /// command starts no earlier than `earliest` on its resources.
    fn begin_dispatch(&mut self, _earliest: Nanos) {}

    /// Closes the dispatch window and returns the simulated completion
    /// time of all commands issued inside it (zero on untimed executors).
    fn end_dispatch(&mut self) -> Nanos {
        Nanos::ZERO
    }
}

/// Shared [`NandExecutor::probe_page`] logic over one chip.
pub fn probe_page_on(chip: &mut EvanescoChip, ppa: Ppa) -> PageProbe {
    let written = chip.page_is_written(ppa).expect("probe in range");
    let torn = chip.page_is_torn(ppa).expect("probe in range");
    let lock = chip.page_flag_state(ppa);
    let oob = if written && !chip.is_access_blocked(ppa) {
        chip.read_oob(ppa).expect("probe in range")
    } else {
        None
    };
    PageProbe { written, torn, lock, oob }
}

/// Shared [`NandExecutor::probe_block`] logic over one chip.
pub fn probe_block_on(chip: &EvanescoChip, block: BlockId) -> BlockProbe {
    BlockProbe {
        next_program: chip.next_program_index(block),
        torn_erase: chip.block_torn_erase(block).expect("probe in range"),
        lock: chip.block_flag_state(block),
        bad: chip.is_marked_bad(block),
    }
}

/// A plain executor over an array of Evanesco chips with no timing — used
/// by FTL unit tests and functional (non-performance) experiments.
///
/// It keeps a monotonic operation counter as its clock: every NAND command
/// advances it by one, so erase timestamps are distinct and strictly
/// ordered no matter how calls interleave (the chips use the timestamp to
/// order erase→program open intervals).
#[derive(Debug, Clone)]
pub struct MemExecutor {
    chips: Vec<EvanescoChip>,
    /// Monotonic operation counter; doubles as the clock for operations
    /// (like erase) that must record a strictly increasing timestamp.
    ops: u64,
}

impl MemExecutor {
    /// Creates `n_chips` chips with the given geometry.
    pub fn new(geom: Geometry, n_chips: usize) -> Self {
        MemExecutor { chips: (0..n_chips).map(|_| EvanescoChip::new(geom)).collect(), ops: 0 }
    }

    /// Creates `n_chips` chips with the fault model armed on each (chips
    /// are decorrelated by index).
    pub fn with_faults(geom: Geometry, n_chips: usize, faults: FaultConfig) -> Self {
        let mut ex = Self::new(geom, n_chips);
        for (i, chip) in ex.chips.iter_mut().enumerate() {
            chip.enable_faults(faults, i as u64);
        }
        ex
    }

    /// Aggregated injected-fault counters across all chips.
    pub fn fault_totals(&self) -> evanesco_core::fault::FaultStats {
        let mut total = evanesco_core::fault::FaultStats::default();
        for chip in &self.chips {
            total.absorb(chip.fault_stats());
        }
        total
    }

    /// Advances the monotonic op counter and returns its new value as a
    /// timestamp (one tick per NAND command).
    fn tick(&mut self) -> Nanos {
        self.ops += 1;
        Nanos(self.ops)
    }

    /// The underlying chips.
    pub fn chips(&self) -> &[EvanescoChip] {
        &self.chips
    }

    /// Mutable access (e.g. to hand a chip to an attacker).
    pub fn chips_mut(&mut self) -> &mut [EvanescoChip] {
        &mut self.chips
    }
}

impl NandExecutor for MemExecutor {
    fn read(&mut self, at: GlobalPpa) -> Option<PageData> {
        self.tick();
        self.chips[at.chip].read_data(at.ppa).expect("FTL issues in-range reads")
    }

    fn program(&mut self, at: GlobalPpa, data: PageData) -> OpStatus {
        self.tick();
        self.chips[at.chip].program(at.ppa, data).expect("FTL issues legal programs");
        self.chips[at.chip].status()
    }

    fn erase(&mut self, chip: usize, block: BlockId) -> OpStatus {
        let now = self.tick();
        self.chips[chip].erase(block, now).expect("FTL erases in-range blocks");
        self.chips[chip].status()
    }

    fn p_lock(&mut self, at: GlobalPpa) -> OpStatus {
        self.tick();
        self.chips[at.chip].p_lock(at.ppa).expect("FTL locks programmed pages");
        self.chips[at.chip].status()
    }

    fn b_lock(&mut self, chip: usize, block: BlockId) -> OpStatus {
        self.tick();
        self.chips[chip].b_lock(block).expect("FTL locks in-range blocks");
        self.chips[chip].status()
    }

    fn scrub(&mut self, at: GlobalPpa) {
        self.tick();
        self.chips[at.chip].destroy_page(at.ppa).expect("FTL scrubs in-range pages");
    }

    fn mark_bad(&mut self, chip: usize, block: BlockId) {
        self.tick();
        self.chips[chip].mark_bad_block(block).expect("FTL marks in-range blocks");
    }

    fn probe_page(&mut self, at: GlobalPpa) -> PageProbe {
        self.tick();
        probe_page_on(&mut self.chips[at.chip], at.ppa)
    }

    fn probe_block(&mut self, chip: usize, block: BlockId) -> BlockProbe {
        probe_block_on(&self.chips[chip], block)
    }

    fn now(&self) -> Nanos {
        Nanos(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::Ppa;

    #[test]
    fn mem_executor_roundtrip() {
        let mut ex = MemExecutor::new(Geometry::small_tlc(), 2);
        let at = GlobalPpa::new(1, Ppa::new(0, 0));
        ex.program(at, PageData::tagged(5));
        assert_eq!(ex.read(at).unwrap().tag(), 5);
        ex.p_lock(at);
        assert_eq!(ex.read(at), None);
        ex.erase(1, BlockId(0));
        assert_eq!(ex.read(at), None); // erased now
        assert_eq!(ex.chips().len(), 2);
    }

    #[test]
    fn block_via_executor() {
        let mut ex = MemExecutor::new(Geometry::small_tlc(), 1);
        let at = GlobalPpa::new(0, Ppa::new(2, 0));
        ex.program(at, PageData::tagged(9));
        ex.b_lock(0, BlockId(2));
        assert_eq!(ex.read(at), None);
    }

    #[test]
    fn erase_timestamps_are_distinct_and_ordered() {
        // The op-counter clock must hand every erase a strictly increasing
        // timestamp even when other commands interleave arbitrarily.
        let mut ex = MemExecutor::new(Geometry::small_tlc(), 2);
        ex.erase(0, BlockId(0));
        let t0 = ex.chips()[0].last_erase_at(BlockId(0)).unwrap();
        ex.program(GlobalPpa::new(1, Ppa::new(0, 0)), PageData::tagged(1));
        ex.read(GlobalPpa::new(1, Ppa::new(0, 0)));
        ex.erase(1, BlockId(3));
        let t1 = ex.chips()[1].last_erase_at(BlockId(3)).unwrap();
        ex.erase(0, BlockId(1));
        let t2 = ex.chips()[0].last_erase_at(BlockId(1)).unwrap();
        assert!(t0 < t1 && t1 < t2, "erase clock must be strictly monotonic: {t0} {t1} {t2}");
    }

    #[test]
    fn dispatch_split_is_a_no_op_on_untimed_executors() {
        let mut ex = MemExecutor::new(Geometry::small_tlc(), 1);
        ex.begin_dispatch(Nanos(123));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert_eq!(ex.end_dispatch(), Nanos::ZERO);
        assert_eq!(ex.read(GlobalPpa::new(0, Ppa::new(0, 0))).unwrap().tag(), 1);
    }

    #[test]
    fn scrub_via_executor() {
        let mut ex = MemExecutor::new(Geometry::small_tlc(), 1);
        let at = GlobalPpa::new(0, Ppa::new(0, 0));
        ex.program(at, PageData::tagged(9));
        ex.scrub(at);
        assert_eq!(ex.read(at), None);
    }
}
