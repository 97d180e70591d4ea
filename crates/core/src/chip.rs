//! The Evanesco-enhanced NAND chip: `pLock`, `bLock`, and on-chip read
//! gating (paper §5.2, Figure 7).
//!
//! The wrapper holds the behavioral access-permission state (one pAP bit
//! per page, one bAP bit per block — the *decoded* values the majority
//! circuit / SSL sensing would produce) and enforces the access rules:
//!
//! * a read first checks the block's bAP, then the page's pAP; if either is
//!   disabled the chip outputs **all-zero data** and never drives the
//!   data-out pins from the page buffer;
//! * `pLock`/`bLock` set flags; **no API exists to clear them** — only
//!   [`EvanescoChip::erase`] resets flags, and erasing destroys the data;
//! * flags live in flash cells, so they survive power cycles and chip
//!   de-soldering (cloning the chip state preserves them — see
//!   [`crate::threat`]).
//!
//! Device-level reliability of the flags themselves is modeled separately
//! in [`crate::pap`] / [`crate::bap`]; the behavioral layer uses the decoded
//! values, which the design-space exploration guarantees error-free for the
//! selected parameters.

use crate::bap::BapConfig;
use crate::error::{EvanescoError, InvalidRetention};
use crate::fault::{FaultConfig, FaultModel, FaultStats, OpStatus, ReadReliability};
use crate::pap::PapConfig;
use evanesco_nand::chip::{Chip, PageContent, PageData, PageOob};
use evanesco_nand::geometry::{BlockId, Geometry, PageLayout, Ppa};
use evanesco_nand::timing::{Nanos, TimingSpec};
use evanesco_nand::NandError;

/// Fraction of `tBERS` after which an interrupted erase has wiped the
/// pAP/bAP flag cells. Flags are programmed at low voltage (shallow charge),
/// so erase pulses clear them *before* the data pages are destroyed — an
/// interrupted erase can therefore unlock still-recoverable data. The
/// torn-erase signature ([`evanesco_nand::chip::Chip::block_torn_erase`])
/// closes this hole: recovery re-erases every torn block before serving
/// reads.
pub const TORN_ERASE_FLAG_WIPE_FRACTION: f64 = 0.15;

/// Number of SSL cells modeled for a torn `bLock` draw.
const SSL_CELLS: u32 = 4;

/// Decoded state of one lock-flag group (the k pAP cells of a page, or the
/// SSL cells of a block). One byte (the `bool` rides in the discriminant's
/// niche), so a chip's flag table is a dense byte column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlagState {
    /// No lock command ever touched these cells.
    #[default]
    Clean,
    /// A lock command (or an erase of locked cells) was interrupted:
    /// some cells carry charge, some do not. `reads_locked` is what the
    /// k=9 majority circuit / SSL sensing decodes *today*, but the margin
    /// is degraded — a margin read distinguishes this from both `Clean`
    /// and `Locked`, and recovery must re-issue the lock either way.
    Torn {
        /// Current (unreliable) decode of the degraded cells.
        reads_locked: bool,
    },
    /// Lock completed; decodes as locked with full margin.
    Locked,
}

impl FlagState {
    /// What the access-control circuit decodes right now.
    #[inline]
    pub fn reads_locked(self) -> bool {
        matches!(self, FlagState::Locked | FlagState::Torn { reads_locked: true })
    }

    /// Whether the cells are in the degraded partial-program state.
    pub fn is_torn(self) -> bool {
        matches!(self, FlagState::Torn { .. })
    }
}

/// Deterministic per-cell uniform draw in `[0, 1)` for torn-operation
/// modeling (SplitMix64 finalizer over the operation salt and cell
/// coordinates). Pure function: identical runs make identical draws.
/// Shared with [`crate::fault`] for runtime fault draws.
pub(crate) fn unit_draw(salt: u64, a: u64, b: u64, cell: u64) -> f64 {
    let mut z = salt
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.rotate_left(17).wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ cell.wrapping_mul(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What an Evanesco-gated read returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResult {
    /// Access blocked by a pAP or bAP flag: the interface returns data with
    /// all bits set to `0`.
    Locked,
    /// Normal read: the underlying page content.
    Content(PageContent),
}

impl ReadResult {
    /// Programmed data, if the read exposed any.
    pub fn data(&self) -> Option<&PageData> {
        match self {
            ReadResult::Locked => None,
            ReadResult::Content(c) => c.data(),
        }
    }
}

/// Result of a gated read: outcome plus array latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureReadOutput {
    /// The gated outcome.
    pub result: ReadResult,
    /// Array-access latency (a locked read still senses the array and the
    /// flag cells; latency is unchanged).
    pub latency: Nanos,
}

/// Lock-command counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// `pLock` commands executed.
    pub plocks: u64,
    /// `bLock` commands executed.
    pub blocks: u64,
}

/// A NAND chip extended with the Evanesco lock mechanism.
#[derive(Debug, Clone)]
pub struct EvanescoChip {
    inner: Chip,
    /// Flat addressing of `pap_locked` (the same as the inner chip's store).
    layout: PageLayout,
    /// pAP flag state per page, one byte each, indexed through `layout`.
    /// In behavioral mode this is the truth; in device mode it records the
    /// FTL's *intent* while the physical cells decide actual gating.
    pap_locked: Vec<FlagState>,
    /// bAP flag state per block (intent in device mode).
    bap_locked: Vec<FlagState>,
    pap_config: PapConfig,
    bap_config: BapConfig,
    lock_stats: LockStats,
    /// Runtime fault model: probabilistic program/erase/lock/read failures
    /// plus the forced lock-failure test hook (one injection path for tests
    /// and runtime — see [`crate::fault`]).
    fault: FaultModel,
    /// Status register: pass/fail of the last fallible command (the NAND
    /// `READ STATUS` model). Executors read this after each op.
    status: OpStatus,
    /// Reference-shift retries the last data read needed (timed executors
    /// charge `tR` per retry).
    last_read_retries: u32,
    /// Grown-bad-block marks: a sentinel programmed into the block's spare
    /// area when the FTL retires it. Never cleared — firmware does not
    /// erase retired blocks, so the mark survives power loss like any
    /// flash-resident state.
    bad_mark: Vec<bool>,
    /// Optional physical flag-cell simulation (see
    /// [`crate::device_flags`]); when present, read gating consults the
    /// physical cells instead of the decoded intent.
    device_flags: Option<crate::device_flags::FlagDeviceSim>,
}

impl EvanescoChip {
    /// Creates a chip with paper timing and the paper's flag configurations.
    pub fn new(geom: Geometry) -> Self {
        Self::with_timing(geom, TimingSpec::paper())
    }

    /// Creates a chip with explicit timing.
    pub fn with_timing(geom: Geometry, timing: TimingSpec) -> Self {
        let layout = geom.layout();
        EvanescoChip {
            inner: Chip::with_timing(geom, timing),
            layout,
            pap_locked: vec![FlagState::Clean; layout.pages()],
            bap_locked: vec![FlagState::Clean; layout.blocks()],
            pap_config: PapConfig::paper(),
            bap_config: BapConfig::paper(),
            lock_stats: LockStats::default(),
            fault: FaultModel::disabled(),
            status: OpStatus::Ok,
            last_read_retries: 0,
            bad_mark: vec![false; geom.blocks as usize],
            device_flags: None,
        }
    }

    /// Arms the runtime fault model. `chip_id` decorrelates chips that
    /// share a seed. Both `run` and `run_scheduled` paths go through the
    /// chip, so both see the same hazards.
    pub fn enable_faults(&mut self, cfg: FaultConfig, chip_id: u64) {
        self.fault = FaultModel::new(cfg, chip_id);
    }

    /// Injected-failure counters of the fault model.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats()
    }

    /// Pass/fail status of the last fallible command (`READ STATUS`).
    pub fn status(&self) -> OpStatus {
        self.status
    }

    /// Reference-shift retries the last data read performed.
    pub fn last_read_retries(&self) -> u32 {
        self.last_read_retries
    }

    /// Switches the chip to **device mode**: locks program physical flag
    /// cells under the given configurations, and read gating decodes those
    /// cells. Use [`EvanescoChip::age_flags`] to apply retention.
    pub fn enable_device_flags(&mut self, pap: PapConfig, bap: BapConfig, seed: u64) {
        self.pap_config = pap;
        self.bap_config = bap;
        let geom = self.inner.geometry();
        self.device_flags = Some(crate::device_flags::FlagDeviceSim::new(
            pap,
            bap,
            seed,
            geom.blocks,
            geom.pages_per_block(),
        ));
    }

    /// Applies `days` of retention to the physical flags (device mode
    /// only; a no-op in behavioral mode, where the DSE-validated
    /// parameters guarantee error-free flags for the rated lifetime).
    ///
    /// # Errors
    ///
    /// Rejects a negative or non-finite span in either mode, leaving every
    /// flag as it was.
    pub fn age_flags(&mut self, days: f64) -> Result<(), InvalidRetention> {
        match &mut self.device_flags {
            Some(sim) => sim.age(days),
            None => InvalidRetention::check(days).map(drop),
        }
    }

    /// Locked pages whose physical flag no longer decodes as disabled —
    /// sanitization holes (device mode only; empty in behavioral mode).
    pub fn flag_leaks(&self) -> (usize, usize) {
        match &self.device_flags {
            Some(sim) => (sim.leaked_page_flags(), sim.leaked_block_flags()),
            None => (0, 0),
        }
    }

    /// The chip geometry.
    pub fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }

    /// The latency table.
    pub fn timing(&self) -> &TimingSpec {
        self.inner.timing()
    }

    /// The underlying behavioral chip's operation counters.
    pub fn nand_stats(&self) -> evanesco_nand::chip::ChipStats {
        self.inner.stats()
    }

    /// Lock-command counters.
    pub fn lock_stats(&self) -> LockStats {
        self.lock_stats
    }

    /// The pAP flag configuration.
    pub fn pap_config(&self) -> PapConfig {
        self.pap_config
    }

    /// The bAP flag configuration.
    pub fn bap_config(&self) -> BapConfig {
        self.bap_config
    }

    /// Serializes the full chip state — the behavioral NAND substrate, the
    /// decoded pAP/bAP flag intent, flag configurations, lock/fault
    /// counters, status register, bad-block marks, and (in device mode) the
    /// physical flag-cell simulation — into a checkpoint stream.
    pub fn encode_state(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.tag(0x22);
        self.inner.encode_state(e);
        for &f in self.pap_locked.iter().chain(&self.bap_locked) {
            e.u8(encode_flag_state(f));
        }
        e.usize(self.pap_config.k);
        e.u8(self.pap_config.point.v_index);
        e.u32(self.pap_config.point.t_us);
        e.u8(self.bap_config.point.v_index);
        e.u32(self.bap_config.point.t_us);
        e.u64(self.lock_stats.plocks);
        e.u64(self.lock_stats.blocks);
        self.fault.encode_state(e);
        e.u8(match self.status {
            OpStatus::Ok => 0,
            OpStatus::Failed => 1,
        });
        e.u32(self.last_read_retries);
        for &b in &self.bad_mark {
            e.bool(b);
        }
        e.opt(&self.device_flags, |e, sim| sim.encode_state(e));
    }

    /// Restores state written by [`EvanescoChip::encode_state`] into this
    /// chip. The chip must have been constructed against the same geometry
    /// and (for fault-stream continuity) the same fault configuration; the
    /// tables the geometry sizes are filled in place, and the fault model's
    /// dynamic state is overlaid on the armed model.
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption.
    pub fn decode_state(
        &mut self,
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<(), evanesco_nand::snapshot::SnapshotError> {
        use crate::calibration::DesignPoint;
        use evanesco_nand::snapshot::SnapshotError;
        d.expect_tag(0x22, "evanesco-chip")?;
        self.inner.decode_state(d)?;
        for f in self.pap_locked.iter_mut().chain(&mut self.bap_locked) {
            *f = decode_flag_state(d)?;
        }
        let k = d.usize()?;
        self.pap_config = PapConfig { k, point: DesignPoint::new(d.u8()?, d.u32()?) };
        self.bap_config = BapConfig { point: DesignPoint::new(d.u8()?, d.u32()?) };
        self.lock_stats = LockStats { plocks: d.u64()?, blocks: d.u64()? };
        self.fault.decode_state(d)?;
        self.status = match d.u8()? {
            0 => OpStatus::Ok,
            1 => OpStatus::Failed,
            b => return Err(SnapshotError::Corrupt(format!("unknown op status {b:#04x}"))),
        };
        self.last_read_retries = d.u32()?;
        for m in &mut self.bad_mark {
            *m = d.bool()?;
        }
        let (pap, bap, geom) = (self.pap_config, self.bap_config, self.inner.geometry());
        let (blocks, ppb) = (geom.blocks, geom.pages_per_block());
        self.device_flags =
            d.opt(|d| crate::device_flags::FlagDeviceSim::decode_state(d, pap, bap, blocks, ppb))?;
        Ok(())
    }

    /// Per-block table index of `block`.
    #[inline]
    fn check_block(&self, block: BlockId) -> Result<usize, EvanescoError> {
        self.layout.block(block).map_err(|_| EvanescoError::BadBlock { block })
    }

    /// Whether a page is individually locked (pAP disabled). In device
    /// mode this decodes the physical flag cells.
    ///
    /// # Panics
    ///
    /// Panics, naming the address, if `ppa` is out of range.
    pub fn is_page_locked(&self, ppa: Ppa) -> bool {
        self.page_locked_at(ppa, self.layout.expect_page(ppa))
    }

    /// [`EvanescoChip::is_page_locked`] of a page whose flat index is known.
    #[inline]
    fn page_locked_at(&self, ppa: Ppa, i: usize) -> bool {
        match &self.device_flags {
            Some(sim) => sim.page_reads_locked(ppa),
            None => self.pap_locked[i].reads_locked(),
        }
    }

    /// Whether a whole block is locked (bAP disabled). In device mode this
    /// senses the physical SSL.
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    #[inline]
    pub fn is_block_locked(&self, block: BlockId) -> bool {
        let b = self.layout.expect_block(block);
        match &self.device_flags {
            Some(sim) => sim.block_reads_locked(block),
            None => self.bap_locked[b].reads_locked(),
        }
    }

    /// Margin-read probe of a page's pAP cells: distinguishes clean,
    /// torn (degraded), and fully-locked cells. This is what the recovery
    /// scan uses to find locks that were lost mid-flight. In device mode
    /// it reports the recorded intent (the physical sim keeps only the
    /// decoded value).
    ///
    /// # Panics
    ///
    /// Panics, naming the address, if `ppa` is out of range.
    pub fn page_flag_state(&self, ppa: Ppa) -> FlagState {
        self.pap_locked[self.layout.expect_page(ppa)]
    }

    /// Margin-read probe of a block's SSL cells (see
    /// [`EvanescoChip::page_flag_state`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    pub fn block_flag_state(&self, block: BlockId) -> FlagState {
        self.bap_locked[self.layout.expect_block(block)]
    }

    /// Whether a read of this page would be blocked (bAP checked first,
    /// then pAP — Figure 7b).
    ///
    /// # Panics
    ///
    /// Panics, naming the address, if `ppa` is out of range.
    pub fn is_access_blocked(&self, ppa: Ppa) -> bool {
        self.blocked_at(ppa, self.layout.expect_page(ppa))
    }

    /// The read gate over a page whose flat index is known: bAP, then pAP.
    #[inline]
    fn blocked_at(&self, ppa: Ppa, i: usize) -> bool {
        self.is_block_locked(ppa.block) || self.page_locked_at(ppa, i)
    }

    /// The one gated read (Figure 7). The array is sensed (address check,
    /// read counted), then bAP and pAP are tested; only an exposed page is
    /// handed to `view`, so a locked read builds nothing — `None` is the
    /// all-zero output. The read-retry ladder runs only when ECC decodes a
    /// cleanly programmed page: locked, erased and torn reads never
    /// declare UNC. Terminal UNC is recovered by soft-decision decoding
    /// (the host still gets the data), counted as a reliability event.
    ///
    /// Every read of this chip is this function with one of the inner
    /// chip's `*_at` views: [`EvanescoChip::read`] for whoever wants the
    /// whole interface content, [`EvanescoChip::read_data`] and
    /// [`EvanescoChip::read_oob`] for the executors.
    #[inline]
    fn sense_and_gate<R>(
        &mut self,
        ppa: Ppa,
        view: impl FnOnce(&Chip, usize) -> R,
    ) -> Result<Option<R>, NandError> {
        let i = self.inner.sense(ppa)?;
        if self.blocked_at(ppa, i) {
            self.last_read_retries = 0;
            return Ok(None);
        }
        let rel = if self.inner.holds_data_at(i) {
            self.fault.read_outcome(ppa.block.0, ppa.page.0)
        } else {
            ReadReliability::default()
        };
        self.last_read_retries = rel.retries;
        Ok(Some(view(&self.inner, i)))
    }

    /// Gated page read (Figure 7): returns all-zero for locked pages.
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn read(&mut self, ppa: Ppa) -> Result<SecureReadOutput, EvanescoError> {
        let result = match self.sense_and_gate(ppa, Chip::content_at)? {
            None => ReadResult::Locked,
            Some(content) => ReadResult::Content(content),
        };
        Ok(SecureReadOutput { result, latency: self.timing().t_read })
    }

    /// Gated data read, as a controller serves it: the page's data area
    /// (tag and payload, no spare area: [`EvanescoChip::read_oob`] reads
    /// that) when it is cleanly programmed and exposed, `None` for a locked,
    /// erased, destroyed or torn page. Same operation as
    /// [`EvanescoChip::read`] (same counters, same retry ladder) without the
    /// interface wrapping.
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    #[inline]
    pub fn read_data(&mut self, ppa: Ppa) -> Result<Option<PageData>, EvanescoError> {
        Ok(self.sense_and_gate(ppa, Chip::data_at)?.flatten())
    }

    /// Gated spare-area read, as a recovery scan issues it: the OOB
    /// metadata of an exposed page whose data decodes (a torn-but-readable
    /// page included).
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    #[inline]
    pub fn read_oob(&mut self, ppa: Ppa) -> Result<Option<PageOob>, EvanescoError> {
        Ok(self.sense_and_gate(ppa, Chip::oob_at)?.flatten())
    }

    /// Programs a page (passes through to the underlying chip; programming
    /// uses SBPI to inhibit the flag cells, so pAP flags stay enabled).
    ///
    /// Under the fault model a program can fail status: the page is
    /// consumed and holds an unreliable partial program (torn), and
    /// [`EvanescoChip::status`] reports `Failed` — the FTL must remap the
    /// write to a fresh page.
    ///
    /// # Errors
    ///
    /// Propagates the underlying chip's program-rule violations.
    #[inline]
    pub fn program(&mut self, ppa: Ppa, data: PageData) -> Result<Nanos, EvanescoError> {
        if self.fault.program_fails(ppa.block.0, ppa.page.0) {
            self.inner.interrupt_program(ppa, data, 0.8)?;
            self.status = OpStatus::Failed;
            return Ok(self.timing().t_prog);
        }
        let lat = self.inner.program(ppa, data)?;
        self.status = OpStatus::Ok;
        Ok(lat)
    }

    /// `pLock <ppn>`: disables access to one page by programming its pAP
    /// flag cells (one-shot, low-voltage, SBPI-inhibited).
    ///
    /// Idempotent: locking a locked page is a no-op that still costs
    /// `tpLock`.
    ///
    /// # Errors
    ///
    /// * [`EvanescoError::LockOnUnwrittenPage`] if the page was never
    ///   programmed (an FTL invariant violation);
    /// * address errors from the underlying chip.
    pub fn p_lock(&mut self, ppa: Ppa) -> Result<Nanos, EvanescoError> {
        if !self.inner.page_is_written(ppa)? {
            return Err(EvanescoError::LockOnUnwrittenPage { ppa });
        }
        let i = self.layout.page(ppa)?;
        if self.fault.plock_fails(ppa.block.0, ppa.page.0) {
            self.pap_locked[i] = FlagState::Torn { reads_locked: false };
            self.lock_stats.plocks += 1;
            self.status = OpStatus::Failed;
            return Ok(self.timing().t_plock);
        }
        self.pap_locked[i] = FlagState::Locked;
        if let Some(sim) = &mut self.device_flags {
            sim.program_page_flag(ppa);
        }
        self.lock_stats.plocks += 1;
        self.status = OpStatus::Ok;
        Ok(self.timing().t_plock)
    }

    /// `bLock <pbn>`: disables access to an entire block by programming its
    /// SSL cells. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`EvanescoError::BadBlock`] for an out-of-range block.
    pub fn b_lock(&mut self, block: BlockId) -> Result<Nanos, EvanescoError> {
        let b = self.check_block(block)?;
        if self.fault.block_lock_fails(block.0) {
            self.bap_locked[b] = FlagState::Torn { reads_locked: false };
            self.lock_stats.blocks += 1;
            self.status = OpStatus::Failed;
            return Ok(self.timing().t_block);
        }
        self.bap_locked[b] = FlagState::Locked;
        if let Some(sim) = &mut self.device_flags {
            sim.program_block_flag(block);
        }
        self.lock_stats.blocks += 1;
        self.status = OpStatus::Ok;
        Ok(self.timing().t_block)
    }

    /// Fault injection: makes the next `n` lock commands (`pLock` or
    /// `bLock`) fail program-verify, leaving their flag cells torn. This is
    /// the same injection path the probabilistic fault model uses (see
    /// [`crate::fault::FaultModel::force_lock_failures`]).
    pub fn inject_lock_verify_failures(&mut self, n: u32) {
        self.fault.force_lock_failures(n);
    }

    /// Erases a block: destroys all data **and only then** re-enables the
    /// pAP/bAP flags — the single path by which a lock disappears.
    ///
    /// Under the fault model an erase can fail status: nothing is erased
    /// (data *and* lock flags keep their state) and
    /// [`EvanescoChip::status`] reports `Failed` — the FTL retries and
    /// eventually retires the block.
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn erase(&mut self, block: BlockId, now: Nanos) -> Result<Nanos, EvanescoError> {
        let b = self.check_block(block)?;
        if self.fault.erase_fails(block.0) {
            self.status = OpStatus::Failed;
            return Ok(self.timing().t_bers);
        }
        let lat = self.inner.erase(block, now)?;
        self.pap_locked[self.layout.block_pages(block)?].fill(FlagState::Clean);
        self.bap_locked[b] = FlagState::Clean;
        if let Some(sim) = &mut self.device_flags {
            sim.erase_block(block);
        }
        self.status = OpStatus::Ok;
        Ok(lat)
    }

    /// Marks a block grown-bad by programming a retirement sentinel into
    /// its spare area (the factory bad-block-marking idiom: programming
    /// bits toward `0` works even on a block whose erase fails). The mark
    /// is never cleared — firmware never erases a retired block — so it
    /// survives power loss and is rebuilt by the recovery scan.
    ///
    /// # Errors
    ///
    /// Returns [`EvanescoError::BadBlock`] for an out-of-range block.
    pub fn mark_bad_block(&mut self, block: BlockId) -> Result<Nanos, EvanescoError> {
        let b = self.check_block(block)?;
        self.bad_mark[b] = true;
        self.status = OpStatus::Ok;
        Ok(self.timing().t_prog)
    }

    /// Whether the block carries the grown-bad retirement mark.
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    pub fn is_marked_bad(&self, block: BlockId) -> bool {
        self.bad_mark[self.layout.expect_block(block)]
    }

    /// Models a `pLock` interrupted after `fraction` of `tpLock`: each of
    /// the k pAP cells independently got programmed with probability
    /// `fraction` (deterministic draws keyed on `salt`). The result is
    /// `Clean` (no cell fired), `Locked` (all fired), or `Torn` with
    /// whatever the majority circuit decodes from the partial set.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`EvanescoChip::p_lock`].
    pub fn interrupt_p_lock(
        &mut self,
        ppa: Ppa,
        fraction: f64,
        salt: u64,
    ) -> Result<(), EvanescoError> {
        if !self.inner.page_is_written(ppa)? {
            return Err(EvanescoError::LockOnUnwrittenPage { ppa });
        }
        let slot = &mut self.pap_locked[self.layout.page(ppa)?];
        if *slot == FlagState::Locked {
            return Ok(()); // re-lock of completed cells: nothing to degrade
        }
        let k = self.pap_config.k;
        let fired = (0..k)
            .filter(|&c| {
                unit_draw(salt, u64::from(ppa.block.0), u64::from(ppa.page.0), c as u64) < fraction
            })
            .count();
        *slot = if fired == 0 {
            FlagState::Clean
        } else if fired == k {
            FlagState::Locked
        } else {
            FlagState::Torn { reads_locked: 2 * fired > k }
        };
        Ok(())
    }

    /// Models a `bLock` interrupted after `fraction` of `tbLock` (see
    /// [`EvanescoChip::interrupt_p_lock`]; the SSL is modeled as a small
    /// group of cells).
    ///
    /// # Errors
    ///
    /// Returns [`EvanescoError::BadBlock`] for an out-of-range block.
    pub fn interrupt_b_lock(
        &mut self,
        block: BlockId,
        fraction: f64,
        salt: u64,
    ) -> Result<(), EvanescoError> {
        let b = self.check_block(block)?;
        let slot = &mut self.bap_locked[b];
        if *slot == FlagState::Locked {
            return Ok(());
        }
        let fired = (0..SSL_CELLS)
            .filter(|&c| unit_draw(salt, u64::from(block.0), 0x55AA, u64::from(c)) < fraction)
            .count() as u32;
        *slot = if fired == 0 {
            FlagState::Clean
        } else if fired == SSL_CELLS {
            FlagState::Locked
        } else {
            FlagState::Torn { reads_locked: 2 * fired > SSL_CELLS }
        };
        Ok(())
    }

    /// Models an erase interrupted after `fraction` of `tBERS`. Data decays
    /// per [`evanesco_nand::chip::Chip::interrupt_erase`]; the low-voltage
    /// flag cells decay *faster* (fully cleared past
    /// [`TORN_ERASE_FLAG_WIPE_FRACTION`]), so a torn erase can drop a lock
    /// while the locked data is still recoverable. The block keeps its
    /// torn-erase signature, which recovery uses to finish the erase before
    /// any host read is served.
    ///
    /// # Errors
    ///
    /// Returns a bad-block error for an out-of-range block.
    pub fn interrupt_erase(
        &mut self,
        block: BlockId,
        fraction: f64,
        salt: u64,
    ) -> Result<(), EvanescoError> {
        let bi = self.check_block(block)?;
        self.inner.interrupt_erase(block, fraction)?;
        let progress = fraction / TORN_ERASE_FLAG_WIPE_FRACTION;
        let k = self.pap_config.k;
        let pages = self.layout.block_pages(block)?;
        for (page, slot) in self.pap_locked[pages].iter_mut().enumerate() {
            if *slot == FlagState::Clean {
                continue;
            }
            let surviving = (0..k)
                .filter(|&c| {
                    unit_draw(salt, u64::from(block.0), page as u64, c as u64 | 1 << 32) >= progress
                })
                .count();
            *slot = if surviving == 0 {
                FlagState::Clean
            } else {
                // Even surviving cells lost margin: always torn.
                FlagState::Torn { reads_locked: 2 * surviving > k }
            };
        }
        let bslot = &mut self.bap_locked[bi];
        if *bslot != FlagState::Clean {
            let surviving = (0..SSL_CELLS)
                .filter(|&c| {
                    unit_draw(salt, u64::from(block.0), 0xB10C, u64::from(c) | 1 << 33) >= progress
                })
                .count() as u32;
            *bslot = if surviving == 0 {
                FlagState::Clean
            } else {
                FlagState::Torn { reads_locked: 2 * surviving > SSL_CELLS }
            };
        }
        if let Some(sim) = &mut self.device_flags {
            if progress >= 1.0 {
                sim.erase_block(block);
            }
        }
        Ok(())
    }

    /// Models a program interrupted after `fraction` of `tPROG`
    /// (passthrough to [`evanesco_nand::chip::Chip::interrupt_program`];
    /// SBPI keeps the flag cells inhibited, so they are unaffected).
    ///
    /// # Errors
    ///
    /// Same preconditions as [`EvanescoChip::program`].
    pub fn interrupt_program(
        &mut self,
        ppa: Ppa,
        data: PageData,
        fraction: f64,
    ) -> Result<(), EvanescoError> {
        Ok(self.inner.interrupt_program(ppa, data, fraction)?)
    }

    /// Models a scrub interrupted after `fraction` of `tscrub`
    /// (passthrough to [`evanesco_nand::chip::Chip::interrupt_scrub`]).
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn interrupt_scrub(&mut self, ppa: Ppa, fraction: f64) -> Result<(), EvanescoError> {
        Ok(self.inner.interrupt_scrub(ppa, fraction)?)
    }

    /// Whether a page has been written since the last erase (metadata
    /// probe; includes torn and destroyed pages).
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn page_is_written(&self, ppa: Ppa) -> Result<bool, EvanescoError> {
        Ok(self.inner.page_is_written(ppa)?)
    }

    /// Whether a page holds a torn (interrupted) program.
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn page_is_torn(&self, ppa: Ppa) -> Result<bool, EvanescoError> {
        Ok(self.inner.page_is_torn(ppa)?)
    }

    /// Whether the last erase of `block` was interrupted (power-up
    /// blank-check signature).
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn block_torn_erase(&self, block: BlockId) -> Result<bool, EvanescoError> {
        Ok(self.inner.block_torn_erase(block)?)
    }

    /// Destroys a page in place (scrubbing; used by the scrSSD baseline,
    /// which does not rely on locks).
    ///
    /// # Errors
    ///
    /// Propagates address errors from the underlying chip.
    pub fn destroy_page(&mut self, ppa: Ppa) -> Result<Nanos, EvanescoError> {
        Ok(self.inner.destroy_page(ppa)?)
    }

    /// Erase count of a block.
    ///
    /// # Panics
    ///
    /// Like the two probes below, panics, naming the block, if it is out
    /// of range.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.inner.erase_count(block)
    }

    /// Time of the last erase of `block`, if it was ever erased.
    #[inline]
    pub fn last_erase_at(&self, block: BlockId) -> Option<Nanos> {
        self.inner.last_erase_at(block)
    }

    /// Next in-order programmable page index of a block.
    pub fn next_program_index(&self, block: BlockId) -> u32 {
        self.inner.next_program_index(block)
    }

    /// Interface-level dump of a block, **as an attacker sees it**: every
    /// page is read through the gated path, so locked pages appear as
    /// all-zero ([`ReadResult::Locked`]).
    pub fn interface_dump_block(&mut self, block: BlockId) -> Vec<ReadResult> {
        let pages = self.geometry().pages_per_block();
        (0..pages)
            .map(|p| {
                self.read(Ppa { block, page: evanesco_nand::geometry::PageId(p) })
                    .expect("in-range page")
                    .result
            })
            .collect()
    }
}

fn encode_flag_state(f: FlagState) -> u8 {
    match f {
        FlagState::Clean => 0,
        FlagState::Torn { reads_locked: false } => 1,
        FlagState::Torn { reads_locked: true } => 2,
        FlagState::Locked => 3,
    }
}

fn decode_flag_state(
    d: &mut evanesco_nand::snapshot::Dec<'_>,
) -> Result<FlagState, evanesco_nand::snapshot::SnapshotError> {
    Ok(match d.u8()? {
        0 => FlagState::Clean,
        1 => FlagState::Torn { reads_locked: false },
        2 => FlagState::Torn { reads_locked: true },
        3 => FlagState::Locked,
        b => {
            return Err(evanesco_nand::snapshot::SnapshotError::Corrupt(format!(
                "unknown flag state {b:#04x}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::PageId;
    use evanesco_nand::NandError;

    fn chip() -> EvanescoChip {
        EvanescoChip::new(Geometry::small_tlc())
    }

    fn fill(chip: &mut EvanescoChip, block: u32, pages: u32) {
        for p in 0..pages {
            chip.program(Ppa::new(block, p), PageData::tagged(1000 + p as u64)).unwrap();
        }
    }

    #[test]
    fn flag_state_is_one_byte() {
        assert_eq!(std::mem::size_of::<FlagState>(), 1, "the pAP table is a byte column");
    }

    #[test]
    fn flat_flag_indices_do_not_alias_the_next_block() {
        let mut c = chip();
        let ppb = c.geometry().pages_per_block();
        fill(&mut c, 1, 1);
        c.p_lock(Ppa::new(1, 0)).unwrap();
        // Block 0 "page ppb" is block 1 page 0's cell in the flat table: it
        // must be refused, not answered `Locked`.
        let past = Ppa::new(0, ppb);
        let bad = || EvanescoError::Nand(NandError::BadAddress { ppa: past });
        assert_eq!(c.read(past), Err(bad()));
        assert_eq!(c.read_data(past), Err(bad()));
        assert_eq!(c.read_oob(past), Err(bad()));
        assert_eq!(c.p_lock(past), Err(bad()));
        assert_eq!(c.interrupt_p_lock(past, 0.5, 1), Err(bad()));
        assert_eq!(c.page_is_written(past), Err(bad()));
        for probe in [
            |c: &EvanescoChip, p: Ppa| {
                c.page_flag_state(p);
            },
            |c: &EvanescoChip, p: Ppa| {
                c.is_page_locked(p);
            },
            |c: &EvanescoChip, p: Ppa| {
                c.is_access_blocked(p);
            },
        ] {
            let refused = std::panic::catch_unwind(|| probe(&c, past)).unwrap_err();
            let msg = refused.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(msg, "address out of range: PB#0x0000:pg72");
        }
        assert_eq!(c.page_flag_state(Ppa::new(0, ppb - 1)), FlagState::Clean);
        assert_eq!(c.page_flag_state(Ppa::new(1, 0)), FlagState::Locked);
    }

    #[test]
    fn block_probes_name_the_block_they_refuse() {
        let c = chip();
        for probe in [
            |c: &EvanescoChip, b: BlockId| {
                c.block_flag_state(b);
            },
            |c: &EvanescoChip, b: BlockId| {
                c.is_block_locked(b);
            },
            |c: &EvanescoChip, b: BlockId| {
                c.is_marked_bad(b);
            },
            |c: &EvanescoChip, b: BlockId| {
                c.erase_count(b);
            },
            |c: &EvanescoChip, b: BlockId| {
                c.last_erase_at(b);
            },
            |c: &EvanescoChip, b: BlockId| {
                c.next_program_index(b);
            },
        ] {
            let refused = std::panic::catch_unwind(|| probe(&c, BlockId(64))).unwrap_err();
            let msg = refused.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(msg, "block out of range: PB#0x0040");
        }
    }

    #[test]
    fn locked_reads_count_and_cost_like_any_read() {
        let mut c = chip();
        c.program(Ppa::new(0, 0), PageData::with_payload(b"secret")).unwrap();
        c.program(Ppa::new(1, 0), PageData::with_payload(b"secret")).unwrap();
        c.p_lock(Ppa::new(0, 0)).unwrap();
        c.b_lock(BlockId(1)).unwrap();
        for (n, ppa) in [Ppa::new(0, 0), Ppa::new(1, 0)].into_iter().enumerate() {
            let out = c.read(ppa).unwrap();
            assert_eq!(out.result, ReadResult::Locked);
            assert_eq!(out.latency, c.timing().t_read, "a locked read still senses the array");
            assert_eq!(c.read_data(ppa), Ok(None));
            assert_eq!(c.nand_stats().reads, 2 * (n as u64 + 1));
        }
    }

    #[test]
    fn plock_blocks_page_reads_only() {
        let mut c = chip();
        fill(&mut c, 0, 3);
        c.p_lock(Ppa::new(0, 1)).unwrap();
        assert_eq!(c.read(Ppa::new(0, 1)).unwrap().result, ReadResult::Locked);
        // Sibling pages still readable (Figure 7a).
        assert_eq!(c.read(Ppa::new(0, 0)).unwrap().result.data().unwrap().tag(), 1000);
        assert_eq!(c.read(Ppa::new(0, 2)).unwrap().result.data().unwrap().tag(), 1002);
    }

    #[test]
    fn block_blocks_all_pages_regardless_of_pap() {
        let mut c = chip();
        fill(&mut c, 0, 4);
        c.b_lock(BlockId(0)).unwrap();
        for p in 0..4 {
            assert_eq!(c.read(Ppa::new(0, p)).unwrap().result, ReadResult::Locked);
        }
        // Other blocks unaffected.
        fill(&mut c, 1, 1);
        assert!(c.read(Ppa::new(1, 0)).unwrap().result.data().is_some());
    }

    #[test]
    fn locks_survive_until_erase_and_only_erase_unlocks() {
        let mut c = chip();
        fill(&mut c, 0, 2);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        c.b_lock(BlockId(0)).unwrap();
        assert!(c.is_page_locked(Ppa::new(0, 0)));
        assert!(c.is_block_locked(BlockId(0)));
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert!(!c.is_page_locked(Ppa::new(0, 0)));
        assert!(!c.is_block_locked(BlockId(0)));
        // After erase+unlock the data is gone: a fresh read sees erased.
        let out = c.read(Ppa::new(0, 0)).unwrap();
        assert_eq!(out.result, ReadResult::Content(PageContent::Erased));
    }

    #[test]
    fn plock_rejects_unwritten_pages() {
        let mut c = chip();
        let err = c.p_lock(Ppa::new(0, 0)).unwrap_err();
        assert!(matches!(err, EvanescoError::LockOnUnwrittenPage { .. }));
    }

    #[test]
    fn lock_latencies_match_design() {
        let mut c = chip();
        fill(&mut c, 0, 1);
        assert_eq!(c.p_lock(Ppa::new(0, 0)).unwrap(), Nanos::from_micros(100));
        assert_eq!(c.b_lock(BlockId(0)).unwrap(), Nanos::from_micros(300));
    }

    #[test]
    fn lock_stats_count_commands() {
        let mut c = chip();
        fill(&mut c, 0, 2);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        c.p_lock(Ppa::new(0, 1)).unwrap();
        c.b_lock(BlockId(0)).unwrap();
        assert_eq!(c.lock_stats(), LockStats { plocks: 2, blocks: 1 });
    }

    #[test]
    fn interface_dump_hides_locked_pages() {
        let mut c = chip();
        fill(&mut c, 0, 3);
        c.p_lock(Ppa::new(0, 1)).unwrap();
        let dump = c.interface_dump_block(BlockId(0));
        assert!(dump[0].data().is_some());
        assert_eq!(dump[1], ReadResult::Locked);
        assert!(dump[2].data().is_some());
    }

    #[test]
    fn locked_page_can_still_be_block_locked_and_erased() {
        let mut c = chip();
        fill(&mut c, 0, 2);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        c.p_lock(Ppa::new(0, 0)).unwrap(); // idempotent
        c.b_lock(BlockId(0)).unwrap();
        c.b_lock(BlockId(0)).unwrap(); // idempotent
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert!(!c.is_access_blocked(Ppa::new(0, 0)));
    }

    #[test]
    fn bad_addresses_propagate() {
        let mut c = chip();
        assert!(matches!(
            c.read(Ppa::new(9999, 0)),
            Err(EvanescoError::Nand(NandError::BadAddress { .. }))
        ));
        assert!(matches!(c.b_lock(BlockId(9999)), Err(EvanescoError::BadBlock { .. })));
    }

    #[test]
    fn program_rules_still_enforced_through_wrapper() {
        let mut c = chip();
        fill(&mut c, 0, 1);
        let err = c.program(Ppa::new(0, 0), PageData::tagged(5)).unwrap_err();
        assert!(matches!(err, EvanescoError::Nand(NandError::ProgramOnProgrammedPage { .. })));
    }

    #[test]
    fn clone_preserves_locks_like_desoldering() {
        // Flags live in flash cells: copying the chip (de-soldering and
        // remounting in a reader) does not clear them.
        let mut c = chip();
        fill(&mut c, 0, 1);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        let mut stolen = c.clone();
        assert_eq!(stolen.read(Ppa::new(0, 0)).unwrap().result, ReadResult::Locked);
    }

    #[test]
    fn page_id_helper_reads() {
        let mut c = chip();
        fill(&mut c, 2, 1);
        let ppa = Ppa { block: BlockId(2), page: PageId(0) };
        assert!(c.read(ppa).unwrap().result.data().is_some());
    }

    #[test]
    fn interrupted_plock_spans_clean_to_locked() {
        let mut c = chip();
        fill(&mut c, 0, 3);
        c.interrupt_p_lock(Ppa::new(0, 0), 0.0, 1).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 0)), FlagState::Clean);
        c.interrupt_p_lock(Ppa::new(0, 1), 1.0, 1).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 1)), FlagState::Locked);
        // A mid-flight cut leaves torn cells; a margin read sees it, and
        // re-issuing the lock completes it.
        c.interrupt_p_lock(Ppa::new(0, 2), 0.5, 1).unwrap();
        assert!(c.page_flag_state(Ppa::new(0, 2)).is_torn());
        c.p_lock(Ppa::new(0, 2)).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 2)), FlagState::Locked);
        assert_eq!(c.read(Ppa::new(0, 2)).unwrap().result, ReadResult::Locked);
    }

    #[test]
    fn interrupted_erase_wipes_flags_before_data() {
        // The dangerous window: flags cleared, data intact — but the block
        // carries the torn-erase signature so recovery can close it.
        let mut c = chip();
        fill(&mut c, 0, 2);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        c.b_lock(BlockId(0)).unwrap();
        let f = (TORN_ERASE_FLAG_WIPE_FRACTION
            + evanesco_nand::chip::TORN_ERASE_DATA_WIPE_FRACTION)
            / 2.0;
        c.interrupt_erase(BlockId(0), f, 42).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 0)), FlagState::Clean);
        assert_eq!(c.block_flag_state(BlockId(0)), FlagState::Clean);
        assert!(c.block_torn_erase(BlockId(0)).unwrap());
        // Data survived the partial erase and is now unprotected...
        assert!(c.read(Ppa::new(0, 0)).unwrap().result.data().is_some());
        // ...until the erase is finished.
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert!(!c.block_torn_erase(BlockId(0)).unwrap());
        assert!(c.read(Ppa::new(0, 0)).unwrap().result.data().is_none());
    }

    #[test]
    fn injected_verify_failures_leave_torn_flags() {
        let mut c = chip();
        fill(&mut c, 0, 2);
        c.inject_lock_verify_failures(1);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 0)), FlagState::Torn { reads_locked: false });
        assert!(c.read(Ppa::new(0, 0)).unwrap().result.data().is_some());
        // The injection is consumed: the retry completes the lock.
        c.p_lock(Ppa::new(0, 0)).unwrap();
        assert_eq!(c.page_flag_state(Ppa::new(0, 0)), FlagState::Locked);
    }

    #[test]
    fn status_register_reports_lock_verify_failures() {
        let mut c = chip();
        fill(&mut c, 0, 1);
        c.inject_lock_verify_failures(1);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        assert_eq!(c.status(), crate::fault::OpStatus::Failed);
        assert_eq!(c.fault_stats().plock_failures, 1);
        c.p_lock(Ppa::new(0, 0)).unwrap();
        assert_eq!(c.status(), crate::fault::OpStatus::Ok);
    }

    #[test]
    fn failed_erase_leaves_data_and_locks_intact() {
        let mut c = chip();
        c.enable_faults(
            crate::fault::FaultConfig { erase_fail: 1.0, ..crate::fault::FaultConfig::none() },
            0,
        );
        fill(&mut c, 0, 2);
        c.p_lock(Ppa::new(0, 1)).unwrap();
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert_eq!(c.status(), crate::fault::OpStatus::Failed);
        assert_eq!(c.fault_stats().erase_failures, 1);
        // Nothing was destroyed or unlocked.
        assert!(c.read(Ppa::new(0, 0)).unwrap().result.data().is_some());
        assert_eq!(c.read(Ppa::new(0, 1)).unwrap().result, ReadResult::Locked);
    }

    #[test]
    fn failed_program_consumes_the_page_as_torn() {
        let mut c = chip();
        c.enable_faults(
            crate::fault::FaultConfig { program_fail: 1.0, ..crate::fault::FaultConfig::none() },
            0,
        );
        c.program(Ppa::new(0, 0), PageData::tagged(7)).unwrap();
        assert_eq!(c.status(), crate::fault::OpStatus::Failed);
        assert!(c.page_is_written(Ppa::new(0, 0)).unwrap());
        assert!(c.page_is_torn(Ppa::new(0, 0)).unwrap());
        assert_eq!(c.next_program_index(BlockId(0)), 1);
    }

    #[test]
    fn bad_block_mark_survives_erase_attempts() {
        let mut c = chip();
        assert!(!c.is_marked_bad(BlockId(3)));
        c.mark_bad_block(BlockId(3)).unwrap();
        assert!(c.is_marked_bad(BlockId(3)));
        c.erase(BlockId(3), Nanos::ZERO).unwrap();
        assert!(c.is_marked_bad(BlockId(3)), "spare-area mark is never cleared");
        // And like the lock flags, it is flash-resident: cloning (chip
        // de-soldering / power cycling) preserves it.
        assert!(c.clone().is_marked_bad(BlockId(3)));
    }

    #[test]
    fn device_mode_paper_flags_behave_like_behavioral_mode() {
        let mut c = chip();
        c.enable_device_flags(PapConfig::paper(), BapConfig::paper(), 99);
        fill(&mut c, 0, 3);
        c.p_lock(Ppa::new(0, 1)).unwrap();
        assert_eq!(c.read(Ppa::new(0, 1)).unwrap().result, ReadResult::Locked);
        assert!(c.read(Ppa::new(0, 0)).unwrap().result.data().is_some());
        c.age_flags(5.0 * 365.0).unwrap();
        assert_eq!(c.read(Ppa::new(0, 1)).unwrap().result, ReadResult::Locked);
        assert_eq!(c.flag_leaks(), (0, 0));
        c.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert!(!c.is_page_locked(Ppa::new(0, 1)));
    }

    #[test]
    fn device_mode_weak_flags_leak_data_after_aging() {
        use crate::calibration::DesignPoint;
        let mut c = chip();
        // Figure 9(d)'s weakest candidate (vi) = (Vp2, 200µs).
        c.enable_device_flags(
            PapConfig { k: 9, point: DesignPoint::new(2, 200) },
            BapConfig::paper(),
            7,
        );
        let n = 72;
        fill(&mut c, 0, n);
        for p in 0..n {
            c.p_lock(Ppa::new(0, p)).unwrap();
        }
        c.age_flags(5.0 * 365.0).unwrap();
        let (page_leaks, _) = c.flag_leaks();
        assert!(page_leaks > 5, "weak flags should leak: {page_leaks}/{n}");
        // And the leak is exploitable: some locked page reads data again.
        let readable =
            (0..n).filter(|&p| c.read(Ppa::new(0, p)).unwrap().result.data().is_some()).count();
        assert_eq!(readable, page_leaks);
    }

    #[test]
    fn snapshot_roundtrip_resumes_device_mode_chip() {
        use evanesco_nand::snapshot::{Dec, Enc};
        let fault_cfg = crate::fault::FaultConfig::storm(0.4, 11);
        let build = || {
            let mut c = chip();
            c.enable_faults(fault_cfg, 3);
            c.enable_device_flags(PapConfig::paper(), BapConfig::paper(), 99);
            c
        };
        let mut live = build();
        fill(&mut live, 0, 6);
        let _ = live.p_lock(Ppa::new(0, 1));
        let _ = live.p_lock(Ppa::new(0, 2));
        let _ = live.b_lock(BlockId(2));
        live.mark_bad_block(BlockId(5)).unwrap();
        live.age_flags(30.0).unwrap();

        let mut e = Enc::new();
        live.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = build();
        restored.decode_state(&mut Dec::new(&bytes)).unwrap();

        assert_eq!(restored.lock_stats(), live.lock_stats());
        assert_eq!(restored.fault_stats(), live.fault_stats());
        assert_eq!(restored.status(), live.status());
        assert_eq!(restored.flag_leaks(), live.flag_leaks());
        for p in 0..6 {
            assert_eq!(
                restored.read(Ppa::new(0, p)).unwrap().result,
                live.read(Ppa::new(0, p)).unwrap().result
            );
        }
        assert!(restored.is_marked_bad(BlockId(5)));
        // Continued operation stays in lockstep, including fault draws.
        for p in 0..4 {
            let a = live.p_lock(Ppa::new(1, p));
            let b = restored.p_lock(Ppa::new(1, p));
            assert_eq!(a.is_ok(), b.is_ok());
            assert_eq!(live.status(), restored.status());
        }
        // Re-encoding the restored chip is byte-identical.
        let mut e2 = Enc::new();
        let mut e3 = Enc::new();
        live.encode_state(&mut e2);
        restored.encode_state(&mut e3);
        assert_eq!(e2.into_bytes(), e3.into_bytes());
    }
}
