//! The timed NAND executor: applies FTL-issued operations to the Evanesco
//! chips and accounts simulated time on per-chip and per-channel resources.
//!
//! Timing model (paper §7 constants):
//!
//! * array operations (read, program, erase, `pLock`, `bLock`, scrub)
//!   occupy the chip serially;
//! * page transfers occupy the shared channel: programs transfer data in
//!   before the array operation, reads transfer data out after it;
//! * operations on different chips overlap freely (the source of the SSD's
//!   internal parallelism);
//! * GC and sanitization traffic stays on its own chip, so dependencies are
//!   captured by per-chip serialization.

use crate::config::SsdConfig;
use crate::timeline::Resource;
use crate::trace::{ResourceId, SpanKind, TraceEvent};
use evanesco_core::chip::EvanescoChip;
use evanesco_core::fault::{FaultStats, OpStatus};
use evanesco_ftl::executor::{probe_block_on, probe_page_on, BlockProbe, NandExecutor, PageProbe};
use evanesco_ftl::{GlobalPpa, OpCause};
use evanesco_nand::chip::PageData;
use evanesco_nand::geometry::BlockId;
use evanesco_nand::timing::{Nanos, TimingSpec};

/// How a device command fares against an armed power cut.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpFate {
    /// Finishes before the cut; carries the reserved array window.
    Completes { start: Nanos, end: Nanos },
    /// In flight when power drops: interrupted after this fraction of its
    /// latency.
    Torn(f64),
    /// Power was already gone when the command would have started; the
    /// chip never sees it.
    Lost,
}

/// Accumulated chip busy time per operation class — where the device's
/// time actually goes under each policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Array read time.
    pub read: Nanos,
    /// Array program time.
    pub program: Nanos,
    /// Block erase time.
    pub erase: Nanos,
    /// `pLock` time.
    pub plock: Nanos,
    /// `bLock` time.
    pub block: Nanos,
    /// Scrub (one-shot reprogram) time.
    pub scrub: Nanos,
    /// Channel transfer time.
    pub xfer: Nanos,
}

impl TimeBreakdown {
    /// Total accumulated busy time across classes (chip + channel,
    /// overlapping resources counted independently).
    pub fn total(&self) -> Nanos {
        self.read + self.program + self.erase + self.plock + self.block + self.scrub + self.xfer
    }
}

/// Timed executor over the SSD's chips.
#[derive(Debug, Clone)]
pub struct TimedExecutor {
    chips: Vec<EvanescoChip>,
    chip_res: Vec<Resource>,
    channel_res: Vec<Resource>,
    chips_per_channel: usize,
    timing: TimingSpec,
    /// Sum and count of observed erase→first-program gaps (open intervals).
    open_interval_sum: Nanos,
    open_interval_count: u64,
    breakdown: TimeBreakdown,
    /// Armed power-cut instant (absolute simulated time), if any.
    power_cut: Option<Nanos>,
    /// True once the cut has fired: all later mutating commands are lost.
    powered_off: bool,
    /// Salt for the deterministic torn-state draws, derived from the cut
    /// instant so every fault plan replays bit-identically.
    fault_salt: u64,
    /// False once any command in the current commit window was torn or
    /// lost (see [`TimedExecutor::begin_commit`]).
    window_clean: bool,
    /// Cached running maximum of every resource's `busy_until`, so
    /// [`TimedExecutor::simulated_time`] is O(1) instead of an O(chips)
    /// recompute per call (it is read on every host page).
    horizon: Nanos,
    /// Lower bound applied to every reservation while a dispatch window is
    /// open (see [`NandExecutor::begin_dispatch`]).
    dispatch_floor: Option<Nanos>,
    /// Completion time of everything issued inside the open dispatch
    /// window.
    dispatch_end: Nanos,
    /// When true, every reservation is mirrored into `trace_events` (one
    /// branch per reservation when disabled — the cost the CI overhead
    /// gate bounds).
    trace_on: bool,
    /// Resource intervals, in issue order: those of finished request
    /// brackets up to `trace_open`, the open bracket's from there on.
    trace_events: Vec<TraceEvent>,
    /// Where the open bracket's events start in `trace_events`.
    trace_open: usize,
    /// FTL cause scopes currently open ([`NandExecutor::push_cause`]);
    /// the innermost one stamps every traced reservation. Purely
    /// observational — never consulted for timing — and empty at every
    /// host-request boundary, so checkpoints exclude it.
    cause_stack: Vec<OpCause>,
    /// Chips whose busy-until may have changed since the last
    /// [`TimedExecutor::take_moved_chips`], bit `c % 64` for chip `c`: every
    /// chip reservation sets its chip's bit, and a fresh executor,
    /// [`TimedExecutor::power_on`] and a decoded checkpoint set them all.
    /// Scheduling state, not device state: checkpoints exclude it.
    moved: u64,
}

impl TimedExecutor {
    /// Creates the device array for a configuration.
    pub fn new(cfg: &SsdConfig) -> Self {
        cfg.validate();
        let n = cfg.n_chips();
        TimedExecutor {
            chips: (0..n)
                .map(|i| {
                    let mut c = EvanescoChip::with_timing(cfg.ftl.geometry, cfg.ftl.timing);
                    c.enable_faults(cfg.ftl.faults, i as u64);
                    c
                })
                .collect(),
            chip_res: vec![Resource::new(); n],
            channel_res: vec![Resource::new(); cfg.channels()],
            chips_per_channel: cfg.ftl.chips_per_channel,
            timing: cfg.ftl.timing,
            open_interval_sum: Nanos::ZERO,
            open_interval_count: 0,
            breakdown: TimeBreakdown::default(),
            power_cut: None,
            powered_off: false,
            fault_salt: 0,
            window_clean: true,
            horizon: Nanos::ZERO,
            dispatch_floor: None,
            dispatch_end: Nanos::ZERO,
            trace_on: false,
            trace_events: Vec::new(),
            trace_open: 0,
            cause_stack: Vec::new(),
            moved: u64::MAX,
        }
    }

    /// Enables or disables op-level tracing. While enabled, every chip
    /// and channel reservation is recorded as a [`TraceEvent`]; timing is
    /// never affected — the same reservations are made either way.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
        if !on {
            self.trace_events = Vec::new();
            self.trace_open = 0;
        }
    }

    /// Whether reservations are being traced.
    pub(crate) fn tracing(&self) -> bool {
        self.trace_on
    }

    /// The events reserved since the open request bracket began, in issue
    /// order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.trace_events[self.trace_open..]
    }

    /// Discards the open bracket's events in place: the leftovers that
    /// accrue between requests.
    pub fn discard_trace_events(&mut self) {
        self.trace_events.truncate(self.trace_open);
    }

    /// Closes the open bracket: its events stay where they are, and the
    /// returned range locates them in [`TimedExecutor::sealed_trace_events`].
    pub(crate) fn seal_trace_events(&mut self) -> (usize, usize) {
        let sealed = (self.trace_open, self.trace_events.len());
        self.trace_open = sealed.1;
        sealed
    }

    /// The events of every bracket sealed since the buffer was last
    /// emptied or handed over.
    pub(crate) fn sealed_trace_events(&self) -> &[TraceEvent] {
        &self.trace_events[..self.trace_open]
    }

    /// Empties the buffer once its sealed brackets were recorded in place.
    pub(crate) fn clear_trace_events(&mut self) {
        debug_assert_eq!(self.trace_open, self.trace_events.len(), "a bracket is open");
        self.trace_events.clear();
        self.trace_open = 0;
    }

    /// Hands over the whole event buffer, sealed brackets only, and takes
    /// `recycled` (emptied, its capacity kept) in its place.
    pub(crate) fn swap_trace_events(&mut self, recycled: Vec<TraceEvent>) -> Vec<TraceEvent> {
        debug_assert_eq!(self.trace_open, self.trace_events.len(), "a bracket is open");
        debug_assert!(recycled.is_empty(), "a recycled buffer comes back emptied");
        self.trace_open = 0;
        std::mem::replace(&mut self.trace_events, recycled)
    }

    fn trace_push(&mut self, kind: SpanKind, resource: ResourceId, start: Nanos, end: Nanos) {
        if self.trace_on && end > start {
            // Fact 1 of the trace sweep: each resource's events are disjoint.
            let open = &self.trace_events[self.trace_open..];
            let last = |r| open.iter().rev().find(|p: &&TraceEvent| p.resource == r);
            debug_assert!(last(resource).is_none_or(|p| p.end <= start), "{resource:?} overlaps");
            let cause = self.cause_stack.last().copied().unwrap_or(OpCause::Host);
            self.trace_events.push(TraceEvent { kind, cause, resource, start, end });
        }
    }

    /// The dependency floor for a reservation: the caller's `earliest`,
    /// raised to the open dispatch window's floor if one is set.
    fn floored(&self, earliest: Nanos) -> Nanos {
        match self.dispatch_floor {
            Some(f) => earliest.max(f),
            None => earliest,
        }
    }

    /// Records a reservation's end: maintains the simulated-time horizon
    /// and, inside a dispatch window, the window's completion time.
    fn note_end(&mut self, end: Nanos) {
        self.horizon = self.horizon.max(end);
        if self.dispatch_floor.is_some() {
            self.dispatch_end = self.dispatch_end.max(end);
        }
    }

    /// Arms a power cut at absolute simulated time `at`: the command in
    /// flight at `at` is interrupted mid-operation (leaving torn NAND
    /// state), every later command is lost before reaching a chip, and no
    /// further time accrues. [`TimedExecutor::power_on`] clears the cut.
    pub fn arm_power_cut(&mut self, at: Nanos) {
        self.power_cut = Some(at);
        self.powered_off = false;
        // Scramble the cut instant so nearby cuts draw unrelated torn
        // states (the per-cell hash downstream gets a well-mixed salt).
        self.fault_salt = at.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xE7A2_E5C0;
    }

    /// Restores power: clears any armed cut and advances every resource to
    /// the cut instant, so post-recovery work is timed from the moment the
    /// device came back, not from each chip's pre-cut idle point.
    pub fn power_on(&mut self) {
        if let Some(cut) = self.power_cut.take() {
            for r in self.chip_res.iter_mut().chain(self.channel_res.iter_mut()) {
                r.reserve(cut, Nanos::ZERO);
            }
            self.horizon = self.horizon.max(cut);
            self.moved = u64::MAX;
        }
        self.powered_off = false;
    }

    /// True once an armed cut has fired.
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Opens a commit window: [`TimedExecutor::commit_clean`] then reports
    /// whether every command issued since completed before the power cut.
    /// The emulator brackets each host request with this pair to decide
    /// whether the request was acknowledged.
    pub fn begin_commit(&mut self) {
        self.window_clean = true;
    }

    /// True iff no command since [`TimedExecutor::begin_commit`] was torn
    /// or lost to a power cut — i.e. the request's effects are durable.
    pub fn commit_clean(&self) -> bool {
        self.window_clean
    }

    /// Decides the fate of an array command of duration `dur` on `chip`,
    /// reserving exactly the time that was really consumed: the full
    /// window when it completes, the window up to the cut when torn, and
    /// nothing when power was already gone. Returns the fate and the
    /// consumed time (for breakdown accounting).
    fn op_fate(
        &mut self,
        chip: usize,
        earliest: Nanos,
        dur: Nanos,
        kind: SpanKind,
    ) -> (OpFate, Nanos) {
        let earliest = self.floored(earliest);
        if self.powered_off {
            self.window_clean = false;
            return (OpFate::Lost, Nanos::ZERO);
        }
        let Some(cut) = self.power_cut else {
            let (start, end) = self.reserve_chip_from(chip, earliest, dur, kind);
            return (OpFate::Completes { start, end }, dur);
        };
        let start = self.chip_res[chip].busy_until().max(earliest);
        if start >= cut {
            self.powered_off = true;
            self.window_clean = false;
            (OpFate::Lost, Nanos::ZERO)
        } else if start + dur > cut {
            let partial = cut - start;
            self.reserve_chip_from(chip, earliest, partial, kind);
            self.powered_off = true;
            self.window_clean = false;
            (OpFate::Torn(partial.0 as f64 / dur.0 as f64), partial)
        } else {
            let (start, end) = self.reserve_chip_from(chip, earliest, dur, kind);
            (OpFate::Completes { start, end }, dur)
        }
    }

    fn channel_of(&self, chip: usize) -> usize {
        chip / self.chips_per_channel
    }

    /// Total simulated time: when the last resource goes idle. O(1) — the
    /// running maximum is maintained at every reservation.
    pub fn simulated_time(&self) -> Nanos {
        self.horizon
    }

    /// When `chip`'s array becomes free (scheduler input: dispatch the
    /// next independent request to the chip that idles first).
    pub fn chip_free_at(&self, chip: usize) -> Nanos {
        self.chip_res[chip].busy_until()
    }

    /// The chips whose busy-until may have changed since the last call, bit
    /// `c` for chip `c` (a superset: a bit is set by every reservation, and
    /// all of them by a power-on or a restored checkpoint), and clears the
    /// mask. Exact only for a device of at most 64 chips; a wider one
    /// aliases chip `c` onto bit `c % 64`.
    pub(crate) fn take_moved_chips(&mut self) -> u64 {
        std::mem::take(&mut self.moved)
    }

    /// Per-chip occupied time (idle gaps excluded).
    pub fn chip_utilized(&self) -> Vec<Nanos> {
        self.chip_res.iter().map(|r| r.utilized()).collect()
    }

    /// Per-channel occupied time (idle gaps excluded). Divide by
    /// [`TimedExecutor::simulated_time`] for a utilization fraction.
    pub fn channel_utilized(&self) -> Vec<Nanos> {
        self.channel_res.iter().map(|r| r.utilized()).collect()
    }

    /// The chips (for attacker verification and stats).
    pub fn chips(&self) -> &[EvanescoChip] {
        &self.chips
    }

    /// Mutable chip access.
    pub fn chips_mut(&mut self) -> &mut [EvanescoChip] {
        &mut self.chips
    }

    /// Aggregated lock counters across chips.
    pub fn lock_totals(&self) -> (u64, u64) {
        self.chips.iter().fold((0, 0), |(p, b), c| {
            let s = c.lock_stats();
            (p + s.plocks, b + s.blocks)
        })
    }

    /// Total block erases across chips.
    pub fn erase_total(&self) -> u64 {
        self.chips.iter().map(|c| c.nand_stats().erases).sum()
    }

    /// Aggregated injected-fault counters across chips.
    pub fn fault_totals(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for c in &self.chips {
            total.absorb(c.fault_stats());
        }
        total
    }

    /// Busy-time accounting per operation class.
    pub fn time_breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Mean erase→first-program gap (open interval) observed so far, if any
    /// block was reused after an erase.
    pub fn mean_open_interval(&self) -> Option<Nanos> {
        self.open_interval_sum.0.checked_div(self.open_interval_count).map(Nanos)
    }

    /// Serializes the device array — every chip's full NAND/flag/fault
    /// state, the busy timelines, the simulated clock, breakdown counters,
    /// and any armed power cut — into a checkpoint stream. Trace state
    /// (`trace_on` / undrained `trace_events`) is deliberately excluded:
    /// tracing is observational and re-enabled by the restoring caller if
    /// desired.
    pub fn encode_state(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.tag(0x42);
        for c in &self.chips {
            c.encode_state(e);
        }
        for r in self.chip_res.iter().chain(&self.channel_res) {
            e.u64(r.busy_until().0);
            e.u64(r.utilized().0);
        }
        e.u64(self.open_interval_sum.0);
        e.u64(self.open_interval_count);
        for n in [
            self.breakdown.read,
            self.breakdown.program,
            self.breakdown.erase,
            self.breakdown.plock,
            self.breakdown.block,
            self.breakdown.scrub,
            self.breakdown.xfer,
        ] {
            e.u64(n.0);
        }
        e.opt(&self.power_cut, |e, n| e.u64(n.0));
        e.bool(self.powered_off);
        e.u64(self.fault_salt);
        e.bool(self.window_clean);
        e.u64(self.horizon.0);
        e.opt(&self.dispatch_floor, |e, n| e.u64(n.0));
        e.u64(self.dispatch_end.0);
    }

    /// Overlays checkpointed state written by
    /// [`TimedExecutor::encode_state`] onto this freshly-constructed
    /// executor, whose configuration fixes the chip and timeline counts
    /// the stream was written against.
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption.
    pub fn decode_state(
        &mut self,
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<(), evanesco_nand::snapshot::SnapshotError> {
        d.expect_tag(0x42, "timed-executor")?;
        for c in self.chips.iter_mut() {
            c.decode_state(d)?;
        }
        for r in self.chip_res.iter_mut().chain(&mut self.channel_res) {
            *r = Resource::from_parts(Nanos(d.u64()?), Nanos(d.u64()?));
        }
        self.open_interval_sum = Nanos(d.u64()?);
        self.open_interval_count = d.u64()?;
        self.breakdown = TimeBreakdown {
            read: Nanos(d.u64()?),
            program: Nanos(d.u64()?),
            erase: Nanos(d.u64()?),
            plock: Nanos(d.u64()?),
            block: Nanos(d.u64()?),
            scrub: Nanos(d.u64()?),
            xfer: Nanos(d.u64()?),
        };
        self.power_cut = d.opt(|d| Ok(Nanos(d.u64()?)))?;
        self.powered_off = d.bool()?;
        self.fault_salt = d.u64()?;
        self.window_clean = d.bool()?;
        self.horizon = Nanos(d.u64()?);
        self.dispatch_floor = d.opt(|d| Ok(Nanos(d.u64()?)))?;
        self.dispatch_end = Nanos(d.u64()?);
        self.moved = u64::MAX;
        Ok(())
    }

    /// The one way a chip's busy-until moves during a run: reserve it for
    /// `dur` from `earliest`, mark it moved, and account the window.
    fn reserve_chip_from(
        &mut self,
        chip: usize,
        earliest: Nanos,
        dur: Nanos,
        kind: SpanKind,
    ) -> (Nanos, Nanos) {
        let (start, end) = self.chip_res[chip].reserve(earliest, dur);
        self.moved |= 1 << (chip % 64);
        self.note_end(end);
        self.trace_push(kind, ResourceId::Chip(chip), start, end);
        (start, end)
    }

    fn reserve_chip(&mut self, chip: usize, dur: Nanos, kind: SpanKind) -> (Nanos, Nanos) {
        let earliest = self.floored(Nanos::ZERO);
        self.reserve_chip_from(chip, earliest, dur, kind)
    }

    fn reserve_channel(&mut self, ch: usize, earliest: Nanos, dur: Nanos) -> (Nanos, Nanos) {
        let (start, end) = self.channel_res[ch].reserve(earliest, dur);
        self.note_end(end);
        self.trace_push(SpanKind::Xfer, ResourceId::Channel(ch), start, end);
        (start, end)
    }
}

impl NandExecutor for TimedExecutor {
    fn read(&mut self, at: GlobalPpa) -> Option<PageData> {
        let (fate, consumed) =
            self.op_fate(at.chip, Nanos::ZERO, self.timing.t_read, SpanKind::Read);
        self.breakdown.read += consumed;
        if let OpFate::Completes { end, .. } = fate {
            let ch = self.channel_of(at.chip);
            self.reserve_channel(ch, end, self.timing.t_xfer_page);
            self.breakdown.xfer += self.timing.t_xfer_page;
        }
        // The array stays readable through the discharge: the read is
        // performed even when its window crossed the cut, so in-flight FTL
        // logic (e.g. a GC copy loop) sees consistent data. Its RAM-side
        // effects are discarded at recovery; only mutations are gated.
        let data = self.chips[at.chip].read_data(at.ppa).expect("FTL issues in-range reads");
        // Read-retry ladder: each chip-internal re-read re-occupies the
        // array for another sensing pass.
        let retries = self.chips[at.chip].last_read_retries();
        if retries > 0 {
            if let OpFate::Completes { .. } = fate {
                let extra = Nanos(self.timing.t_read.0 * u64::from(retries));
                // Re-sensing passes are fault-ladder work, not first-try
                // service: blame them on the retry cause.
                self.cause_stack.push(OpCause::Retry);
                self.reserve_chip(at.chip, extra, SpanKind::Read);
                self.cause_stack.pop();
                self.breakdown.read += extra;
            }
        }
        data
    }

    fn program(&mut self, at: GlobalPpa, data: PageData) -> OpStatus {
        // Status never reaches the firmware across a power loss: torn and
        // lost commands report `Ok` and are healed by the recovery scan
        // instead (retrying against a dead bus would spin forever).
        if self.powered_off {
            self.window_clean = false;
            return OpStatus::Ok;
        }
        // Data-in transfer on the channel, then the array program. A cut
        // during the transfer means the array never saw the data: the
        // program is lost outright, not torn.
        let ch = self.channel_of(at.chip);
        let dep = self.floored(Nanos::ZERO);
        let xfer_start = self.channel_res[ch].busy_until().max(dep);
        let xfer_end = match self.power_cut {
            Some(cut) if xfer_start >= cut => {
                self.powered_off = true;
                self.window_clean = false;
                return OpStatus::Ok;
            }
            Some(cut) if xfer_start + self.timing.t_xfer_page > cut => {
                self.reserve_channel(ch, dep, cut - xfer_start);
                self.breakdown.xfer += cut - xfer_start;
                self.powered_off = true;
                self.window_clean = false;
                return OpStatus::Ok;
            }
            _ => {
                let (_, end) = self.reserve_channel(ch, dep, self.timing.t_xfer_page);
                self.breakdown.xfer += self.timing.t_xfer_page;
                end
            }
        };
        let (fate, consumed) =
            self.op_fate(at.chip, xfer_end, self.timing.t_prog, SpanKind::Program);
        self.breakdown.program += consumed;
        match fate {
            OpFate::Completes { start, .. } => {
                // Track the open interval on the first program after an erase.
                if at.ppa.page.0 == 0 {
                    if let Some(erased_at) = self.chips[at.chip].last_erase_at(at.ppa.block) {
                        self.open_interval_sum += start.saturating_sub(erased_at);
                        self.open_interval_count += 1;
                    }
                }
                self.chips[at.chip].program(at.ppa, data).expect("FTL issues legal programs");
                self.chips[at.chip].status()
            }
            OpFate::Torn(fraction) => {
                self.chips[at.chip]
                    .interrupt_program(at.ppa, data, fraction)
                    .expect("FTL issues legal programs");
                OpStatus::Ok
            }
            OpFate::Lost => OpStatus::Ok,
        }
    }

    fn erase(&mut self, chip: usize, block: BlockId) -> OpStatus {
        let (fate, consumed) = self.op_fate(chip, Nanos::ZERO, self.timing.t_bers, SpanKind::Erase);
        self.breakdown.erase += consumed;
        match fate {
            OpFate::Completes { end, .. } => {
                // Record the erase *completion* time: the open interval is
                // the gap between an erase finishing and the first program
                // starting.
                self.chips[chip].erase(block, end).expect("FTL erases in-range blocks");
                self.chips[chip].status()
            }
            OpFate::Torn(fraction) => {
                let salt = self.fault_salt;
                self.chips[chip]
                    .interrupt_erase(block, fraction, salt)
                    .expect("FTL erases in-range blocks");
                OpStatus::Ok
            }
            OpFate::Lost => OpStatus::Ok,
        }
    }

    fn p_lock(&mut self, at: GlobalPpa) -> OpStatus {
        let (fate, consumed) =
            self.op_fate(at.chip, Nanos::ZERO, self.timing.t_plock, SpanKind::PLock);
        self.breakdown.plock += consumed;
        match fate {
            OpFate::Completes { .. } => {
                self.chips[at.chip].p_lock(at.ppa).expect("FTL locks programmed pages");
                self.chips[at.chip].status()
            }
            OpFate::Torn(fraction) => {
                let salt = self.fault_salt;
                self.chips[at.chip]
                    .interrupt_p_lock(at.ppa, fraction, salt)
                    .expect("FTL locks programmed pages");
                OpStatus::Ok
            }
            OpFate::Lost => OpStatus::Ok,
        }
    }

    fn b_lock(&mut self, chip: usize, block: BlockId) -> OpStatus {
        let (fate, consumed) =
            self.op_fate(chip, Nanos::ZERO, self.timing.t_block, SpanKind::BLock);
        self.breakdown.block += consumed;
        match fate {
            OpFate::Completes { .. } => {
                self.chips[chip].b_lock(block).expect("FTL locks in-range blocks");
                self.chips[chip].status()
            }
            OpFate::Torn(fraction) => {
                let salt = self.fault_salt;
                self.chips[chip]
                    .interrupt_b_lock(block, fraction, salt)
                    .expect("FTL locks in-range blocks");
                OpStatus::Ok
            }
            OpFate::Lost => OpStatus::Ok,
        }
    }

    fn scrub(&mut self, at: GlobalPpa) {
        let (fate, consumed) =
            self.op_fate(at.chip, Nanos::ZERO, self.timing.t_scrub, SpanKind::Scrub);
        self.breakdown.scrub += consumed;
        match fate {
            OpFate::Completes { .. } => {
                self.chips[at.chip].destroy_page(at.ppa).expect("FTL scrubs in-range pages");
            }
            OpFate::Torn(fraction) => {
                self.chips[at.chip]
                    .interrupt_scrub(at.ppa, fraction)
                    .expect("FTL scrubs in-range pages");
            }
            OpFate::Lost => {}
        }
    }

    fn probe_page(&mut self, at: GlobalPpa) -> PageProbe {
        // Recovery runs powered-on: the scan pays one page read per probe.
        self.reserve_chip(at.chip, self.timing.t_read, SpanKind::Read);
        self.breakdown.read += self.timing.t_read;
        probe_page_on(&mut self.chips[at.chip], at.ppa)
    }

    fn probe_block(&mut self, chip: usize, block: BlockId) -> BlockProbe {
        probe_block_on(&self.chips[chip], block)
    }

    fn mark_bad(&mut self, chip: usize, block: BlockId) {
        // The retirement sentinel is a spare-area program (tPROG). A cut
        // mid-mark simply loses the mark: the next boot re-discovers the
        // failing erase and retires the block again.
        let (fate, consumed) =
            self.op_fate(chip, Nanos::ZERO, self.timing.t_prog, SpanKind::Program);
        self.breakdown.program += consumed;
        if let OpFate::Completes { .. } = fate {
            self.chips[chip].mark_bad_block(block).expect("FTL marks in-range blocks");
        }
    }

    fn stall(&mut self, chip: usize, dur: Nanos) {
        self.reserve_chip(chip, dur, SpanKind::Stall);
    }

    fn push_cause(&mut self, cause: OpCause) {
        self.cause_stack.push(cause);
    }

    fn pop_cause(&mut self) {
        self.cause_stack.pop();
    }

    fn begin_dispatch(&mut self, earliest: Nanos) {
        self.dispatch_floor = Some(earliest);
        self.dispatch_end = earliest;
    }

    fn end_dispatch(&mut self) -> Nanos {
        self.dispatch_floor = None;
        self.dispatch_end
    }

    fn now(&self) -> Nanos {
        self.simulated_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::Ppa;

    fn exec() -> TimedExecutor {
        TimedExecutor::new(&SsdConfig::tiny_for_tests())
    }

    #[test]
    fn program_time_accumulates_on_one_chip() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        for p in 0..3 {
            ex.program(GlobalPpa::new(0, Ppa::new(0, p)), PageData::tagged(p as u64));
        }
        // Three programs serialized on chip 0: 3 * tPROG plus the first
        // transfer (later transfers overlap array time).
        let total = ex.simulated_time();
        let floor = t.t_prog * 3;
        assert!(total >= floor, "total {total} < floor {floor}");
        assert!(total.0 <= floor.0 + 3 * t.t_xfer_page.0);
    }

    #[test]
    fn different_chips_overlap() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        ex.program(GlobalPpa::new(1, Ppa::new(0, 0)), PageData::tagged(2));
        // Two chips on two channels: fully parallel apart from transfers.
        let total = ex.simulated_time();
        assert!(total < t.t_prog * 2, "no overlap: {total}");
    }

    #[test]
    fn lock_ops_account_time() {
        let mut ex = exec();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        let before = ex.simulated_time();
        ex.p_lock(GlobalPpa::new(0, Ppa::new(0, 0)));
        ex.b_lock(0, BlockId(0));
        let after = ex.simulated_time();
        assert_eq!(after - before, Nanos::from_micros(100 + 300));
        assert_eq!(ex.lock_totals(), (1, 1));
    }

    #[test]
    fn erase_counts_aggregate() {
        let mut ex = exec();
        ex.erase(0, BlockId(0));
        ex.erase(1, BlockId(1));
        assert_eq!(ex.erase_total(), 2);
    }

    #[test]
    fn time_breakdown_accounts_every_operation() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        ex.read(GlobalPpa::new(0, Ppa::new(0, 0)));
        ex.p_lock(GlobalPpa::new(0, Ppa::new(0, 0)));
        ex.b_lock(0, BlockId(0));
        ex.erase(0, BlockId(0));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(2));
        ex.scrub(GlobalPpa::new(0, Ppa::new(0, 0)));
        let b = ex.time_breakdown();
        assert_eq!(b.read, t.t_read);
        assert_eq!(b.program, t.t_prog * 2);
        assert_eq!(b.erase, t.t_bers);
        assert_eq!(b.plock, t.t_plock);
        assert_eq!(b.block, t.t_block);
        assert_eq!(b.scrub, t.t_scrub);
        assert_eq!(b.xfer, t.t_xfer_page * 3);
        assert_eq!(
            b.total(),
            t.t_read
                + t.t_prog * 2
                + t.t_bers
                + t.t_plock
                + t.t_block
                + t.t_scrub
                + t.t_xfer_page * 3
        );
    }

    #[test]
    fn power_cut_tears_the_inflight_program() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        // Array window: [tXFER, tXFER + tPROG). Cut past the halfway point
        // of the array time leaves a torn-but-decodable page.
        ex.arm_power_cut(t.t_xfer_page + Nanos(t.t_prog.0 * 3 / 4));
        ex.begin_commit();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(7));
        assert!(ex.powered_off());
        assert!(!ex.commit_clean());
        assert!(ex.chips()[0].page_is_torn(Ppa::new(0, 0)).unwrap());
        // Time stops at the cut instant.
        assert_eq!(ex.simulated_time(), t.t_xfer_page + Nanos(t.t_prog.0 * 3 / 4));
    }

    #[test]
    fn commands_after_the_cut_never_reach_the_chips() {
        let mut ex = exec();
        ex.arm_power_cut(Nanos(1)); // fires on the first array command
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert!(ex.powered_off());
        ex.program(GlobalPpa::new(0, Ppa::new(0, 1)), PageData::tagged(2));
        ex.erase(1, BlockId(0));
        assert_eq!(ex.chips()[0].next_program_index(BlockId(0)), 0);
        assert_eq!(ex.erase_total(), 0);
    }

    #[test]
    fn cut_during_data_transfer_loses_the_program_outright() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.arm_power_cut(Nanos(t.t_xfer_page.0 / 2));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert!(ex.powered_off());
        // The array never saw the data: no slot consumed, nothing torn.
        assert!(!ex.chips()[0].page_is_written(Ppa::new(0, 0)).unwrap());
    }

    #[test]
    fn torn_erase_carries_the_fault_salt() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        let busy = ex.simulated_time();
        // Cut a fifth into the erase: data survives, signature is set.
        ex.arm_power_cut(busy + Nanos(t.t_bers.0 / 5));
        ex.erase(0, BlockId(0));
        assert!(ex.powered_off());
        assert!(ex.chips()[0].block_torn_erase(BlockId(0)).unwrap());
    }

    #[test]
    fn power_on_advances_idle_resources_to_the_cut() {
        let mut ex = exec();
        ex.arm_power_cut(Nanos::from_micros(5000));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert!(!ex.powered_off(), "op finished before the cut");
        ex.erase(1, BlockId(0)); // 3.5 ms erase crosses the 5 ms cut? no: starts at 0
        ex.power_on();
        assert!(!ex.powered_off());
        assert!(ex.simulated_time() >= Nanos::from_micros(5000));
        // Post-recovery work accrues from the cut, not from idle chips.
        let before = ex.simulated_time();
        ex.probe_page(GlobalPpa::new(1, Ppa::new(1, 0)));
        assert_eq!(ex.simulated_time() - before, TimingSpec::paper().t_read);
    }

    #[test]
    fn commit_window_reports_clean_completion() {
        let mut ex = exec();
        ex.begin_commit();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert!(ex.commit_clean(), "no cut armed: always clean");
        ex.arm_power_cut(ex.simulated_time() + Nanos(1));
        ex.begin_commit();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 1)), PageData::tagged(2));
        assert!(!ex.commit_clean());
    }

    #[test]
    fn probes_and_stalls_account_time() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(9));
        let before = ex.simulated_time();
        let probe = ex.probe_page(GlobalPpa::new(0, Ppa::new(0, 0)));
        assert!(probe.written);
        assert_eq!(probe.oob, None, "plain test data has no OOB");
        let block = ex.probe_block(0, BlockId(0));
        assert_eq!(block.next_program, 1);
        ex.stall(0, Nanos::from_micros(50));
        assert_eq!(ex.simulated_time() - before, t.t_read + Nanos::from_micros(50));
    }

    #[test]
    fn dispatch_window_floors_starts_and_reports_completion() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.begin_dispatch(Nanos::from_micros(1000));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        let done = ex.end_dispatch();
        // Both the transfer and the array program started no earlier than
        // the window's floor.
        assert_eq!(done, Nanos::from_micros(1000) + t.t_xfer_page + t.t_prog);
        assert_eq!(ex.simulated_time(), done);
        // After the window closes, reservations are unfloored again: work
        // on an idle chip starts at its own free time, not at the floor.
        ex.program(GlobalPpa::new(1, Ppa::new(0, 0)), PageData::tagged(2));
        assert_eq!(ex.chip_free_at(1), t.t_xfer_page + t.t_prog, "chip 1 never saw the floor");
    }

    #[test]
    fn simulated_time_cache_matches_resource_maximum() {
        let mut ex = exec();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        ex.program(GlobalPpa::new(1, Ppa::new(0, 0)), PageData::tagged(2));
        ex.erase(0, BlockId(1));
        ex.read(GlobalPpa::new(1, Ppa::new(0, 0)));
        // The 3.5 ms erase dominates chip 1's read chain, so the cached
        // horizon must equal chip 0's free time exactly.
        let max_chip = (0..2).map(|c| ex.chip_free_at(c)).max().unwrap();
        assert_eq!(ex.simulated_time(), max_chip);
        assert_eq!(ex.simulated_time(), ex.chip_free_at(0));
    }

    #[test]
    fn utilization_getters_track_busy_time() {
        let mut ex = exec();
        let t = TimingSpec::paper();
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        assert_eq!(ex.chip_utilized()[0], t.t_prog);
        assert_eq!(ex.chip_utilized()[1], Nanos::ZERO);
        assert_eq!(ex.channel_utilized()[0], t.t_xfer_page);
        assert_eq!(ex.chip_free_at(0), t.t_xfer_page + t.t_prog);
        assert_eq!(ex.chip_free_at(1), Nanos::ZERO);
    }

    #[test]
    fn open_interval_tracked_on_block_reuse() {
        let mut ex = exec();
        assert_eq!(ex.mean_open_interval(), None);
        ex.erase(0, BlockId(0));
        ex.program(GlobalPpa::new(0, Ppa::new(0, 0)), PageData::tagged(1));
        let open = ex.mean_open_interval().expect("one reuse observed");
        // The program starts right after the erase finishes: the interval is
        // bounded by the transfer window.
        assert!(open <= TimingSpec::paper().t_xfer_page);
    }
}
