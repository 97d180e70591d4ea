//! Live device-wide sanitization gauges.
//!
//! [`LiveGauges`] is an [`FtlObserver`] computing, incrementally and
//! device-wide, the paper's two exposure metrics over **secured** data
//! (§3, Table 1):
//!
//! * **VAF** (version amplification factor) = peak invalid secured pages
//!   over peak valid secured pages — how many unsanitized stale versions
//!   pile up;
//! * **T_insecure** = logical time (one tick per accepted host page
//!   write) during which at least one deleted-but-recoverable secured
//!   page exists, normalized by the writes needed to fill the device.
//!
//! Unlike the per-file VerTrace study in `evanesco-workloads`, these are
//! whole-device gauges meant for live exposition: attach via
//! [`crate::emulator::Emulator::enable_gauges`] and scrape through
//! [`crate::emulator::Emulator::prometheus_scrape`]. Under an immediate
//! sanitization policy (secSSD/scrSSD) every invalidation is sanitized on
//! the spot, so the invalid count stays at zero and T_insecure stays ≈0 —
//! the paper's headline claim, now observable while a run executes.

use evanesco_ftl::observer::{FtlObserver, ObserverEvent};
use evanesco_ftl::{FtlConfig, GlobalPpa, Lpa};
use evanesco_nand::snapshot::{Dec, Enc, SnapshotError};

/// A point-in-time view of the gauges (what the exposition renders).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaugeSnapshot {
    /// Logical time: accepted host page writes so far.
    pub tick: u64,
    /// Valid (live) secured pages on flash now.
    pub valid_secured: u64,
    /// Invalid secured pages still physically recoverable now.
    pub invalid_secured: u64,
    /// Peak of `valid_secured`.
    pub max_valid: u64,
    /// Peak of `invalid_secured`.
    pub max_invalid: u64,
    /// Ticks with `invalid_secured > 0`, open interval included.
    pub insecure_ticks: u64,
    /// Secured invalidations sanitized immediately (lock/scrub/erase).
    pub sanitized_immediately: u64,
    /// Invalid secured pages whose content was finally destroyed by a
    /// later erase — each spent a nonzero window exposed.
    pub exposed_then_erased: u64,
    /// Version amplification factor (`max_invalid / max_valid`).
    pub vaf: f64,
}

impl GaugeSnapshot {
    /// T_insecure normalized by `capacity_pages` (host writes that fill
    /// the device) — the Table-1 unit.
    pub fn t_insecure(&self, capacity_pages: u64) -> f64 {
        if capacity_pages == 0 {
            0.0
        } else {
            self.insecure_ticks as f64 / capacity_pages as f64
        }
    }
}

/// One owner's page-version counts — the paper's §3 rule, kept in one
/// place: `N_valid` and `N_invalid` now, their peaks, and the logical time
/// spent with `N_invalid > 0` (T_insecure before normalization). The owner
/// is a device ([`LiveGauges`]), a tenant (the fleet's totals) or a file
/// (VerTrace in `evanesco-workloads`): the caller moves `valid` /
/// `invalid`, and [`VersionCounts::note_change`] keeps the peaks and the
/// insecure interval in step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionCounts {
    /// Valid (live) pages now.
    pub valid: u64,
    /// Invalid pages still physically recoverable now.
    pub invalid: u64,
    /// Peak of `valid`.
    pub max_valid: u64,
    /// Peak of `invalid`.
    pub max_invalid: u64,
    /// Ticks with `invalid > 0` in closed intervals (the open one is added
    /// by [`VersionCounts::insecure_ticks_at`] and
    /// [`VersionCounts::close`]).
    pub insecure_ticks: u64,
    insecure_since: Option<u64>,
}

impl VersionCounts {
    /// Folds a change of `valid` / `invalid` made at `tick` into the peaks
    /// and the insecure interval.
    pub fn note_change(&mut self, tick: u64) {
        self.max_valid = self.max_valid.max(self.valid);
        self.max_invalid = self.max_invalid.max(self.invalid);
        match (self.invalid > 0, self.insecure_since) {
            (true, None) => self.insecure_since = Some(tick),
            (false, Some(since)) => {
                self.insecure_ticks += tick - since;
                self.insecure_since = None;
            }
            _ => {}
        }
    }

    /// Insecure ticks up to `tick`, the open interval included.
    pub fn insecure_ticks_at(&self, tick: u64) -> u64 {
        self.insecure_ticks + self.insecure_since.map_or(0, |since| tick - since)
    }

    /// Closes the open insecure interval at `tick` (the end of a run).
    pub fn close(&mut self, tick: u64) {
        if let Some(since) = self.insecure_since.take() {
            self.insecure_ticks += tick - since;
        }
    }

    /// Version amplification factor, `max_invalid / max_valid` (0 before
    /// any page was valid).
    pub fn vaf(&self) -> f64 {
        if self.max_valid == 0 {
            0.0
        } else {
            self.max_invalid as f64 / self.max_valid as f64
        }
    }

    /// Adds one device's gauges to a running total: the fleet sums its
    /// tenants' per-device counts, peaks and insecure ticks.
    pub fn add(&mut self, s: &GaugeSnapshot) {
        self.valid += s.valid_secured;
        self.invalid += s.invalid_secured;
        self.max_valid += s.max_valid;
        self.max_invalid += s.max_invalid;
        self.insecure_ticks += s.insecure_ticks;
    }

    /// Writes the five counters. The open interval goes separately
    /// ([`VersionCounts::encode_open`]): each checkpoint section puts its
    /// own fields between the two.
    pub fn encode(&self, e: &mut Enc) {
        for v in [self.valid, self.invalid, self.max_valid, self.max_invalid, self.insecure_ticks] {
            e.u64(v);
        }
    }

    /// Reads what [`VersionCounts::encode`] wrote; no interval is open.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(VersionCounts {
            valid: d.u64()?,
            invalid: d.u64()?,
            max_valid: d.u64()?,
            max_invalid: d.u64()?,
            insecure_ticks: d.u64()?,
            insecure_since: None,
        })
    }

    /// Reads a stream's logical clock, the `tick` its open intervals are
    /// checked against.
    ///
    /// # Errors
    ///
    /// Fails on truncation, and on a clock of `u64::MAX`: the next host
    /// tick would overflow it.
    pub fn decode_clock(d: &mut Dec<'_>) -> Result<u64, SnapshotError> {
        match d.u64()? {
            u64::MAX => {
                Err(SnapshotError::Corrupt("logical clock at u64::MAX cannot tick again".into()))
            }
            tick => Ok(tick),
        }
    }

    /// Writes the open insecure interval.
    pub fn encode_open(&self, e: &mut Enc) {
        e.opt(&self.insecure_since, |e, &t| e.u64(t));
    }

    /// Reads what [`VersionCounts::encode_open`] wrote, in a stream whose
    /// logical clock reads `tick`.
    ///
    /// # Errors
    ///
    /// Fails on truncation, and on an interval that opens after `tick`.
    pub fn decode_open(&mut self, d: &mut Dec<'_>, tick: u64) -> Result<(), SnapshotError> {
        self.insecure_since = d.opt(|d| d.u64())?;
        match self.insecure_since {
            Some(since) if since > tick => Err(SnapshotError::Corrupt(format!(
                "insecure interval opens at tick {since}, after the clock's {tick}"
            ))),
            _ => Ok(()),
        }
    }
}

/// One owner's exposure counters, everything a [`GaugeSnapshot`] reports
/// but the clock: the owner record of the gauges and of each fleet tenant.
#[derive(Debug, Clone, Default)]
pub struct ExposureCounts {
    versions: VersionCounts,
    sanitized_immediately: u64,
    exposed_then_erased: u64,
}

impl ExposureCounts {
    /// Point-in-time snapshot on a clock reading `tick` (open insecure
    /// interval folded in).
    pub fn snapshot(&self, tick: u64) -> GaugeSnapshot {
        let v = &self.versions;
        GaugeSnapshot {
            tick,
            valid_secured: v.valid,
            invalid_secured: v.invalid,
            max_valid: v.max_valid,
            max_invalid: v.max_invalid,
            insecure_ticks: v.insecure_ticks_at(tick),
            sanitized_immediately: self.sanitized_immediately,
            exposed_then_erased: self.exposed_then_erased,
            vaf: v.vaf(),
        }
    }
}

impl AsMut<VersionCounts> for ExposureCounts {
    fn as_mut(&mut self) -> &mut VersionCounts {
        &mut self.versions
    }
}

/// What [`ExposureTable::apply`] did to one tracked page, handed back with
/// the page's owner (its [`VersionCounts`] already moved) and table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageChange {
    /// Programmed for this owner.
    Programmed,
    /// Invalidated and sanitized on the spot; no longer tracked.
    Sanitized,
    /// Invalidated with its stale content still readable.
    Exposed,
    /// Erased while live.
    Erased,
    /// Erased while exposed: the stale version is destroyed at last.
    Destroyed,
}

/// Page-cell state, the low two bits of a cell; the owner sits above.
const STATE: u32 = 0b11;
const UNTRACKED: u32 = 0;
const LIVE: u32 = 1;
const EXPOSED: u32 = 2;

/// Takes a tracked `cell`'s page off its owner's live or stale count.
fn uncount(v: &mut VersionCounts, cell: u32) {
    let n = if cell & STATE == LIVE { &mut v.valid } else { &mut v.invalid };
    *n = n.saturating_sub(1);
}

/// Per-block record of an [`ExposureTable`].
#[derive(Debug, Clone, Copy, Default)]
struct BlockRec {
    /// A tracked page was programmed here since the last erase. Stays set
    /// when every such page has been sanitized away (`tracked == 0`): the
    /// checkpoint listing names such a block with zero pages, so the table
    /// has to remember it.
    present: bool,
    /// Cells of this block that are not `UNTRACKED`.
    tracked: u32,
}

/// Who owns each physical page and whether its stale content is still
/// readable: one `u32` cell per page (untracked / live / exposed plus the
/// owner's index) and one [`BlockRec`] per block, sized from the device's
/// [`FtlConfig`], on one logical clock. An [`ObserverEvent`] is a few
/// indexed loads and stores: nothing is hashed or allocated.
///
/// The caller keeps one record per owner and picks which programs are
/// tracked; the table moves the records' [`VersionCounts`] and hands every
/// other consequence back as a [`PageChange`]. [`LiveGauges`] (one owner)
/// and the fleet's attribution (one per tenant) track secured pages,
/// VerTrace in `evanesco-workloads` every page of a file (one per file).
#[derive(Debug, Clone)]
pub struct ExposureTable {
    n_chips: usize,
    blocks_per_chip: u32,
    pages_per_block: u32,
    tick: u64,
    /// `(chip, block, page)` order: `state | owner << 2`.
    cells: Vec<u32>,
    /// `(chip, block)` order.
    blocks: Vec<BlockRec>,
}

impl ExposureTable {
    /// Most owners a page cell can name.
    pub const MAX_OWNERS: usize = 1 << 30;

    /// An empty table over `cfg`'s physical pages at tick zero.
    pub fn new(cfg: &FtlConfig) -> Self {
        let blocks = cfg.n_chips * cfg.geometry.blocks as usize;
        let pages_per_block = cfg.geometry.pages_per_block();
        ExposureTable {
            n_chips: cfg.n_chips,
            blocks_per_chip: cfg.geometry.blocks,
            pages_per_block,
            tick: 0,
            cells: vec![UNTRACKED; blocks * pages_per_block as usize],
            blocks: vec![BlockRec::default(); blocks],
        }
    }

    /// Logical time: host ticks applied so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Owner of the page at table index `page`, if it is tracked.
    pub fn owner_at(&self, page: usize) -> Option<usize> {
        let cell = self.cells[page];
        (cell != UNTRACKED).then_some((cell >> 2) as usize)
    }

    /// Block index of `(chip, block)`; out-of-device addresses are an FTL
    /// bug, so they panic rather than alias a neighbor's cells.
    fn block_index(&self, chip: usize, block: u32) -> usize {
        assert!(
            chip < self.n_chips && block < self.blocks_per_chip,
            "chip {chip} block {block} outside the gauged device"
        );
        chip * self.blocks_per_chip as usize + block as usize
    }

    /// `(block index, cell index)` of a page.
    fn locate(&self, at: GlobalPpa) -> (usize, usize) {
        let b = self.block_index(at.chip, at.ppa.block.0);
        assert!(at.ppa.page.0 < self.pages_per_block, "{at} outside the gauged device");
        (b, b * self.pages_per_block as usize + at.ppa.page.0 as usize)
    }

    /// Applies one FTL event to `owners`. A `Program` is tracked when
    /// `owner_of(lpa)` names an owner, and charged to it; every later
    /// event on that page is charged to the owner its cell names, and a
    /// tick advances the one clock every owner shares. `on` hears each
    /// tracked page's change after the owner's counts moved.
    pub fn apply<O: AsMut<VersionCounts>>(
        &mut self,
        ev: ObserverEvent,
        owners: &mut [O],
        owner_of: impl FnOnce(Lpa) -> Option<usize>,
        mut on: impl FnMut(&mut O, PageChange, usize),
    ) {
        let tick = self.tick;
        match ev {
            ObserverEvent::Program { lpa, at, .. } => {
                let Some(owner) = owner_of(lpa) else { return };
                let (b, i) = self.locate(at);
                let prev = std::mem::replace(&mut self.cells[i], LIVE | (owner as u32) << 2);
                if prev == UNTRACKED {
                    self.blocks[b].tracked += 1;
                } else {
                    // Defensive: a re-program over a tracked page (e.g. a
                    // recovery rewrite after a lost erase event) hands it
                    // to the new owner, never double-counts.
                    let was = owners[(prev >> 2) as usize].as_mut();
                    uncount(was, prev);
                    was.note_change(tick);
                }
                self.blocks[b].present = true;
                let o = &mut owners[owner];
                o.as_mut().valid += 1;
                o.as_mut().note_change(tick);
                on(o, PageChange::Programmed, i);
            }
            ObserverEvent::Invalidate { at, sanitized, .. } => {
                let (b, i) = self.locate(at);
                let cell = self.cells[i];
                if cell == UNTRACKED {
                    return;
                }
                let o = &mut owners[(cell >> 2) as usize];
                let v = o.as_mut();
                if cell & STATE == LIVE {
                    v.valid -= 1;
                }
                let change = if sanitized {
                    self.cells[i] = UNTRACKED;
                    self.blocks[b].tracked -= 1;
                    PageChange::Sanitized
                } else {
                    self.cells[i] = (cell & !STATE) | EXPOSED;
                    v.invalid += 1;
                    PageChange::Exposed
                };
                v.note_change(tick);
                on(o, change, i);
            }
            // One pass settles every owner's counts, a second hands back
            // each destroyed page, so peaks and the insecure interval see
            // the block's net effect.
            ObserverEvent::Erase { chip, block } => {
                let b = self.block_index(chip, block.0);
                if std::mem::take(&mut self.blocks[b]).tracked == 0 {
                    return;
                }
                let pages =
                    b * self.pages_per_block as usize..(b + 1) * self.pages_per_block as usize;
                for &cell in self.cells[pages.clone()].iter().filter(|&&c| c != UNTRACKED) {
                    uncount(owners[(cell >> 2) as usize].as_mut(), cell);
                }
                for i in pages {
                    let cell = std::mem::replace(&mut self.cells[i], UNTRACKED);
                    if cell != UNTRACKED {
                        let o = &mut owners[(cell >> 2) as usize];
                        o.as_mut().note_change(tick);
                        let exposed = cell & STATE == EXPOSED;
                        on(o, if exposed { PageChange::Destroyed } else { PageChange::Erased }, i);
                    }
                }
            }
            ObserverEvent::HostTick => self.tick += 1,
        }
    }

    /// [`ExposureTable::apply`] under the rule of the device gauges and the
    /// fleet: only secured pages are tracked, and an insecure invalidation
    /// touches no cell (even one a lost erase event left tracked).
    pub fn apply_secured(
        &mut self,
        ev: ObserverEvent,
        owners: &mut [ExposureCounts],
        owner_of: impl FnOnce(Lpa) -> usize,
    ) {
        match ev {
            ObserverEvent::Program { secure: false, .. }
            | ObserverEvent::Invalidate { secure: false, .. } => {}
            _ => self.apply(
                ev,
                owners,
                |lpa| Some(owner_of(lpa)),
                |o, change, _| match change {
                    PageChange::Sanitized => o.sanitized_immediately += 1,
                    PageChange::Destroyed => o.exposed_then_erased += 1,
                    _ => {}
                },
            ),
        }
    }

    /// Writes the page listing that sections `0x40` and `0x60` share: the
    /// number of blocks that took a tracked program since their last erase,
    /// then per block, in `(chip, block)` order, its address, its tracked
    /// page count and each tracked page's number followed by whatever
    /// `page(e, owner, live, index)` writes for it.
    pub fn encode_listing(&self, e: &mut Enc, mut page: impl FnMut(&mut Enc, usize, bool, usize)) {
        e.usize(self.blocks.iter().filter(|b| b.present).count());
        let ppb = self.pages_per_block as usize;
        for (b, rec) in self.blocks.iter().enumerate().filter(|(_, rec)| rec.present) {
            e.usize(b / self.blocks_per_chip as usize);
            e.u32((b % self.blocks_per_chip as usize) as u32);
            e.usize(rec.tracked as usize);
            for i in b * ppb..(b + 1) * ppb {
                if let Some(owner) = self.owner_at(i) {
                    e.u32((i - b * ppb) as u32);
                    page(e, owner, self.cells[i] & STATE == LIVE, i);
                }
            }
        }
    }

    /// An empty table over `cfg` at the clock a checkpoint stream reads
    /// next ([`VersionCounts::decode_clock`]).
    ///
    /// # Errors
    ///
    /// Fails where [`VersionCounts::decode_clock`] does.
    pub fn decode_clock(cfg: &FtlConfig, d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(ExposureTable { tick: VersionCounts::decode_clock(d)?, ..ExposureTable::new(cfg) })
    }

    /// Reads what [`ExposureTable::encode_listing`] wrote into this empty
    /// table: `page(d, index)` reads one page's own fields and names its
    /// owner and whether it is live.
    ///
    /// # Errors
    ///
    /// Fails on truncation, on whatever `page` fails on, and — the table is
    /// sized by the device, never by the stream — on a block or page
    /// outside the device, a block or page listed twice, or a block listing
    /// more pages than it holds.
    pub fn decode_listing(
        &mut self,
        d: &mut Dec<'_>,
        section: &str,
        mut page: impl FnMut(&mut Dec<'_>, usize) -> Result<(usize, bool), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let corrupt = |what: String| SnapshotError::Corrupt(format!("{section}: {what}"));
        let (n_blocks, ppb) = (d.usize()?, self.pages_per_block);
        if n_blocks > self.blocks.len() {
            return Err(corrupt(format!("{n_blocks} blocks listed of {}", self.blocks.len())));
        }
        for _ in 0..n_blocks {
            let (chip, block) = (d.usize()?, d.u32()?);
            if chip >= self.n_chips || block >= self.blocks_per_chip {
                return Err(corrupt(format!("chip {chip} block {block} outside the device")));
            }
            let b = self.block_index(chip, block);
            if self.blocks[b].present {
                return Err(corrupt(format!("chip {chip} block {block} listed twice")));
            }
            let n_pages = d.usize()?;
            if n_pages > ppb as usize {
                return Err(corrupt(format!(
                    "chip {chip} block {block} lists {n_pages} pages of {ppb}"
                )));
            }
            self.blocks[b] = BlockRec { present: true, tracked: n_pages as u32 };
            for _ in 0..n_pages {
                let p = d.u32()?;
                if p >= ppb {
                    return Err(corrupt(format!(
                        "chip {chip} block {block} page {p} outside the device"
                    )));
                }
                let i = b * ppb as usize + p as usize;
                if self.cells[i] != UNTRACKED {
                    return Err(corrupt(format!(
                        "chip {chip} block {block} page {p} listed twice"
                    )));
                }
                let (owner, live) = page(d, i)?;
                self.cells[i] = (if live { LIVE } else { EXPOSED }) | (owner as u32) << 2;
            }
        }
        Ok(())
    }

    /// Checks a decoded listing against the owners' decoded counters:
    /// every live page is counted valid exactly once, an exposed page at
    /// least once (`invalid` also keeps pages sanitized later).
    ///
    /// # Errors
    ///
    /// Fails on the first owner whose counters disagree, `name`d.
    pub fn check_listing<O>(
        &self,
        section: &str,
        owners: &[O],
        versions: impl Fn(&O) -> &VersionCounts,
        name: impl Fn(&O) -> String,
    ) -> Result<(), SnapshotError> {
        let mut listed = vec![(0u64, 0u64); owners.len()];
        for &cell in self.cells.iter().filter(|&&c| c != UNTRACKED) {
            let (live, exposed) = &mut listed[(cell >> 2) as usize];
            *(if cell & STATE == LIVE { live } else { exposed }) += 1;
        }
        for (&(live, exposed), owner) in listed.iter().zip(owners) {
            let &VersionCounts { valid, invalid, .. } = versions(owner);
            if valid != live || invalid < exposed {
                return Err(SnapshotError::Corrupt(format!(
                    "{section}: {}: counters ({valid} valid, {invalid} invalid) disagree with \
                     the listed pages ({live} live, {exposed} exposed)",
                    name(owner),
                )));
            }
        }
        Ok(())
    }
}

/// Incremental device-wide VAF / T_insecure gauges: the one-owner
/// [`ExposureTable`] over secured pages, plus its checkpoint encoding.
#[derive(Debug, Clone)]
pub struct LiveGauges {
    table: ExposureTable,
    owner: ExposureCounts,
}

impl LiveGauges {
    /// Fresh gauges at tick zero over `cfg`'s physical pages.
    pub fn new(cfg: &FtlConfig) -> Self {
        LiveGauges { table: ExposureTable::new(cfg), owner: ExposureCounts::default() }
    }

    /// Current logical time (accepted host page writes).
    pub fn tick(&self) -> u64 {
        self.table.tick
    }

    /// Point-in-time snapshot (open insecure interval folded in).
    pub fn snapshot(&self) -> GaugeSnapshot {
        self.owner.snapshot(self.table.tick)
    }

    /// Serializes the gauges — counters, the open insecure interval, and
    /// the tracked secured-page population in `(chip, block, page)` order
    /// (table order, so the byte stream is canonical) — into a checkpoint
    /// stream. A `present` block is listed even when it tracks no page.
    pub fn encode_state(&self, e: &mut Enc) {
        let o = &self.owner;
        e.tag(0x40);
        e.u64(self.table.tick);
        o.versions.encode(e);
        o.versions.encode_open(e);
        e.u64(o.sanitized_immediately);
        e.u64(o.exposed_then_erased);
        self.table.encode_listing(e, |e, _, live, _| e.bool(live));
    }

    /// Reconstructs gauges for the device `cfg` describes from a stream
    /// written by [`LiveGauges::encode_state`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption, and — the table is
    /// sized by `cfg`, never by the stream — on a block or page outside
    /// the device, a block or page listed twice, counters that disagree
    /// with the listed pages, or a clock that cannot tick again.
    pub fn decode_state(cfg: &FtlConfig, d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.expect_tag(0x40, "live-gauges")?;
        let mut table = ExposureTable::decode_clock(cfg, d)?;
        let mut versions = VersionCounts::decode(d)?;
        versions.decode_open(d, table.tick)?;
        let owner = ExposureCounts {
            versions,
            sanitized_immediately: d.u64()?,
            exposed_then_erased: d.u64()?,
        };
        table.decode_listing(d, "live-gauges", |d, _| Ok((0, d.bool()?)))?;
        let counted = std::slice::from_ref(&owner);
        table.check_listing("live-gauges", counted, |o| &o.versions, |_| "device".into())?;
        Ok(LiveGauges { table, owner })
    }
}

impl FtlObserver for LiveGauges {
    fn on_event(&mut self, ev: ObserverEvent) {
        self.table.apply_secured(ev, std::slice::from_mut(&mut self.owner), |_| 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ftl::observer::InvalidateCause;
    use evanesco_nand::geometry::{BlockId, Ppa};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn at(chip: usize, block: u32, page: u32) -> GlobalPpa {
        GlobalPpa::new(chip, Ppa::new(block, page))
    }

    fn gauges() -> LiveGauges {
        LiveGauges::new(&FtlConfig::tiny_for_tests())
    }

    const TICK: ObserverEvent = ObserverEvent::HostTick;

    fn program(lpa: Lpa, at: GlobalPpa, secure: bool) -> ObserverEvent {
        ObserverEvent::Program { lpa, at, secure }
    }

    fn invalidate(at: GlobalPpa, secure: bool, sanitized: bool) -> ObserverEvent {
        ObserverEvent::Invalidate { at, secure, sanitized, cause: InvalidateCause::HostUpdate }
    }

    fn erase(chip: usize, block: u32) -> ObserverEvent {
        ObserverEvent::Erase { chip, block: BlockId(block) }
    }

    #[test]
    fn sanitized_invalidations_keep_tinsec_zero() {
        let mut g = gauges();
        g.on_event(TICK);
        g.on_event(program(0, at(0, 0, 0), true));
        g.on_event(TICK);
        g.on_event(program(0, at(0, 0, 1), true));
        g.on_event(invalidate(at(0, 0, 0), true, true)); // immediate sanitize
        for _ in 0..50 {
            g.on_event(TICK);
        }
        let s = g.snapshot();
        assert_eq!(s.valid_secured, 1);
        assert_eq!(s.invalid_secured, 0);
        assert_eq!(s.insecure_ticks, 0);
        assert_eq!(s.sanitized_immediately, 1);
        assert_eq!(s.vaf, 0.0);
        assert_eq!(s.t_insecure(1000), 0.0);
    }

    #[test]
    fn unsanitized_invalidations_accrue_insecure_time() {
        let mut g = gauges();
        g.on_event(program(0, at(0, 0, 0), true));
        for _ in 0..10 {
            g.on_event(TICK);
        }
        g.on_event(invalidate(at(0, 0, 0), true, false)); // exposed from tick 10
        for _ in 0..5 {
            g.on_event(TICK);
        }
        assert_eq!(g.snapshot().insecure_ticks, 5, "open interval counts");
        g.on_event(erase(0, 0)); // destroyed at tick 15
        for _ in 0..100 {
            g.on_event(TICK);
        }
        let s = g.snapshot();
        assert_eq!(s.insecure_ticks, 5);
        assert_eq!(s.exposed_then_erased, 1);
        assert!((s.t_insecure(100) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn insecure_writes_are_invisible() {
        let mut g = gauges();
        g.on_event(program(0, at(0, 0, 0), false));
        g.on_event(invalidate(at(0, 0, 0), false, false));
        g.on_event(TICK);
        let s = g.snapshot();
        assert_eq!((s.valid_secured, s.invalid_secured), (0, 0));
        assert_eq!(s.insecure_ticks, 0);
    }

    #[test]
    fn vaf_tracks_peaks() {
        let mut g = gauges();
        // Two generations of two secured pages, never sanitized.
        for p in 0..2 {
            g.on_event(program(p as u64, at(0, 0, p), true));
        }
        for p in 0..2 {
            g.on_event(invalidate(at(0, 0, p), true, false));
            g.on_event(program(p as u64, at(0, 1, p), true));
        }
        let s = g.snapshot();
        assert_eq!(s.max_valid, 2);
        assert_eq!(s.max_invalid, 2);
        assert!((s.vaf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn each_owner_is_charged_its_own_pages_on_one_clock() {
        let mut t = ExposureTable::new(&FtlConfig::tiny_for_tests());
        let mut owners = vec![ExposureCounts::default(); 2];
        for ev in [
            program(0, at(0, 3, 0), true),
            program(1, at(0, 3, 1), true),
            TICK,
            invalidate(at(0, 3, 0), true, false),
            TICK,
            erase(0, 3),
        ] {
            t.apply_secured(ev, &mut owners, |lpa| lpa as usize);
        }
        let (a, b) = (owners[0].snapshot(t.tick()), owners[1].snapshot(t.tick()));
        assert_eq!((a.tick, b.tick), (2, 2));
        assert_eq!((a.exposed_then_erased, a.insecure_ticks, a.invalid_secured), (1, 1, 0));
        assert_eq!((b.exposed_then_erased, b.insecure_ticks, b.valid_secured), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "outside the gauged device")]
    fn an_address_outside_the_device_is_a_bug_not_a_neighbors_cell() {
        let cfg = FtlConfig::tiny_for_tests();
        gauges().on_event(program(0, at(0, 0, cfg.geometry.pages_per_block()), true));
    }

    // ---- The hash-map gauges this table replaced, kept as the ----
    // ---- differential reference (PR 14 / PR 16 style).         ----

    /// Counts through the same [`ExposureCounts`] (the Table-1 rule has one
    /// home); the page population is the hash map the dense table replaced.
    #[derive(Debug, Clone, Default)]
    struct RefGauges {
        tick: u64,
        exp: ExposureCounts,
        /// `(chip, block)` → page → live?
        phys: HashMap<(usize, u32), HashMap<u32, bool>>,
    }

    impl RefGauges {
        fn snapshot(&self) -> GaugeSnapshot {
            self.exp.snapshot(self.tick)
        }

        fn encode_state(&self, e: &mut Enc) {
            e.tag(0x40);
            e.u64(self.tick);
            self.exp.versions.encode(e);
            self.exp.versions.encode_open(e);
            e.u64(self.exp.sanitized_immediately);
            e.u64(self.exp.exposed_then_erased);
            let mut blocks: Vec<_> = self.phys.keys().copied().collect();
            blocks.sort_unstable();
            e.usize(blocks.len());
            for key in blocks {
                e.usize(key.0);
                e.u32(key.1);
                let pages = &self.phys[&key];
                let mut ids: Vec<_> = pages.keys().copied().collect();
                ids.sort_unstable();
                e.usize(ids.len());
                for p in ids {
                    e.u32(p);
                    e.bool(pages[&p]);
                }
            }
        }
    }

    impl FtlObserver for RefGauges {
        fn on_event(&mut self, ev: ObserverEvent) {
            let v = &mut self.exp.versions;
            match ev {
                ObserverEvent::Program { at, secure: true, .. } => {
                    let block = self.phys.entry((at.chip, at.ppa.block.0)).or_default();
                    match block.insert(at.ppa.page.0, true) {
                        None => v.valid += 1,
                        Some(false) => {
                            v.valid += 1;
                            v.invalid = v.invalid.saturating_sub(1);
                        }
                        Some(true) => {}
                    }
                }
                ObserverEvent::Invalidate { at, secure: true, sanitized, .. } => {
                    let key = (at.chip, at.ppa.block.0);
                    let Some(block) = self.phys.get_mut(&key) else { return };
                    let Some(live) = block.get_mut(&at.ppa.page.0) else { return };
                    if *live {
                        *live = false;
                        v.valid -= 1;
                    }
                    if sanitized {
                        block.remove(&at.ppa.page.0);
                        self.exp.sanitized_immediately += 1;
                    } else {
                        v.invalid += 1;
                    }
                }
                ObserverEvent::Erase { chip, block } => {
                    let Some(entries) = self.phys.remove(&(chip, block.0)) else { return };
                    for live in entries.into_values() {
                        if live {
                            v.valid = v.valid.saturating_sub(1);
                        } else {
                            v.invalid = v.invalid.saturating_sub(1);
                            self.exp.exposed_then_erased += 1;
                        }
                    }
                }
                ObserverEvent::HostTick => {
                    self.tick += 1;
                    return;
                }
                _ => return,
            }
            v.note_change(self.tick);
        }
    }

    /// The fleet's old per-tenant attribution: an ownership map learned at
    /// program time routing to N private gauge sets, erases and ticks
    /// broadcast.
    struct RefAttribution {
        window: u64,
        gauges: Vec<RefGauges>,
        owner: HashMap<(usize, u32), HashMap<u32, usize>>,
    }

    impl FtlObserver for RefAttribution {
        fn on_event(&mut self, ev: ObserverEvent) {
            let tenant = match ev {
                ObserverEvent::Program { lpa, at, secure, .. } => {
                    let tenant = ((lpa / self.window) as usize).min(self.gauges.len() - 1);
                    if secure {
                        let block = self.owner.entry((at.chip, at.ppa.block.0)).or_default();
                        block.insert(at.ppa.page.0, tenant);
                    }
                    Some(tenant)
                }
                ObserverEvent::Invalidate { at, sanitized, .. } => {
                    let key = (at.chip, at.ppa.block.0);
                    let Some(block) = self.owner.get_mut(&key) else { return };
                    let Some(&tenant) = block.get(&at.ppa.page.0) else { return };
                    if sanitized {
                        block.remove(&at.ppa.page.0);
                        if block.is_empty() {
                            self.owner.remove(&key);
                        }
                    }
                    Some(tenant)
                }
                ObserverEvent::Erase { chip, block } => {
                    self.owner.remove(&(chip, block.0));
                    None
                }
                ObserverEvent::HostTick => None,
            };
            match tenant {
                Some(tenant) => self.gauges[tenant].on_event(ev),
                None => self.gauges.iter_mut().for_each(|g| g.on_event(ev)),
            }
        }
    }

    /// A device small enough that random events collide: 2 chips × 3
    /// blocks × 6 pages.
    fn small_cfg() -> FtlConfig {
        let mut cfg = FtlConfig::tiny_for_tests();
        cfg.geometry.blocks = 3;
        cfg.geometry.wordlines_per_block = 2;
        cfg
    }

    const WINDOW: u64 = 100;

    /// What the FTL did to a physical page since its block's last erase.
    #[derive(Clone, Copy, PartialEq)]
    enum Page {
        Erased,
        Live { lpa: Lpa, secure: bool },
        Dead { secure: bool },
    }

    /// The dense implementations and their hash-map references, fed the
    /// same events and compared after each one.
    struct Pair {
        table: ExposureTable,
        owners: Vec<ExposureCounts>,
        attr: RefAttribution,
        gauges: LiveGauges,
        reference: RefGauges,
    }

    impl Pair {
        fn new(cfg: &FtlConfig, owners: usize) -> Self {
            Pair {
                table: ExposureTable::new(cfg),
                owners: vec![ExposureCounts::default(); owners],
                attr: RefAttribution {
                    window: WINDOW,
                    gauges: vec![RefGauges::default(); owners],
                    owner: HashMap::new(),
                },
                gauges: LiveGauges::new(cfg),
                reference: RefGauges::default(),
            }
        }

        fn feed(&mut self, ev: ObserverEvent) {
            self.table.apply_secured(ev, &mut self.owners, |lpa| (lpa / WINDOW) as usize);
            self.attr.on_event(ev);
            self.gauges.on_event(ev);
            self.reference.on_event(ev);
        }

        fn bytes(&self) -> (Vec<u8>, Vec<u8>) {
            let (mut dense, mut hashed) = (Enc::new(), Enc::new());
            self.gauges.encode_state(&mut dense);
            self.reference.encode_state(&mut hashed);
            (dense.into_bytes(), hashed.into_bytes())
        }

        fn check(&self, step: usize) -> Result<(), TestCaseError> {
            for (o, r) in self.attr.gauges.iter().enumerate() {
                let snapshot = self.owners[o].snapshot(self.table.tick());
                prop_assert_eq!(snapshot, r.snapshot(), "owner {} @ {}", o, step);
            }
            prop_assert_eq!(self.gauges.snapshot(), self.reference.snapshot(), "@ {}", step);
            let (dense, hashed) = self.bytes();
            prop_assert_eq!(dense, hashed, "encode_state bytes @ {}", step);
            Ok(())
        }
    }

    /// First page at or after `start` (wrapping) that satisfies `want`.
    fn pick(pages: &[Page], start: usize, want: impl Fn(Page) -> bool) -> Option<usize> {
        (0..pages.len()).map(|k| (start + k) % pages.len()).find(|&i| want(pages[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Valid FTL event streams — program only an erased page,
        /// invalidate a live or an already-dead page (sanitized or not),
        /// relocate, erase, tick — leave the dense table and the hash-map
        /// references with equal snapshots and equal checkpoint bytes
        /// after every event, and the bytes survive decode → encode.
        #[test]
        fn dense_table_matches_the_hash_map_gauges(
            owners in 1usize..=5,
            cmds in proptest::collection::vec((0u8..12, 0usize..1000, 0u64..WINDOW, 0u8..4), 1..160),
        ) {
            let cfg = small_cfg();
            let ppb = cfg.geometry.pages_per_block() as usize;
            let per_chip = cfg.geometry.blocks as usize * ppb;
            let addr = |i: usize| at(i / per_chip, (i % per_chip / ppb) as u32, (i % ppb) as u32);
            let mut pages = vec![Page::Erased; cfg.n_chips * per_chip];
            let mut pair = Pair::new(&cfg, owners);
            for (step, &(kind, sel, off, flags)) in cmds.iter().enumerate() {
                let start = sel % pages.len();
                match kind {
                    // Host write: three in four secured.
                    0..=3 => {
                        let Some(i) = pick(&pages, start, |p| p == Page::Erased) else { continue };
                        let (lpa, secure) = ((sel % owners) as u64 * WINDOW + off, flags != 0);
                        pair.feed(TICK);
                        pair.feed(program(lpa, addr(i), secure));
                        pages[i] = Page::Live { lpa, secure };
                    }
                    // Invalidate a live page, or a dead one again.
                    4..=6 => {
                        let live_only = flags & 2 == 0;
                        let want = |p| match p {
                            Page::Live { .. } => true,
                            Page::Dead { .. } => !live_only,
                            Page::Erased => false,
                        };
                        let Some(i) = pick(&pages, start, want) else { continue };
                        let (Page::Live { secure, .. } | Page::Dead { secure }) = pages[i] else {
                            unreachable!()
                        };
                        pair.feed(invalidate(addr(i), secure, flags & 1 == 1));
                        pages[i] = Page::Dead { secure };
                    }
                    // GC copy: re-program on an erased page, retire the old.
                    7..=8 => {
                        let live = |p| matches!(p, Page::Live { .. });
                        let Some(old) = pick(&pages, start, live) else { continue };
                        let Some(new) = pick(&pages, old, |p| p == Page::Erased) else { continue };
                        let Page::Live { lpa, secure } = pages[old] else { unreachable!() };
                        pair.feed(program(lpa, addr(new), secure));
                        pages[new] = pages[old];
                        pair.feed(invalidate(addr(old), secure, flags & 1 == 1));
                        pages[old] = Page::Dead { secure };
                    }
                    9 => {
                        let b = start / ppb;
                        pair.feed(erase(b / cfg.geometry.blocks as usize, (b % cfg.geometry.blocks as usize) as u32));
                        pages[b * ppb..(b + 1) * ppb].fill(Page::Erased);
                    }
                    _ => pair.feed(TICK),
                }
                pair.check(step)?;
            }
            let (bytes, _) = pair.bytes();
            let back = LiveGauges::decode_state(&cfg, &mut Dec::new(&bytes)).unwrap();
            let mut again = Enc::new();
            back.encode_state(&mut again);
            prop_assert_eq!(again.into_bytes(), bytes);
            prop_assert_eq!(back.snapshot(), pair.gauges.snapshot());
        }
    }

    /// The trap in the byte stream: a block whose secured pages were all
    /// sanitized keeps a zero-page entry until it is erased.
    #[test]
    fn an_all_sanitized_block_stays_in_the_stream_until_erased() {
        let cfg = small_cfg();
        let mut pair = Pair::new(&cfg, 1);
        pair.feed(program(1, at(1, 2, 0), true));
        pair.feed(program(2, at(1, 2, 4), true));
        pair.feed(invalidate(at(1, 2, 0), true, true));
        pair.feed(invalidate(at(1, 2, 4), true, true));
        let (dense, hashed) = pair.bytes();
        assert_eq!(dense, hashed);
        let mut empty = Enc::new();
        LiveGauges::new(&cfg).encode_state(&mut empty);
        assert!(dense.len() > empty.into_bytes().len(), "the empty block is listed");
        let back = LiveGauges::decode_state(&cfg, &mut Dec::new(&dense)).unwrap();
        let mut again = Enc::new();
        back.encode_state(&mut again);
        assert_eq!(again.into_bytes(), dense, "and survives a round trip");
        pair.feed(erase(1, 2));
        let (dense, hashed) = pair.bytes();
        assert_eq!(dense, hashed);
    }

    // ---- Hostile checkpoint input ----

    /// `(chip, block, [(page, live)])` as the stream lists it.
    type ListedBlock<'a> = (usize, u32, &'a [(u32, bool)]);

    /// A gauge stream with the given counters and block entries,
    /// well-formed as far as the framing goes.
    fn stream(valid: u64, invalid: u64, blocks: &[ListedBlock<'_>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.tag(0x40);
        for v in [9, valid, invalid, valid, invalid, 0] {
            e.u64(v);
        }
        e.opt(&(invalid > 0).then_some(3u64), |e, &t| e.u64(t));
        e.u64(0);
        e.u64(0);
        e.usize(blocks.len());
        for &(chip, block, pages) in blocks {
            e.usize(chip);
            e.u32(block);
            e.usize(pages.len());
            for &(p, live) in pages {
                e.u32(p);
                e.bool(live);
            }
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<LiveGauges, SnapshotError> {
        let mut d = Dec::new(bytes);
        let g = LiveGauges::decode_state(&small_cfg(), &mut d)?;
        d.finish()?;
        Ok(g)
    }

    fn corrupt(bytes: &[u8], needle: &str) {
        match decode(bytes) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Corrupt(.. {needle} ..), got {other:?}"),
        }
    }

    #[test]
    fn a_well_formed_stream_decodes_and_every_truncation_is_typed() {
        let good = stream(2, 1, &[(0, 1, &[(0, true), (5, false)]), (1, 2, &[(3, true)])]);
        let g = decode(&good).unwrap();
        assert_eq!((g.snapshot().valid_secured, g.snapshot().invalid_secured), (2, 1));
        for cut in 0..good.len() {
            assert!(
                matches!(decode(&good[..cut]), Err(SnapshotError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn addresses_outside_the_configured_device_are_rejected() {
        // small_cfg: chips 0..2, blocks 0..3, pages 0..6.
        corrupt(&stream(1, 0, &[(2, 0, &[(0, true)])]), "outside the device");
        corrupt(&stream(1, 0, &[(usize::MAX, 0, &[(0, true)])]), "outside the device");
        corrupt(&stream(1, 0, &[(0, 3, &[(0, true)])]), "outside the device");
        corrupt(&stream(1, 0, &[(0, 0, &[(6, true)])]), "outside the device");
        corrupt(&stream(1, 0, &[(0, 0, &[(u32::MAX, true)])]), "outside the device");
    }

    #[test]
    fn an_insecure_interval_opening_after_the_clock_is_rejected() {
        let mut e = Enc::new();
        e.tag(0x40);
        e.u64(2);
        VersionCounts { invalid: 1, max_invalid: 1, ..VersionCounts::default() }.encode(&mut e);
        e.opt(&Some(5u64), |e, &t| e.u64(t));
        corrupt(&e.into_bytes(), "after the clock");
    }

    #[test]
    fn a_clock_that_cannot_tick_again_is_rejected() {
        let mut bytes = stream(0, 0, &[]);
        bytes[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        corrupt(&bytes, "cannot tick again");
        bytes[1..9].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        assert!(decode(&bytes).is_ok(), "one tick below the limit still decodes");
    }

    #[test]
    fn duplicates_are_rejected() {
        corrupt(&stream(2, 0, &[(0, 0, &[(1, true), (1, true)])]), "page 1 listed twice");
        corrupt(
            &stream(2, 0, &[(1, 1, &[(0, true)]), (1, 1, &[(2, true)])]),
            "block 1 listed twice",
        );
    }

    #[test]
    fn counts_that_disagree_with_the_entries_are_rejected_without_allocating() {
        // Block and page counts far beyond the device: refused before any
        // entry is read, not looped over or allocated for.
        let mut e = Enc::new();
        e.tag(0x40);
        for _ in 0..6 {
            e.u64(0);
        }
        e.opt(&None::<u64>, |e, &t| e.u64(t));
        e.u64(0);
        e.u64(0);
        let header = e.into_bytes();
        let mut many_blocks = Enc::new();
        many_blocks.usize(usize::MAX);
        corrupt(&[header.clone(), many_blocks.into_bytes()].concat(), "blocks listed of");
        let mut many_pages = Enc::new();
        many_pages.usize(1);
        many_pages.usize(0);
        many_pages.u32(0);
        many_pages.usize(usize::MAX);
        corrupt(&[header, many_pages.into_bytes()].concat(), "lists");
        // Counters that the listed pages contradict.
        corrupt(&stream(5, 0, &[(0, 0, &[(0, true)])]), "disagree");
        corrupt(&stream(0, 0, &[(0, 0, &[(0, true)])]), "disagree");
        corrupt(&stream(1, 0, &[(0, 0, &[(0, true), (1, false)])]), "disagree");
    }
}
