//! Behavioral NAND chip model.
//!
//! This layer tracks what a controller can observe through the flash
//! interface — page contents, program/erase rules, cycle counts and
//! latencies — without per-cell state. The Evanesco layer
//! (`evanesco-core`) wraps this chip to add pAP/bAP access-permission
//! flags and the `pLock`/`bLock` commands.
//!
//! Enforced NAND rules:
//!
//! * **erase-before-program** — a programmed page cannot be reprogrammed;
//! * **in-order program** — pages within a block must be programmed in
//!   strictly increasing order;
//! * erase works at block granularity only.

use crate::error::NandError;
use crate::geometry::{BlockId, Geometry, PageLayout, Ppa};
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::timing::{Nanos, TimingSpec};

/// Fraction of `tPROG` that must have elapsed before a torn (power-cut)
/// program leaves ECC-decodable data behind. Below this, the page reads as
/// uncorrectable garbage; above it, the content (and its OOB metadata) is
/// recoverable — by the controller *and* by a forensic attacker.
pub const TORN_PROGRAM_READABLE_FRACTION: f64 = 0.5;

/// Fraction of `tBERS` after which an interrupted erase has destroyed the
/// block's data. Erase pulses strip charge quickly: beyond this point the
/// old contents are gone even though the block is not cleanly erased.
pub const TORN_ERASE_DATA_WIPE_FRACTION: f64 = 0.25;

/// Fraction of `tscrub` needed for an interrupted one-shot reprogram to
/// have destroyed the target page. Below it, the original data survives.
pub const TORN_SCRUB_DESTROY_FRACTION: f64 = 0.5;

/// OOB (spare-area) metadata the FTL stores alongside each page. This is
/// what a power-up recovery scan reads to rebuild the mapping tables: the
/// logical address, the security requirement of the content, and a
/// monotonically-increasing write sequence number that orders versions.
///
/// This is the *interface* form. Inside [`PageData`] and the chip's page
/// records the same three values travel as whole words ([`PackedOob`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageOob {
    /// Logical page address the content belongs to.
    pub lpa: u64,
    /// Whether the content requires sanitization on invalidation.
    pub secure: bool,
    /// FTL-wide program sequence number (higher = newer version).
    pub seq: u64,
}

/// Meta-word bit: the writer stamped OOB metadata.
const META_OOB: u64 = 1;
/// Meta-word bit: the stamped content is secure.
const META_SECURE: u64 = 1 << 1;
/// Meta-word bit (page records only): a byte payload sits in the pool, its
/// index in the word's high half.
const META_PAYLOAD: u64 = 1 << 2;
const META_POOL_SHIFT: u32 = 32;

/// [`PageOob`] as three aligned words and nothing else.
///
/// The hot records of the NAND data path ([`PageData`], `PageSlot`) are
/// copied once per simulated page operation. A `bool` or an `Option`
/// discriminant in the middle of such a record leaves padding bytes, the
/// compiler copies around them with narrower, overlapping moves, and the
/// next full-width load of the same bytes cannot be store-to-load
/// forwarded: it waits for the stores to retire (12 % of a Figure-14
/// replay sat on one such pair). So flags live in a whole `meta` word —
/// keep every field of these records a `u64`. The `padding_free` test
/// below pins it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct PackedOob {
    lpa: u64,
    seq: u64,
    /// [`META_OOB`] | [`META_SECURE`]; zero (with `lpa` and `seq`) when no
    /// OOB was stamped, so derived equality is equality of the views.
    meta: u64,
}

impl PackedOob {
    const NONE: PackedOob = PackedOob { lpa: 0, seq: 0, meta: 0 };

    #[inline]
    fn pack(oob: PageOob) -> Self {
        PackedOob {
            lpa: oob.lpa,
            seq: oob.seq,
            meta: META_OOB | if oob.secure { META_SECURE } else { 0 },
        }
    }

    #[inline]
    fn unpack(self) -> Option<PageOob> {
        (self.meta & META_OOB != 0).then_some(PageOob {
            lpa: self.lpa,
            secure: self.meta & META_SECURE != 0,
            seq: self.seq,
        })
    }
}

/// The payload stored in one page.
///
/// For system-level simulations carrying full 16-KiB buffers around would
/// dominate memory for zero fidelity gain, so a page stores a 64-bit
/// **content tag** (think: hash of the real data, as the paper's VerTrace
/// uses MD5 digests) plus an optional real byte payload for tests and
/// examples that want to read data back.
#[derive(Clone, PartialEq, Eq)]
#[repr(C)]
pub struct PageData {
    tag: u64,
    oob: PackedOob,
    payload: Option<Box<[u8]>>,
}

impl std::fmt::Debug for PageData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageData")
            .field("tag", &self.tag)
            .field("payload", &self.payload)
            .field("oob", &self.oob())
            .finish()
    }
}

impl PageData {
    /// A page identified only by a content tag.
    #[inline]
    pub fn tagged(tag: u64) -> Self {
        PageData { tag, oob: PackedOob::NONE, payload: None }
    }

    /// A page with a real byte payload (tag is a cheap FNV-1a of the bytes).
    pub fn with_payload(bytes: &[u8]) -> Self {
        let mut tag: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            tag ^= b as u64;
            tag = tag.wrapping_mul(0x100_0000_01b3);
        }
        PageData { tag, oob: PackedOob::NONE, payload: Some(bytes.into()) }
    }

    /// Attaches (or replaces) OOB metadata; the FTL stamps every program
    /// with this so a recovery scan can rebuild its tables.
    #[must_use]
    #[inline]
    pub fn with_oob(mut self, oob: PageOob) -> Self {
        self.oob = PackedOob::pack(oob);
        self
    }

    /// The content tag.
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The byte payload, if one was stored.
    pub fn payload(&self) -> Option<&[u8]> {
        self.payload.as_deref()
    }

    /// The OOB metadata, if the writer stamped any.
    #[inline]
    pub fn oob(&self) -> Option<PageOob> {
        self.oob.unpack()
    }
}

/// What a read returns about the addressed page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageContent {
    /// Page erased since the last block erase; reads as all-ones.
    Erased,
    /// Page holds programmed data.
    Data(PageData),
    /// Page was destroyed in place (scrubbed / one-shot reprogrammed);
    /// the original data is unrecoverable, reads return garbage.
    Destroyed,
    /// Program was interrupted by a power cut. `data` is `Some` when enough
    /// of `tPROG` elapsed for ECC to still decode the partial page — in
    /// which case the content is visible both to the controller and to a
    /// forensic attacker — and `None` when the page reads as garbage.
    Torn { data: Option<PageData> },
}

impl PageContent {
    /// Programmed data, if present (including decodable torn data).
    pub fn data(&self) -> Option<&PageData> {
        match self {
            PageContent::Data(d) => Some(d),
            PageContent::Torn { data } => data.as_ref(),
            _ => None,
        }
    }

    /// Whether this content came from an interrupted program.
    pub fn is_torn(&self) -> bool {
        matches!(self, PageContent::Torn { .. })
    }
}

/// Result of a chip read operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutput {
    /// The page content observed on the interface.
    pub content: PageContent,
    /// Array-access latency of the operation (excludes channel transfer).
    pub latency: Nanos,
}

impl ReadOutput {
    /// Programmed data, if the read returned any.
    pub fn data(&self) -> Option<PageData> {
        self.content.data().cloned()
    }
}

/// Lifecycle state of a page slot: one byte in the chip's state column,
/// the only place a slot's state is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SlotState {
    Erased,
    Programmed,
    Destroyed,
    /// Torn program whose partial page still decodes under ECC.
    TornReadable,
    /// Torn program that reads as garbage on the interface. The tag,
    /// payload and OOB are still retained internally: checkpoints have
    /// always serialized torn data regardless of readability, and the
    /// stream must stay byte-identical.
    TornGarbage,
}

impl SlotState {
    /// Whether the slot's page record is live (it is stale otherwise: an
    /// erase or a destroy only rewrites the state byte).
    #[inline]
    fn holds_record(self) -> bool {
        matches!(self, SlotState::Programmed | SlotState::TornReadable | SlotState::TornGarbage)
    }
}

/// Dense per-page record: four aligned words, `Copy`, no heap pointers,
/// meaningful only while the slot's state byte
/// [holds a record](SlotState::holds_record). A byte payload (only tests
/// and examples store one; system-level runs use content tags) lives in
/// the chip-level [`PayloadPool`] and is referenced by index, so a block
/// erase recycles buffers instead of freeing them. Aligned to its size so
/// a record never straddles a cache line; see [`PackedOob`] for why every
/// field is a whole word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
struct PageSlot {
    tag: u64,
    lpa: u64,
    seq: u64,
    /// [`META_OOB`] | [`META_SECURE`] | [`META_PAYLOAD`] | pool index.
    meta: u64,
}

impl PageSlot {
    const BLANK: PageSlot = PageSlot { tag: 0, lpa: 0, seq: 0, meta: 0 };

    #[inline]
    fn payload(&self) -> Option<u32> {
        (self.meta & META_PAYLOAD != 0).then_some((self.meta >> META_POOL_SHIFT) as u32)
    }

    #[inline]
    fn oob(&self) -> PackedOob {
        PackedOob { lpa: self.lpa, seq: self.seq, meta: self.meta & (META_OOB | META_SECURE) }
    }
}

/// One recyclable payload buffer. (The pool is a slab of these, off the
/// per-op path: the page store itself holds no nested table, which CI
/// greps for.)
type PayloadBuf = Vec<u8>;

/// Chip-level arena for page byte payloads. Buffers are never freed while
/// the chip lives: releasing a slot pushes its index on the free list, and
/// the next store reuses the allocation (clear + extend keeps capacity).
#[derive(Debug, Clone, Default)]
struct PayloadPool {
    bufs: Vec<PayloadBuf>,
    free: Vec<u32>,
}

impl PayloadPool {
    fn store(&mut self, bytes: &[u8]) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                let buf = &mut self.bufs[idx as usize];
                buf.clear();
                buf.extend_from_slice(bytes);
                idx
            }
            None => {
                let idx = u32::try_from(self.bufs.len()).expect("payload pool overflow");
                self.bufs.push(bytes.to_vec());
                idx
            }
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    fn get(&self, idx: u32) -> &[u8] {
        &self.bufs[idx as usize]
    }

    /// Whether any payload was ever stored (tag-only runs never do, and
    /// their erases skip the record scan).
    fn is_unused(&self) -> bool {
        self.bufs.is_empty()
    }
}

/// Moves a [`PageData`]'s payload into the pool and returns the dense record.
#[inline]
fn intern_slot(pool: &mut PayloadPool, data: PageData) -> PageSlot {
    let PageData { tag, oob, payload } = data;
    let payload = match payload {
        None => 0,
        Some(bytes) => META_PAYLOAD | u64::from(pool.store(&bytes)) << META_POOL_SHIFT,
    };
    PageSlot { tag, lpa: oob.lpa, seq: oob.seq, meta: oob.meta | payload }
}

/// Per-block bookkeeping (the pages themselves are in the chip's flat
/// store).
#[derive(Debug, Clone)]
struct BlockMeta {
    /// Next in-order program index.
    next_program: u32,
    erase_count: u64,
    /// Simulation time of the last erase, for open-interval tracking.
    last_erase_at: Option<Nanos>,
    /// An erase of this block was interrupted by a power cut. Detectable
    /// on power-up via a blank-check / margin read: the block is neither
    /// cleanly erased nor validly programmed.
    torn_erase: bool,
}

impl BlockMeta {
    const FRESH: BlockMeta =
        BlockMeta { next_program: 0, erase_count: 0, last_erase_at: None, torn_erase: false };
}

crate::counters! {
    /// Cumulative operation counters of a chip.
    ChipStats;
    /// Page reads.
    reads: "Page reads.",
    /// Page programs.
    programs: "Page programs.",
    /// Block erases.
    erases: "Block erases.",
    /// In-place page destructions (scrubs).
    scrubs: "In-place page destructions (scrubs).",
    /// Programs interrupted by a power cut.
    torn_programs: "Programs interrupted by a power cut.",
    /// Erases interrupted by a power cut.
    torn_erases: "Erases interrupted by a power cut.",
}

/// A behavioral NAND flash chip.
///
/// The page store is flat: one state byte and one [`PageSlot`] record per
/// page, both indexed through the chip's [`PageLayout`]
/// (`block * pages_per_block + page`, range-checked). Program, lock and
/// read-gate decisions test the byte column; only an operation that moves
/// data touches the record.
#[derive(Debug, Clone)]
pub struct Chip {
    geom: Geometry,
    layout: PageLayout,
    timing: TimingSpec,
    /// State of every page slot.
    states: Vec<SlotState>,
    /// Record of every page slot, live where `states` says so.
    slots: Vec<PageSlot>,
    blocks: Vec<BlockMeta>,
    pool: PayloadPool,
    stats: ChipStats,
}

impl Chip {
    /// Creates an all-erased chip with paper timing.
    pub fn new(geom: Geometry) -> Self {
        Self::with_timing(geom, TimingSpec::paper())
    }

    /// Creates an all-erased chip with explicit timing.
    pub fn with_timing(geom: Geometry, timing: TimingSpec) -> Self {
        let layout = geom.layout();
        Chip {
            geom,
            layout,
            timing,
            states: vec![SlotState::Erased; layout.pages()],
            slots: vec![PageSlot::BLANK; layout.pages()],
            blocks: vec![BlockMeta::FRESH; layout.blocks()],
            pool: PayloadPool::default(),
            stats: ChipStats::default(),
        }
    }

    /// Rebuilds a [`PageData`] view of a record (copies the pooled payload).
    #[inline]
    fn slot_data(&self, slot: &PageSlot) -> PageData {
        PageData {
            tag: slot.tag,
            oob: slot.oob(),
            payload: slot.payload().map(|idx| Box::from(self.pool.get(idx))),
        }
    }

    /// Serializes a slot's data section exactly as the pre-pool encoding
    /// wrote an inline [`PageData`]: tag, optional payload bytes, optional
    /// OOB. The pool is an in-memory detail; it never reaches the stream.
    fn encode_slot_data(&self, e: &mut Enc, slot: &PageSlot) {
        e.u64(slot.tag);
        e.opt(&slot.payload(), |e, &idx| e.bytes(self.pool.get(idx)));
        e.opt(&slot.oob().unpack(), |e, oob| {
            e.u64(oob.lpa);
            e.bool(oob.secure);
            e.u64(oob.seq);
        });
    }

    /// Sets slot `i`'s state, first returning the payload buffer of a live
    /// record (if any) to the pool. The record itself is left stale.
    #[inline]
    fn retire(&mut self, i: usize, state: SlotState) {
        if self.states[i].holds_record() {
            if let Some(idx) = self.slots[i].payload() {
                self.pool.release(idx);
            }
        }
        self.states[i] = state;
    }

    /// The chip geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The chip's latency table.
    pub fn timing(&self) -> &TimingSpec {
        &self.timing
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// Senses a page: checks the address, counts the read, and returns the
    /// page's flat index for the `*_at` views below. Every read of this
    /// chip — [`Chip::read`] and the gated reads of the layer above — is
    /// this one function followed by one view.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    #[inline]
    pub fn sense(&mut self, ppa: Ppa) -> Result<usize, NandError> {
        let i = self.layout.page(ppa)?;
        self.stats.reads += 1;
        Ok(i)
    }

    /// Whether sensed page `i` holds a cleanly programmed page — the only
    /// state whose read runs ECC decode.
    ///
    /// # Panics
    ///
    /// Like every `*_at` view, panics if `i` is not an index
    /// [`Chip::sense`] returned.
    #[inline]
    pub fn holds_data_at(&self, i: usize) -> bool {
        self.states[i] == SlotState::Programmed
    }

    /// The data of sensed page `i` if it is cleanly programmed (what a
    /// controller hands the FTL; a torn page is not served).
    #[inline]
    pub fn data_at(&self, i: usize) -> Option<PageData> {
        self.holds_data_at(i).then(|| self.slot_data(&self.slots[i]))
    }

    /// The OOB metadata of sensed page `i` if its data decodes, torn or
    /// not (what a recovery scan reads).
    #[inline]
    pub fn oob_at(&self, i: usize) -> Option<PageOob> {
        match self.states[i] {
            SlotState::Programmed | SlotState::TornReadable => self.slots[i].oob().unpack(),
            _ => None,
        }
    }

    /// Everything the interface shows of sensed page `i`.
    pub fn content_at(&self, i: usize) -> PageContent {
        match self.states[i] {
            SlotState::Erased => PageContent::Erased,
            SlotState::Programmed => PageContent::Data(self.slot_data(&self.slots[i])),
            SlotState::Destroyed => PageContent::Destroyed,
            SlotState::TornReadable => {
                PageContent::Torn { data: Some(self.slot_data(&self.slots[i])) }
            }
            SlotState::TornGarbage => PageContent::Torn { data: None },
        }
    }

    /// Reads a page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    pub fn read(&mut self, ppa: Ppa) -> Result<ReadOutput, NandError> {
        let i = self.sense(ppa)?;
        Ok(ReadOutput { content: self.content_at(i), latency: self.timing.t_read })
    }

    /// The checks and bookkeeping shared by a program and a torn program:
    /// erase-before-program, in-order, record stored, pointer advanced.
    #[inline]
    fn store(&mut self, ppa: Ppa, data: PageData, state: SlotState) -> Result<(), NandError> {
        let i = self.layout.page(ppa)?;
        if self.states[i] != SlotState::Erased {
            return Err(NandError::ProgramOnProgrammedPage { ppa });
        }
        let block = &mut self.blocks[ppa.block.0 as usize];
        if ppa.page.0 != block.next_program {
            return Err(NandError::OutOfOrderProgram { ppa, expected: block.next_program });
        }
        block.next_program += 1;
        self.slots[i] = intern_slot(&mut self.pool, data);
        self.states[i] = state;
        Ok(())
    }

    /// Programs a page with `data`.
    ///
    /// # Errors
    ///
    /// * [`NandError::BadAddress`] — out-of-range address.
    /// * [`NandError::ProgramOnProgrammedPage`] — erase-before-program
    ///   violation.
    /// * [`NandError::OutOfOrderProgram`] — pages of a block must be
    ///   programmed in increasing order.
    #[inline]
    pub fn program(&mut self, ppa: Ppa, data: PageData) -> Result<Nanos, NandError> {
        self.store(ppa, data, SlotState::Programmed)?;
        self.stats.programs += 1;
        Ok(self.timing.t_prog)
    }

    /// Erases a block, resetting every page to the erased state.
    ///
    /// `now` is the current simulation time; it is recorded so the next
    /// program to the block can compute its open interval.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] for an out-of-range block.
    pub fn erase(&mut self, block: BlockId, now: Nanos) -> Result<Nanos, NandError> {
        let pages = self.layout.block_pages(block)?;
        if self.pool.is_unused() {
            self.states[pages].fill(SlotState::Erased);
        } else {
            for i in pages {
                self.retire(i, SlotState::Erased);
            }
        }
        let b = &mut self.blocks[block.0 as usize];
        b.next_program = 0;
        b.erase_count += 1;
        b.last_erase_at = Some(now);
        b.torn_erase = false;
        self.stats.erases += 1;
        Ok(self.timing.t_bers)
    }

    /// Models a program interrupted by a power cut after `fraction` of
    /// `tPROG` had elapsed. The slot ends up [torn](PageContent::Torn):
    /// occupied (it must be erased before reuse), decodable only when
    /// `fraction >= `[`TORN_PROGRAM_READABLE_FRACTION`].
    ///
    /// # Errors
    ///
    /// Same preconditions as [`Chip::program`].
    pub fn interrupt_program(
        &mut self,
        ppa: Ppa,
        data: PageData,
        fraction: f64,
    ) -> Result<(), NandError> {
        let state = if fraction >= TORN_PROGRAM_READABLE_FRACTION {
            SlotState::TornReadable
        } else {
            SlotState::TornGarbage
        };
        self.store(ppa, data, state)?;
        self.stats.torn_programs += 1;
        Ok(())
    }

    /// Models an erase interrupted by a power cut after `fraction` of
    /// `tBERS` had elapsed. The block is flagged as torn-erased (always
    /// detectable on power-up); past [`TORN_ERASE_DATA_WIPE_FRACTION`] the
    /// old contents are additionally destroyed. Either way the block must
    /// be re-erased before reuse.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] for an out-of-range block.
    pub fn interrupt_erase(&mut self, block: BlockId, fraction: f64) -> Result<(), NandError> {
        let pages = self.layout.block_pages(block)?;
        if fraction >= TORN_ERASE_DATA_WIPE_FRACTION {
            for i in pages {
                if self.states[i] != SlotState::Erased {
                    self.retire(i, SlotState::Destroyed);
                }
            }
        }
        self.blocks[block.0 as usize].torn_erase = true;
        self.stats.torn_erases += 1;
        Ok(())
    }

    /// Destroys slot `i` in place, keeping the in-order pointer past it if
    /// it was still erased.
    fn destroy_at(&mut self, ppa: Ppa, i: usize) {
        self.retire(i, SlotState::Destroyed);
        let block = &mut self.blocks[ppa.block.0 as usize];
        block.next_program = block.next_program.max(ppa.page.0 + 1);
    }

    /// Models a scrub (one-shot destructive reprogram) interrupted after
    /// `fraction` of `tscrub`. Past [`TORN_SCRUB_DESTROY_FRACTION`] the
    /// page is destroyed as intended; before it, the original data
    /// survives untouched.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    pub fn interrupt_scrub(&mut self, ppa: Ppa, fraction: f64) -> Result<(), NandError> {
        let i = self.layout.page(ppa)?;
        if fraction >= TORN_SCRUB_DESTROY_FRACTION {
            self.destroy_at(ppa, i);
        }
        Ok(())
    }

    /// Whether the last erase of `block` was interrupted (power-up
    /// blank-check signature). Metadata probe, not a flash operation.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadBlock`] for an out-of-range block.
    pub fn block_torn_erase(&self, block: BlockId) -> Result<bool, NandError> {
        Ok(self.blocks[self.layout.block(block)?].torn_erase)
    }

    /// Whether a page holds a torn (interrupted) program. Metadata probe.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    pub fn page_is_torn(&self, ppa: Ppa) -> Result<bool, NandError> {
        let state = self.states[self.layout.page(ppa)?];
        Ok(matches!(state, SlotState::TornReadable | SlotState::TornGarbage))
    }

    /// Destroys a page's data in place (models scrubbing / one-shot
    /// reprogramming used by the scrSSD baseline). The slot stays occupied:
    /// NAND cannot re-erase a single page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    pub fn destroy_page(&mut self, ppa: Ppa) -> Result<Nanos, NandError> {
        let i = self.layout.page(ppa)?;
        self.destroy_at(ppa, i);
        self.stats.scrubs += 1;
        Ok(self.timing.t_scrub)
    }

    /// Whether a page currently holds programmed (or destroyed) content —
    /// i.e. it has been written since the last block erase. This is a
    /// metadata probe, not a flash operation; it does not count as a read.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BadAddress`] for an out-of-range address.
    #[inline]
    pub fn page_is_written(&self, ppa: Ppa) -> Result<bool, NandError> {
        Ok(self.states[self.layout.page(ppa)?] != SlotState::Erased)
    }

    /// Erase count of a block.
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[self.layout.expect_block(block)].erase_count
    }

    /// Time of the last erase of `block`, if it was ever erased.
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    #[inline]
    pub fn last_erase_at(&self, block: BlockId) -> Option<Nanos> {
        self.blocks[self.layout.expect_block(block)].last_erase_at
    }

    /// Next in-order programmable page index of a block (equals
    /// pages-per-block when the block is fully programmed).
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    pub fn next_program_index(&self, block: BlockId) -> u32 {
        self.blocks[self.layout.expect_block(block)].next_program
    }

    /// Raw interface dump of a whole block, as a forensic attacker sees it
    /// through standard flash commands (no FTL, no file system).
    ///
    /// # Panics
    ///
    /// Panics, naming the block, if it is out of range.
    pub fn raw_block_dump(&self, block: BlockId) -> Vec<PageContent> {
        let pages = self.layout.block_pages(block).unwrap_or_else(|e| panic!("{e}"));
        pages.map(|i| self.content_at(i)).collect()
    }

    /// Serializes the full chip state — geometry, timing, every block's
    /// slots and wear counters, and the operation stats — into a
    /// checkpoint stream. The stream keeps its per-block shape; the flat
    /// store is an in-memory detail.
    pub fn encode_state(&self, e: &mut Enc) {
        e.tag(TAG_CHIP);
        self.geom.encode_snapshot(e);
        self.timing.encode_snapshot(e);
        e.usize(self.blocks.len());
        let ppb = self.layout.pages_per_block() as usize;
        for (b, block) in self.blocks.iter().enumerate() {
            e.u32(block.next_program);
            e.u64(block.erase_count);
            e.opt(&block.last_erase_at, |e, t| e.u64(t.0));
            e.bool(block.torn_erase);
            e.usize(ppb);
            for i in b * ppb..(b + 1) * ppb {
                match self.states[i] {
                    SlotState::Erased => e.u8(0),
                    SlotState::Programmed => {
                        e.u8(1);
                        self.encode_slot_data(e, &self.slots[i]);
                    }
                    SlotState::Destroyed => e.u8(2),
                    state @ (SlotState::TornReadable | SlotState::TornGarbage) => {
                        e.u8(3);
                        self.encode_slot_data(e, &self.slots[i]);
                        e.bool(state == SlotState::TornReadable);
                    }
                }
            }
        }
        self.stats.encode_snapshot(e);
    }

    /// Reconstructs a chip from a stream written by [`Chip::encode_state`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or structurally invalid content.
    pub fn decode_state(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        d.expect_tag(TAG_CHIP, "nand-chip")?;
        let geom = Geometry::decode_snapshot(d)?;
        let timing = TimingSpec::decode_snapshot(d)?;
        let n_blocks = d.usize()?;
        if n_blocks != geom.blocks as usize {
            return Err(SnapshotError::Corrupt(format!(
                "chip block count {n_blocks} does not match geometry ({})",
                geom.blocks
            )));
        }
        // Every page costs the stream at least its tag byte: a geometry the
        // remaining bytes cannot cover is rejected before the store is sized
        // from it.
        if geom.pages_per_chip() > d.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                offset: d.offset(),
                needed: usize::try_from(geom.pages_per_chip()).unwrap_or(usize::MAX),
            });
        }
        let mut chip = Chip::with_timing(geom, timing);
        let ppb = chip.layout.pages_per_block() as usize;
        for b in 0..n_blocks {
            let next_program = d.u32()?;
            let erase_count = d.u64()?;
            let last_erase_at = d.opt(|d| Ok(Nanos(d.u64()?)))?;
            let torn_erase = d.bool()?;
            chip.blocks[b] = BlockMeta { next_program, erase_count, last_erase_at, torn_erase };
            let n_slots = d.usize()?;
            if n_slots != ppb {
                return Err(SnapshotError::Corrupt(format!(
                    "block slot count {n_slots} does not match geometry ({ppb})"
                )));
            }
            for i in b * ppb..(b + 1) * ppb {
                chip.states[i] = match d.u8()? {
                    0 => SlotState::Erased,
                    1 => {
                        chip.slots[i] = intern_slot(&mut chip.pool, decode_page_data(d)?);
                        SlotState::Programmed
                    }
                    2 => SlotState::Destroyed,
                    3 => {
                        chip.slots[i] = intern_slot(&mut chip.pool, decode_page_data(d)?);
                        if d.bool()? {
                            SlotState::TornReadable
                        } else {
                            SlotState::TornGarbage
                        }
                    }
                    t => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown page-slot tag {t:#04x}"
                        )))
                    }
                };
            }
        }
        chip.stats = ChipStats::decode_snapshot(d)?;
        Ok(chip)
    }
}

/// Section tag for a behavioral chip in a checkpoint stream.
const TAG_CHIP: u8 = 0x10;

fn decode_page_data(d: &mut Dec<'_>) -> Result<PageData, SnapshotError> {
    let tag = d.u64()?;
    let payload = d.opt(|d| Ok(Box::<[u8]>::from(d.bytes()?)))?;
    let oob = d.opt(|d| Ok(PageOob { lpa: d.u64()?, secure: d.bool()?, seq: d.u64()? }))?;
    Ok(PageData { tag, oob: oob.map_or(PackedOob::NONE, PackedOob::pack), payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PageId;

    fn small_chip() -> Chip {
        Chip::new(Geometry::small_tlc())
    }

    /// The hot records are whole words end to end: no padding for the
    /// compiler to copy around with narrow overlapping moves, which is what
    /// defeats store-to-load forwarding on the next full-width load (see
    /// [`PackedOob`]). A `bool`, a `u32` or an `Option` discriminant slipped
    /// into one of them shows up here as size != sum of fields.
    #[test]
    fn padding_free() {
        use std::mem::{align_of, size_of};
        let word = size_of::<u64>();
        assert_eq!(size_of::<PackedOob>(), 3 * word);
        assert_eq!(size_of::<PageSlot>(), 32);
        assert_eq!(size_of::<PageSlot>(), 4 * word);
        assert_eq!(align_of::<PageSlot>(), 32, "a record never straddles a cache line");
        assert_eq!(
            size_of::<PageData>(),
            word + size_of::<PackedOob>() + size_of::<Option<Box<[u8]>>>()
        );
        assert_eq!(size_of::<Option<Box<[u8]>>>(), 2 * word, "the payload is a bare fat pointer");
        assert_eq!(size_of::<SlotState>(), 1, "the state column is a byte per page");
    }

    #[test]
    fn oob_packing_roundtrips() {
        for secure in [false, true] {
            let oob = PageOob { lpa: u64::MAX, secure, seq: 1 << 63 };
            assert_eq!(PackedOob::pack(oob).unpack(), Some(oob));
            assert_eq!(PageData::tagged(1).with_oob(oob).oob(), Some(oob));
        }
        assert_eq!(PackedOob::NONE.unpack(), None);
        assert_eq!(PageData::tagged(1).oob(), None);
        // The view is what `Debug` shows, as before the packing.
        assert_eq!(
            format!("{:?}", PageData::tagged(7)),
            "PageData { tag: 7, payload: None, oob: None }"
        );
    }

    #[test]
    fn flat_indices_do_not_alias_the_next_block() {
        let mut chip = small_chip();
        let ppb = chip.geometry().pages_per_block();
        chip.program(Ppa::new(1, 0), PageData::tagged(5)).unwrap();
        // Block 0 "page ppb" is the flat cell of block 1 page 0: every path
        // must refuse it rather than serve the neighbour.
        let past = Ppa::new(0, ppb);
        assert_eq!(chip.read(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(chip.sense(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(chip.page_is_written(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(chip.page_is_torn(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(chip.destroy_page(past), Err(NandError::BadAddress { ppa: past }));
        assert_eq!(chip.read(Ppa::new(1, 0)).unwrap().data().unwrap().tag(), 5);
        assert_eq!(chip.stats().reads, 1, "a refused read is not counted");
    }

    #[test]
    #[should_panic(expected = "block out of range: PB#0x0040")]
    fn block_probes_name_the_block_they_refuse() {
        small_chip().next_program_index(BlockId(64));
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut chip = small_chip();
        let ppa = Ppa::new(3, 0);
        chip.program(ppa, PageData::tagged(99)).unwrap();
        let out = chip.read(ppa).unwrap();
        assert_eq!(out.data().unwrap().tag(), 99);
        assert_eq!(out.latency, TimingSpec::paper().t_read);
    }

    #[test]
    fn payload_roundtrip_and_tagging() {
        let mut chip = small_chip();
        let data = PageData::with_payload(b"secret medical record");
        let tag = data.tag();
        chip.program(Ppa::new(0, 0), data).unwrap();
        let out = chip.read(Ppa::new(0, 0)).unwrap();
        let got = out.data().unwrap();
        assert_eq!(got.tag(), tag);
        assert_eq!(got.payload().unwrap(), b"secret medical record");
        // Distinct content gets distinct tags.
        assert_ne!(PageData::with_payload(b"a").tag(), PageData::with_payload(b"b").tag());
    }

    #[test]
    fn erase_before_program_enforced() {
        let mut chip = small_chip();
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        let err = chip.program(Ppa::new(0, 0), PageData::tagged(2)).unwrap_err();
        assert!(matches!(err, NandError::ProgramOnProgrammedPage { .. }));
    }

    #[test]
    fn in_order_program_enforced() {
        let mut chip = small_chip();
        let err = chip.program(Ppa::new(0, 5), PageData::tagged(1)).unwrap_err();
        assert!(matches!(err, NandError::OutOfOrderProgram { expected: 0, .. }));
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        chip.program(Ppa::new(0, 1), PageData::tagged(2)).unwrap();
        let err = chip.program(Ppa::new(0, 3), PageData::tagged(3)).unwrap_err();
        assert!(matches!(err, NandError::OutOfOrderProgram { expected: 2, .. }));
    }

    #[test]
    fn erase_resets_block_and_counts() {
        let mut chip = small_chip();
        let b = BlockId(2);
        for p in 0..4 {
            chip.program(Ppa { block: b, page: PageId(p) }, PageData::tagged(p as u64)).unwrap();
        }
        assert_eq!(chip.erase_count(b), 0);
        chip.erase(b, Nanos::from_millis(5)).unwrap();
        assert_eq!(chip.erase_count(b), 1);
        assert_eq!(chip.last_erase_at(b), Some(Nanos::from_millis(5)));
        assert_eq!(chip.next_program_index(b), 0);
        let out = chip.read(Ppa { block: b, page: PageId(0) }).unwrap();
        assert_eq!(out.content, PageContent::Erased);
        // After erase, programming restarts from page 0.
        chip.program(Ppa { block: b, page: PageId(0) }, PageData::tagged(9)).unwrap();
    }

    #[test]
    fn destroy_page_makes_data_unrecoverable() {
        let mut chip = small_chip();
        let ppa = Ppa::new(1, 0);
        chip.program(ppa, PageData::tagged(42)).unwrap();
        chip.destroy_page(ppa).unwrap();
        let out = chip.read(ppa).unwrap();
        assert_eq!(out.content, PageContent::Destroyed);
        assert!(out.data().is_none());
    }

    #[test]
    fn bad_addresses_rejected() {
        let mut chip = small_chip();
        assert!(matches!(chip.read(Ppa::new(1000, 0)), Err(NandError::BadAddress { .. })));
        assert!(matches!(
            chip.program(Ppa::new(0, 1000), PageData::tagged(0)),
            Err(NandError::BadAddress { .. })
        ));
        assert!(matches!(chip.erase(BlockId(1000), Nanos::ZERO), Err(NandError::BadBlock { .. })));
        assert!(matches!(chip.destroy_page(Ppa::new(1000, 0)), Err(NandError::BadAddress { .. })));
    }

    #[test]
    fn stats_count_operations() {
        let mut chip = small_chip();
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        chip.read(Ppa::new(0, 0)).unwrap();
        chip.read(Ppa::new(0, 1)).unwrap();
        chip.erase(BlockId(0), Nanos::ZERO).unwrap();
        chip.program(Ppa::new(0, 0), PageData::tagged(2)).unwrap();
        chip.destroy_page(Ppa::new(0, 0)).unwrap();
        let s = chip.stats();
        assert_eq!(s.programs, 2);
        assert_eq!(s.reads, 2);
        assert_eq!(s.erases, 1);
        assert_eq!(s.scrubs, 1);
    }

    #[test]
    fn raw_block_dump_exposes_everything() {
        // The data-versioning vulnerability (paper §2.2): invalidated-but-not-
        // erased data is fully visible to a raw-interface attacker.
        let mut chip = small_chip();
        chip.program(Ppa::new(0, 0), PageData::tagged(7)).unwrap();
        chip.program(Ppa::new(0, 1), PageData::tagged(8)).unwrap();
        let dump = chip.raw_block_dump(BlockId(0));
        assert_eq!(dump[0].data().unwrap().tag(), 7);
        assert_eq!(dump[1].data().unwrap().tag(), 8);
        assert_eq!(dump[2], PageContent::Erased);
    }

    #[test]
    fn torn_program_occupies_slot_and_gates_on_fraction() {
        let mut chip = small_chip();
        let oob = PageOob { lpa: 17, secure: true, seq: 3 };
        // Early cut: unreadable garbage.
        chip.interrupt_program(Ppa::new(0, 0), PageData::tagged(1).with_oob(oob), 0.2).unwrap();
        let out = chip.read(Ppa::new(0, 0)).unwrap();
        assert_eq!(out.content, PageContent::Torn { data: None });
        assert!(chip.page_is_torn(Ppa::new(0, 0)).unwrap());
        assert!(chip.page_is_written(Ppa::new(0, 0)).unwrap());
        // Late cut: partial page still decodes, OOB included.
        chip.interrupt_program(Ppa::new(0, 1), PageData::tagged(2).with_oob(oob), 0.9).unwrap();
        let out = chip.read(Ppa::new(0, 1)).unwrap();
        assert!(out.content.is_torn());
        assert_eq!(out.data().unwrap().oob(), Some(oob));
        // The slot is occupied: erase-before-program still applies, and
        // in-order programming continues past the torn page.
        assert!(chip.program(Ppa::new(0, 1), PageData::tagged(3)).is_err());
        chip.program(Ppa::new(0, 2), PageData::tagged(3)).unwrap();
        assert_eq!(chip.stats().torn_programs, 2);
    }

    #[test]
    fn torn_erase_flagged_and_wipes_past_threshold() {
        let mut chip = small_chip();
        for p in 0..2 {
            chip.program(Ppa::new(4, p), PageData::tagged(p as u64)).unwrap();
        }
        // Early cut: data survives but the torn-erase signature is set.
        chip.interrupt_erase(BlockId(4), 0.1).unwrap();
        assert!(chip.block_torn_erase(BlockId(4)).unwrap());
        assert!(chip.read(Ppa::new(4, 0)).unwrap().data().is_some());
        // Late cut: data destroyed.
        chip.interrupt_erase(BlockId(4), 0.8).unwrap();
        assert_eq!(chip.read(Ppa::new(4, 0)).unwrap().content, PageContent::Destroyed);
        // A clean erase clears the signature.
        chip.erase(BlockId(4), Nanos::ZERO).unwrap();
        assert!(!chip.block_torn_erase(BlockId(4)).unwrap());
        assert_eq!(chip.read(Ppa::new(4, 0)).unwrap().content, PageContent::Erased);
        assert_eq!(chip.stats().torn_erases, 2);
    }

    #[test]
    fn torn_scrub_destroys_only_past_threshold() {
        let mut chip = small_chip();
        chip.program(Ppa::new(2, 0), PageData::tagged(5)).unwrap();
        chip.interrupt_scrub(Ppa::new(2, 0), 0.3).unwrap();
        assert_eq!(chip.read(Ppa::new(2, 0)).unwrap().data().unwrap().tag(), 5);
        chip.interrupt_scrub(Ppa::new(2, 0), 0.7).unwrap();
        assert_eq!(chip.read(Ppa::new(2, 0)).unwrap().content, PageContent::Destroyed);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut chip = small_chip();
        let oob = PageOob { lpa: 5, secure: true, seq: 11 };
        chip.program(Ppa::new(0, 0), PageData::tagged(7).with_oob(oob)).unwrap();
        chip.program(Ppa::new(0, 1), PageData::with_payload(b"payload")).unwrap();
        chip.destroy_page(Ppa::new(0, 1)).unwrap();
        chip.interrupt_program(Ppa::new(0, 2), PageData::tagged(9), 0.9).unwrap();
        chip.interrupt_erase(BlockId(3), 0.1).unwrap();
        chip.erase(BlockId(5), Nanos::from_millis(2)).unwrap();
        chip.read(Ppa::new(0, 0)).unwrap();

        let mut e = Enc::new();
        chip.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Chip::decode_state(&mut d).unwrap();
        d.finish().unwrap();

        assert_eq!(back.geometry(), chip.geometry());
        assert_eq!(back.timing(), chip.timing());
        assert_eq!(back.stats(), chip.stats());
        for b in 0..chip.geometry().blocks {
            assert_eq!(back.raw_block_dump(BlockId(b)), chip.raw_block_dump(BlockId(b)));
            assert_eq!(back.next_program_index(BlockId(b)), chip.next_program_index(BlockId(b)));
            assert_eq!(back.erase_count(BlockId(b)), chip.erase_count(BlockId(b)));
            assert_eq!(back.last_erase_at(BlockId(b)), chip.last_erase_at(BlockId(b)));
            assert_eq!(back.block_torn_erase(BlockId(b)), chip.block_torn_erase(BlockId(b)));
        }
        // Re-encoding the restored chip is byte-identical.
        let mut e2 = Enc::new();
        back.encode_state(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn snapshot_decode_rejects_bad_slot_tag() {
        let mut chip = small_chip();
        chip.program(Ppa::new(0, 0), PageData::tagged(1)).unwrap();
        let mut e = Enc::new();
        chip.encode_state(&mut e);
        let good = e.into_bytes();
        // Walk the stream to the first slot tag, then corrupt it.
        let mut d = Dec::new(&good);
        d.expect_tag(0x10, "nand-chip").unwrap();
        let _ = Geometry::decode_snapshot(&mut d).unwrap();
        let _ = TimingSpec::decode_snapshot(&mut d).unwrap();
        let _ = d.usize().unwrap(); // block count
        let _ = d.u32().unwrap(); // next_program
        let _ = d.u64().unwrap(); // erase_count
        let _ = d.opt(|d| d.u64()).unwrap(); // last_erase_at
        let _ = d.bool().unwrap(); // torn_erase
        let _ = d.usize().unwrap(); // slot count
        let slot0_off = d.offset();
        let mut bad = good.clone();
        bad[slot0_off] = 9;
        let err = Chip::decode_state(&mut Dec::new(&bad)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        // Truncation is also an error, not a panic.
        let err = Chip::decode_state(&mut Dec::new(&good[..good.len() - 4])).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err}");
    }

    #[test]
    fn payload_pool_recycles_buffers_across_erase() {
        let mut chip = small_chip();
        chip.program(Ppa::new(0, 0), PageData::with_payload(b"first")).unwrap();
        chip.erase(BlockId(0), Nanos::ZERO).unwrap();
        chip.program(Ppa::new(0, 0), PageData::with_payload(b"second one")).unwrap();
        let out = chip.read(Ppa::new(0, 0)).unwrap();
        assert_eq!(out.data().unwrap().payload().unwrap(), b"second one");
        // The erase released the first buffer and the second program reused
        // it: the pool still holds exactly one allocation and no free slots.
        assert_eq!(chip.pool.bufs.len(), 1);
        assert!(chip.pool.free.is_empty());
        // Destroying the page releases the buffer back to the free list.
        chip.destroy_page(Ppa::new(0, 0)).unwrap();
        assert_eq!(chip.pool.free.len(), 1);
    }

    #[test]
    fn latencies_come_from_timing_spec() {
        let mut t = TimingSpec::paper();
        t.t_prog = Nanos::from_micros(123);
        let mut chip = Chip::with_timing(Geometry::small_tlc(), t);
        let lat = chip.program(Ppa::new(0, 0), PageData::tagged(0)).unwrap();
        assert_eq!(lat, Nanos::from_micros(123));
    }
}
