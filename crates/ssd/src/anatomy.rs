//! Per-request latency anatomy: an exact additive decomposition of every
//! traced host request's end-to-end latency into named stages, with
//! interference time attributed to its cause.
//!
//! The trace layer already proves a *tiling* identity — a request's
//! derived segments partition `[submit, end)` exactly (see
//! [`crate::trace`]). This module lifts that identity one level: each
//! segment is mapped to a **stage**, and wait time is *blamed* on
//! whatever actually occupied the blocking resource during the wait, by
//! consulting an occupancy timeline built from every traced command on
//! every chip and channel. The stage durations still sum to exactly the
//! end-to-end latency — time is only ever reclassified, never created or
//! dropped — so the anatomy inherits the tiling guarantee:
//!
//! ```text
//! e2e == queue_wait + dispatch_stall + xfer + chip_service
//!      + sanitize_interference + gc_interference + retry_interference
//! ```
//!
//! Classification rules (the blame model):
//!
//! * a request's **own** commands map by kind and cause: host-caused
//!   reads/programs are chip service, host transfers are transfer time,
//!   and anything issued under a GC / sanitization / fault-ladder cause
//!   scope — lock commands, scrubs, erases, GC copies, retry re-reads,
//!   firmware stalls — is interference of that cause;
//! * **wait** segments (in the service window but no own command
//!   running) are blamed against the occupancy timeline of the blocking
//!   resource — the resource of the request's next own command — for
//!   exactly the intervals an interference-class command of *any*
//!   request held it; the unattributed remainder stays dispatch stall;
//! * **queue wait** (before the earliest legal start) and watchdog
//!   backoff map to queue wait and retry interference respectively (the
//!   emulator passes the watchdog's penalty window alongside the trace).
//!
//! Blame needs no hindsight: a row is resolved the moment its trace is
//! recorded. Traces arrive in dispatch order and every resource is
//! serial, so a command that overlaps one of a request's waits on
//! resource R was reserved before that request's own next command on R —
//! by a request dispatched earlier, whose trace (and occupancy) is
//! already in. Resolution folds each row into per-kind/per-stage totals
//! and histograms, a deterministic top-K slowest digest carrying the full
//! causal chain, and the bounded row ring; nothing waits for a
//! `finalize`, so what a reader sees never depends on the ring's size.
//!
//! The whole layer is observational: it reads finished traces and never
//! touches the simulated device, so enabling it cannot change results —
//! the `anatomy` experiment gate proves byte-identity.

use crate::trace::{ReqKind, RequestTrace, ResourceId, SpanKind, Sweep, TraceHead};
use evanesco_ftl::{Lpa, OpCause};
use evanesco_nand::arena::{Arena, PackedNanos, Span};
use evanesco_nand::timing::Nanos;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// One stage of the end-to-end latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Fleet-level QoS shaping wait (arrival to shaped release). Never
    /// produced by the device-level recorder; the fleet layer prepends it
    /// so one stage vocabulary covers the whole path.
    QosWait,
    /// Queue wait: NCQ slot acquisition to the earliest legal start
    /// (same-LPA dependencies), watchdog backoff excluded.
    QueueWait,
    /// In the service window with no own command running and no
    /// interference-class command occupying the blocking resource.
    DispatchStall,
    /// Host-caused channel transfer time.
    Xfer,
    /// Host-caused array time (reads, programs).
    ChipService,
    /// Sanitization interference: lock traffic (`pLock` / `bLock`),
    /// scrubs, and sanitize-caused erases/copies — own or a neighbor's.
    SanitizeInterference,
    /// Garbage-collection interference: GC copies and cleaning erases.
    GcInterference,
    /// Fault-ladder interference: read-retry re-sensing, firmware
    /// stalls, and watchdog abort/backoff penalties.
    RetryInterference,
}

impl Stage {
    /// All stages, in export order (which is declaration order, so a
    /// stage's discriminant is its index).
    pub const ALL: [Stage; 8] = [
        Stage::QosWait,
        Stage::QueueWait,
        Stage::DispatchStall,
        Stage::Xfer,
        Stage::ChipService,
        Stage::SanitizeInterference,
        Stage::GcInterference,
        Stage::RetryInterference,
    ];

    /// Number of stages (array dimension).
    pub const COUNT: usize = Stage::ALL.len();

    /// Stable lowercase label (metric names and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Stage::QosWait => "qos_wait",
            Stage::QueueWait => "queue_wait",
            Stage::DispatchStall => "dispatch_stall",
            Stage::Xfer => "xfer",
            Stage::ChipService => "chip_service",
            Stage::SanitizeInterference => "sanitize_interference",
            Stage::GcInterference => "gc_interference",
            Stage::RetryInterference => "retry_interference",
        }
    }

    /// Index into `[_; Stage::COUNT]` arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// All request kinds, in export order (which is [`ReqKind`]'s declaration
/// order, so a kind's discriminant is its index).
pub const REQ_KINDS: [ReqKind; 5] =
    [ReqKind::Write, ReqKind::Read, ReqKind::Trim, ReqKind::Recovery, ReqKind::Maintenance];

fn kind_idx(kind: ReqKind) -> usize {
    kind as usize
}

/// The interference stage a command of `kind` issued under `cause`
/// charges, or `None` when it is ordinary host service (chip service /
/// transfer, depending on kind).
pub fn interference_of(kind: SpanKind, cause: OpCause) -> Option<Stage> {
    match kind {
        // Lock traffic and scrubs are sanitization overhead no matter
        // which path issued them — the cost Evanesco trades erases for.
        SpanKind::PLock | SpanKind::BLock | SpanKind::Scrub => Some(Stage::SanitizeInterference),
        // Firmware stalls are fault-ladder throttling.
        SpanKind::Stall => Some(Stage::RetryInterference),
        // Erases are cleaning work: sanitize-caused when the sanitizer
        // asked for them, GC otherwise (no erase is host service).
        SpanKind::Erase => Some(match cause {
            OpCause::Sanitize => Stage::SanitizeInterference,
            OpCause::Retry => Stage::RetryInterference,
            OpCause::Gc | OpCause::Host => Stage::GcInterference,
        }),
        SpanKind::Read | SpanKind::Program | SpanKind::Xfer => match cause {
            OpCause::Host => None,
            OpCause::Gc => Some(Stage::GcInterference),
            OpCause::Sanitize => Some(Stage::SanitizeInterference),
            OpCause::Retry => Some(Stage::RetryInterference),
        },
        SpanKind::QueueWait | SpanKind::Wait => None,
    }
}

/// One link of a request's causal chain: an interval of interference
/// time and what it is blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Interference stage charged.
    pub stage: Stage,
    /// Span kind of the blamed command (e.g. `PLock` for lock traffic).
    pub kind: SpanKind,
    /// Cause scope the blamed command ran under.
    pub cause: OpCause,
    /// Resource the blamed command occupied (`None` for the request's
    /// own segments and watchdog penalty windows, which have no single
    /// resource).
    pub resource: Option<ResourceId>,
    /// Absolute interval start.
    pub start: Nanos,
    /// Absolute interval end (exclusive).
    pub end: Nanos,
    /// True when the blamed command was issued by this request itself
    /// (self-inflicted interference: its own trim's locks, its own GC);
    /// false when the blocking command came from the occupancy timeline
    /// — a neighbor's traffic.
    pub own: bool,
}

impl ChainLink {
    /// Interval duration.
    pub fn dur(&self) -> Nanos {
        self.end - self.start
    }
}

/// A [`ChainLink`] as the recorder stores it: 24 bytes (40 unpacked).
#[derive(Debug, Clone, Copy)]
struct PackedLink {
    start: PackedNanos,
    end: PackedNanos,
    stage: Stage,
    kind: SpanKind,
    cause: OpCause,
    own: bool,
    /// [`ResourceId::dense`] plus one; zero for `None`.
    resource: u32,
}

impl PackedLink {
    /// A link blamed on the resource of dense form `res - 1`, or the
    /// request's own when `res` is zero.
    fn new(stage: Stage, kind: SpanKind, cause: OpCause, res: u32, span: [Nanos; 2]) -> Self {
        let [start, end] = span.map(PackedNanos::from);
        PackedLink { start, end, stage, kind, cause, own: res == 0, resource: res }
    }

    fn unpack(&self) -> ChainLink {
        ChainLink {
            stage: self.stage,
            kind: self.kind,
            cause: self.cause,
            resource: self.resource.checked_sub(1).map(|d| ResourceId::from_dense(d as u16)),
            start: self.start.into(),
            end: self.end.into(),
            own: self.own,
        }
    }

    fn dur(&self) -> Nanos {
        Nanos::from(self.end) - Nanos::from(self.start)
    }
}

/// Bound on the causal chain kept per request (longest-blame links win).
const CHAIN_CAP: usize = 64;

/// Cuts a chain to its `CHAIN_CAP` longest links, the earlier on a tie,
/// in timeline order, and returns the floor — the `CHAIN_CAP`-th longest
/// duration (`durs` is scratch), zero under the cap: one in-order pass
/// keeps every longer link and the earliest of those as long.
fn cut(chain: &mut Vec<PackedLink>, durs: &mut Vec<Nanos>) -> Nanos {
    let Some(nth) = chain.len().checked_sub(CHAIN_CAP).filter(|&nth| nth > 0) else {
        return Nanos::ZERO;
    };
    durs.clear();
    durs.extend(chain.iter().map(PackedLink::dur));
    let floor = *durs.select_nth_unstable(nth).1;
    let (mut ties, mut kept) = (CHAIN_CAP - durs.iter().filter(|&&d| d > floor).count(), 0);
    for i in 0..chain.len() {
        let (link, tie) = (chain[i], chain[i].dur() == floor);
        let keep = link.dur() > floor || (tie && ties > 0);
        chain[kept] = link;
        kept += usize::from(keep);
        ties -= usize::from(keep && tie);
    }
    chain.truncate(CHAIN_CAP);
    floor
}

/// The fixed-size part of one request's resolved anatomy; its causal
/// chain is reached through the [`RequestAnatomy`] view.
#[derive(Debug, Clone, Copy)]
pub struct AnatomyRow {
    /// The trace id ([`crate::trace::TraceHead::id`]) this row was
    /// derived from.
    pub trace_id: u64,
    /// Submission-order index on the scheduled path (joins the row to
    /// the op list / tenant); `None` for serialized-path and
    /// maintenance rows.
    pub req_idx: Option<usize>,
    /// Request class.
    pub kind: ReqKind,
    /// First logical page.
    pub lpa: Lpa,
    /// Pages touched.
    pub npages: u64,
    /// Whether the request was acknowledged.
    pub acked: bool,
    /// Queue-slot acquisition time.
    pub submit: Nanos,
    /// Completion time.
    pub end: Nanos,
    /// Per-stage durations. Sums to exactly [`AnatomyRow::e2e`].
    pub stages: [Nanos; Stage::COUNT],
}

/// The stages a device-level row can charge: every one but
/// [`Stage::QosWait`], which only the fleet layer adds, and which comes
/// first.
const DEVICE_STAGES: usize = Stage::COUNT - 1;
const _: () = assert!(Stage::QosWait as usize == 0);

/// An [`AnatomyRow`] as the ring stores it: 108 bytes (128 unpacked).
/// The first page, the page count and the request index take 32 bits,
/// and `QosWait`, always zero here, is not stored.
#[derive(Debug, Clone, Copy)]
struct PackedRow {
    /// The trace id, split in halves like an instant.
    trace_id: PackedNanos,
    submit: PackedNanos,
    end: PackedNanos,
    /// `stages[1..]`.
    stages: [PackedNanos; DEVICE_STAGES],
    chain: Span,
    lpa: u32,
    npages: u32,
    /// The request index plus one; zero for none.
    req_idx: u32,
    kind: ReqKind,
    acked: bool,
}

impl PackedRow {
    /// # Panics
    ///
    /// Panics if the request index needs more than 32 bits.
    fn pack(row: &AnatomyRow, chain: Span) -> Self {
        debug_assert_eq!(row.stage(Stage::QosWait), Nanos::ZERO, "a device row has no QoS wait");
        let narrow = |v: u64| u32::try_from(v).expect("a row's pages and index fit 32 bits");
        let mut stages = [PackedNanos::from(Nanos::ZERO); DEVICE_STAGES];
        for (packed, &stage) in stages.iter_mut().zip(&row.stages[1..]) {
            *packed = stage.into();
        }
        PackedRow {
            trace_id: Nanos(row.trace_id).into(),
            submit: row.submit.into(),
            end: row.end.into(),
            stages,
            chain,
            lpa: narrow(row.lpa),
            npages: narrow(row.npages),
            req_idx: row.req_idx.map_or(0, |i| narrow(i as u64 + 1)),
            kind: row.kind,
            acked: row.acked,
        }
    }

    fn unpack(&self) -> AnatomyRow {
        let mut stages = [Nanos::ZERO; Stage::COUNT];
        for (stage, &packed) in stages[1..].iter_mut().zip(&self.stages) {
            *stage = packed.into();
        }
        AnatomyRow {
            trace_id: Nanos::from(self.trace_id).0,
            req_idx: self.req_idx.checked_sub(1).map(|i| i as usize),
            kind: self.kind,
            lpa: Lpa::from(self.lpa),
            npages: u64::from(self.npages),
            acked: self.acked,
            submit: self.submit.into(),
            end: self.end.into(),
            stages,
        }
    }
}

impl AnatomyRow {
    /// End-to-end latency (device clock: slot acquisition to
    /// completion).
    pub fn e2e(&self) -> Nanos {
        self.end - self.submit
    }

    /// One stage's duration.
    pub fn stage(&self, s: Stage) -> Nanos {
        self.stages[s.idx()]
    }

    /// Sum of all stage durations — the tiling identity says this is
    /// exactly [`AnatomyRow::e2e`].
    pub fn stage_sum(&self) -> Nanos {
        self.stages.iter().fold(Nanos::ZERO, |a, &b| a + b)
    }

    /// Total interference time (sanitize + GC + retry).
    pub fn interference(&self) -> Nanos {
        self.stage(Stage::SanitizeInterference)
            + self.stage(Stage::GcInterference)
            + self.stage(Stage::RetryInterference)
    }
}

/// The resolved anatomy of one traced request, borrowed from the
/// recorder: the [`AnatomyRow`] fields (by deref, unpacked) plus its
/// causal chain.
#[derive(Debug, Clone, Copy)]
pub struct RequestAnatomy<'a> {
    row: AnatomyRow,
    chain: &'a [PackedLink],
}

impl std::ops::Deref for RequestAnatomy<'_> {
    type Target = AnatomyRow;

    fn deref(&self) -> &AnatomyRow {
        &self.row
    }
}

impl<'a> RequestAnatomy<'a> {
    /// Causal chain: every interference interval, blamer named, in
    /// timeline order (bounded at `CHAIN_CAP` — longest links kept).
    pub fn chain(&self) -> impl ExactSizeIterator<Item = ChainLink> + Clone + 'a {
        self.chain.iter().map(PackedLink::unpack)
    }
}

/// Per-resource occupancy bound: each timeline is a ring of at most this
/// many slots of interference commands (host service never blames a
/// wait); a slot is the link that blames a wait it overlaps, clipped to
/// the wait. A wait only consults the slots
/// overlapping it, all reserved while its request was in flight, so a
/// bounded recent window suffices; overflow is counted in
/// [`AnatomyRecorder::occupancy_dropped`].
///
/// Each timeline is sorted and disjoint: a serial resource never starts a
/// reservation before its previous one ended, and traces arrive in
/// dispatch order. Blame resolution scans back from the newest slot.
const OCC_CAP: usize = 4096;

/// Chunk sizes of the recorder's arenas, in elements (108 and 96 KiB).
const ROW_CHUNK: usize = 1024;
const CHAIN_CHUNK: usize = 4096;

/// One standard chunk for each of the recorder's arenas, allocated by a
/// scheduled call's request thread ([`crate::trace::TraceBatch`]).
#[derive(Debug, Default)]
pub(crate) struct Spares {
    rows: Option<Vec<PackedRow>>,
    chains: Option<Vec<PackedLink>>,
}

impl Spares {
    /// Allocates the chunks missing.
    pub(crate) fn top_up(&mut self) {
        self.rows.get_or_insert_with(|| Vec::with_capacity(ROW_CHUNK));
        self.chains.get_or_insert_with(|| Vec::with_capacity(CHAIN_CHUNK));
    }
}

/// A top-K digest entry: it outlives the row ring, so it owns its chain.
#[derive(Debug, Clone)]
struct TopRow {
    row: AnatomyRow,
    chain: Vec<PackedLink>,
}

/// Bounded per-request latency-anatomy recorder.
///
/// Fed one [`RequestTrace`] at a time by the emulator (tracing must be
/// on). Aggregates survive ring eviction; rows and the top-K digest are
/// bounded. Deterministic: identical runs produce identical anatomy.
#[derive(Debug, Clone)]
pub struct AnatomyRecorder {
    capacity: usize,
    top_k: usize,
    rows: Arena<PackedRow>,
    chains: Arena<PackedLink>,
    /// Occupancy timelines, indexed by [`ResourceId::dense`], and the
    /// slots their rings evicted.
    occupancy: Vec<VecDeque<PackedLink>>,
    occupancy_dropped: u64,
    /// Total stage time per request kind, across every recorded row.
    totals: [[Nanos; Stage::COUNT]; REQ_KINDS.len()],
    /// Deterministic top-K slowest rows: ordered by (e2e desc, trace id
    /// asc), ring eviction notwithstanding.
    top: Vec<TopRow>,
    /// The chain being built (never twice the cap: it is cut as it grows)
    /// and the cut's scratch, recycled.
    chain: Vec<PackedLink>,
    durs: Vec<Nanos>,
}

impl AnatomyRecorder {
    /// A recorder retaining at most `capacity` rows and a top-`top_k`
    /// slowest digest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, top_k: usize) -> Self {
        assert!(capacity > 0, "anatomy ring capacity must be positive");
        AnatomyRecorder {
            capacity,
            top_k,
            rows: Arena::new(ROW_CHUNK),
            chains: Arena::new(CHAIN_CHUNK),
            occupancy: Vec::new(),
            occupancy_dropped: 0,
            totals: [[Nanos::ZERO; Stage::COUNT]; REQ_KINDS.len()],
            top: Vec::new(),
            chain: Vec::new(),
            durs: Vec::new(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.rows.pushed()
    }

    /// Rows evicted from the ring (aggregates and the top-K digest still
    /// cover them).
    pub fn dropped(&self) -> u64 {
        self.rows.released()
    }

    /// Occupancy intervals evicted from a full per-resource window. A
    /// wait reaching further back than the last `OCC_CAP` interference
    /// commands on its blocking resource would be under-blamed (never
    /// over-blamed); no request in flight waits that long.
    pub fn occupancy_dropped(&self) -> u64 {
        self.occupancy_dropped
    }

    /// Total stage time for `kind` requests in `stage`, across every
    /// recorded row.
    pub fn stage_total(&self, kind: ReqKind, stage: Stage) -> Nanos {
        self.totals[kind_idx(kind)][stage.idx()]
    }

    /// The retained rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = RequestAnatomy<'_>> + Clone {
        self.rows
            .iter()
            .map(|row| RequestAnatomy { row: row.unpack(), chain: self.chains.slice(row.chain) })
    }

    /// The top-K slowest rows, slowest first (ties broken by trace id
    /// ascending — fully deterministic).
    pub fn top(&self) -> impl ExactSizeIterator<Item = RequestAnatomy<'_>> + Clone {
        self.top.iter().map(|t| RequestAnatomy { row: t.row, chain: &t.chain })
    }

    /// Keeps each of `spares`' chunks as its arena's spare if that has none.
    pub(crate) fn adopt(&mut self, spares: &mut Spares) {
        spares.rows = self.rows.adopt(spares.rows.take());
        spares.chains = self.chains.adopt(spares.chains.take());
    }

    /// Ingests one finished trace and resolves its row on the spot, in
    /// one pass over its segments. `retry` is the watchdog penalty window
    /// (absolute), if the request was aborted and backed off; `req_idx`
    /// joins the row to a scheduled-run op index.
    ///
    /// Traces must arrive in dispatch order, so that each resource's
    /// interference commands arrive in time order (debug builds assert
    /// it), which makes hindsight unnecessary: a command overlapping one of
    /// this request's waits on resource R was reserved before its own next
    /// command on R, by a request dispatched earlier, already recorded.
    pub fn record(
        &mut self,
        t: RequestTrace<'_>,
        retry: Option<(Nanos, Nanos)>,
        req_idx: Option<usize>,
    ) {
        t.with_sweep(|sweep| self.resolve(&t, sweep, retry, req_idx));
    }

    /// [`AnatomyRecorder::record`] on the trace's segments and events as
    /// its `sweep` holds them.
    fn resolve(
        &mut self,
        t: &TraceHead,
        sweep: &Sweep,
        retry: Option<(Nanos, Nanos)>,
        req_idx: Option<usize>,
    ) {
        let mut stages = [Nanos::ZERO; Stage::COUNT];
        // Fact 2: own and retry links come off segments tiling the window,
        // blamed ones off a sorted, disjoint timeline inside the waits, so
        // they arrive in time order and need no sort. At twice the cap the
        // chain is cut back to `CHAIN_CAP`: no link as short as the floor
        // can enter after that.
        let (chain, durs, occupancy) = (&mut self.chain, &mut self.durs, &self.occupancy);
        chain.clear();
        let mut floor = Nanos::ZERO;
        let mut link = |link: PackedLink| {
            if link.dur() > floor {
                chain.push(link);
                if chain.len() == 2 * CHAIN_CAP {
                    floor = cut(chain, durs);
                }
            }
        };
        // A wait is blamed against its blocking resource, where the
        // request's next own command ran: the sweep names it (fact 3 of
        // `trace::Sweep`). Trailing waits have none: dispatch stall.
        for (seg, blocker) in sweep.blocked_segments(t.submit, t.end) {
            let base = match seg.kind {
                SpanKind::QueueWait => Stage::QueueWait,
                SpanKind::Wait => Stage::DispatchStall,
                kind => {
                    // An own command: charge its stage directly.
                    let stage = interference_of(kind, seg.cause);
                    let service =
                        if kind == SpanKind::Xfer { Stage::Xfer } else { Stage::ChipService };
                    stages[stage.unwrap_or(service).idx()] += seg.dur();
                    if let Some(stage) = stage {
                        link(PackedLink::new(stage, kind, seg.cause, 0, [seg.start, seg.end]));
                    }
                    continue;
                }
            };
            // The watchdog's backoff window is retry interference wherever
            // it lands; around it queue wait stays queue wait, and the
            // service-window wait is blamed on what held its blocking
            // resource, the unattributed rest staying dispatch stall.
            let [rs, re] = retry
                .map_or([seg.start; 2], |(rs, re)| [rs, re].map(|t| t.clamp(seg.start, seg.end)));
            let retried = Stage::RetryInterference;
            for (stage, [a, b]) in
                [(base, [seg.start, rs]), (retried, [rs, re]), (base, [re.max(rs), seg.end])]
            {
                if b <= a {
                    continue;
                }
                stages[stage.idx()] += b - a;
                if stage == retried {
                    link(PackedLink::new(stage, seg.kind, OpCause::Retry, 0, [a, b]));
                    continue;
                }
                let Some(dense) = blocker else { continue };
                let Some(timeline) = occupancy.get(usize::from(dense)) else { continue };
                // The timeline is sorted and disjoint, and all of it was
                // reserved before the blocking command that starts at `b`:
                // the slots overlapping the wait are the newest ones, those
                // ending after `a` — mostly none.
                let overlapping =
                    timeline.iter().rev().take_while(|slot| Nanos::from(slot.end) > a).count();
                let newest = timeline.range(timeline.len() - overlapping..);
                let mut blamed = Nanos::ZERO;
                for slot in newest.take_while(|slot| Nanos::from(slot.start) < b) {
                    let [start, end] =
                        [Nanos::from(slot.start).max(a), Nanos::from(slot.end).min(b)];
                    let clipped = PackedLink { start: start.into(), end: end.into(), ..*slot };
                    blamed += clipped.dur();
                    stages[slot.stage.idx()] += clipped.dur();
                    link(clipped);
                }
                stages[Stage::DispatchStall.idx()] = stages[Stage::DispatchStall.idx()] - blamed;
            }
        }
        // Every interference-class command this request issued joins the
        // occupancy timeline, so later requests' waits can be blamed on
        // it (none of them overlaps a wait of its own request).
        for e in sweep.events() {
            if let Some(stage) = interference_of(e.kind, e.cause) {
                let dense = usize::from(e.resource);
                if dense >= self.occupancy.len() {
                    self.occupancy.resize_with(dense + 1, VecDeque::new);
                }
                let timeline = &mut self.occupancy[dense];
                let before = |last: &PackedLink| Nanos::from(last.end) <= e.start;
                debug_assert!(timeline.back().is_none_or(before), "occupancy {dense} out of order");
                if timeline.len() == OCC_CAP {
                    timeline.pop_front();
                    self.occupancy_dropped += 1;
                }
                let span = [e.start, e.end];
                timeline.push_back(PackedLink::new(stage, e.kind, e.cause, dense as u32 + 1, span));
            }
        }
        let disjoint = |w: &[PackedLink]| Nanos::from(w[0].end) <= w[1].start.into();
        debug_assert!(self.chain.windows(2).all(disjoint), "fact 2: {:?}", self.chain);
        cut(&mut self.chain, &mut self.durs);
        let k = kind_idx(t.kind);
        for s in Stage::ALL {
            self.totals[k][s.idx()] += stages[s.idx()];
        }
        if self.rows.len() == self.capacity {
            let oldest = *self.rows.front().expect("a full ring has an oldest row");
            self.chains.release_front(oldest.chain.len());
            self.rows.release_front(1);
        }
        let row = AnatomyRow {
            trace_id: t.id,
            req_idx,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            end: t.end,
            stages,
        };
        let span = self.chains.push_iter(self.chain.len(), self.chain.iter().copied());
        self.rows.push(PackedRow::pack(&row, span));
        // Top-K insert, (e2e desc, trace id asc): only a row that beats
        // the current K-th is copied in from the arena, at its sorted
        // position, into the chain buffer of the entry it displaces.
        let key = |r: &AnatomyRow| (Reverse(r.e2e()), r.trace_id);
        let full = self.top.len() == self.top_k;
        if !full || self.top.last().is_some_and(|kth| key(&row) < key(&kth.row)) {
            let displaced = if full { self.top.pop() } else { None };
            let mut chain = displaced.map(|kth| kth.chain).unwrap_or_default();
            chain.clear();
            chain.extend_from_slice(self.chains.slice(span));
            let at = self.top.partition_point(|r| key(&r.row) <= key(&row));
            self.top.insert(at, TopRow { row, chain });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceRecorder};

    fn ev(kind: SpanKind, cause: OpCause, res: ResourceId, start: u64, end: u64) -> TraceEvent {
        TraceEvent { kind, cause, resource: res, start: Nanos(start), end: Nanos(end) }
    }

    fn tiling_holds(r: &AnatomyRow) {
        assert_eq!(r.stage_sum(), r.e2e(), "stages must tile e2e exactly: {r:?}");
    }

    #[test]
    fn the_recorder_stores_packed_forms() {
        assert_eq!(std::mem::size_of::<ChainLink>(), 40);
        assert_eq!(std::mem::size_of::<PackedLink>(), 24);
        assert_eq!(std::mem::size_of::<AnatomyRow>(), 128);
        assert_eq!(std::mem::size_of::<PackedRow>(), 108);
        let link = ChainLink {
            stage: Stage::GcInterference,
            kind: SpanKind::Erase,
            cause: OpCause::Gc,
            resource: Some(ResourceId::Channel((1 << 15) - 1)),
            start: Nanos(u64::MAX - 7),
            end: Nanos(u64::MAX),
            own: false,
        };
        let (span, widest) = ([link.start, link.end], (1 << 16) as u32);
        assert_eq!(PackedLink::new(link.stage, link.kind, link.cause, widest, span).unpack(), link);
        let own = ChainLink { resource: None, own: true, ..link };
        assert_eq!(PackedLink::new(own.stage, own.kind, own.cause, 0, span).unpack(), own);
    }

    #[test]
    fn stage_discriminants_are_their_export_indices() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage:?} is out of export order");
        }
    }

    #[test]
    fn req_kind_discriminants_are_their_export_indices() {
        for (i, kind) in REQ_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} is out of export order");
        }
    }

    #[test]
    fn own_segments_classify_by_kind_and_cause() {
        let mut tr = TraceRecorder::new(8);
        let t = tr.record(
            ReqKind::Trim,
            0,
            1,
            true,
            Nanos(0),
            Nanos(100),
            Nanos(1000),
            &[
                ev(SpanKind::Xfer, OpCause::Host, ResourceId::Channel(0), 100, 140),
                ev(SpanKind::Read, OpCause::Gc, ResourceId::Chip(0), 140, 240),
                ev(SpanKind::Program, OpCause::Host, ResourceId::Chip(0), 240, 540),
                ev(SpanKind::PLock, OpCause::Sanitize, ResourceId::Chip(0), 540, 640),
                ev(SpanKind::Stall, OpCause::Host, ResourceId::Chip(0), 640, 700),
            ],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, None, Some(3));
        let r = a.rows().next().expect("one row");
        tiling_holds(&r);
        assert_eq!(r.req_idx, Some(3));
        assert_eq!(r.stage(Stage::QueueWait), Nanos(100));
        assert_eq!(r.stage(Stage::Xfer), Nanos(40));
        assert_eq!(r.stage(Stage::GcInterference), Nanos(100));
        assert_eq!(r.stage(Stage::ChipService), Nanos(300));
        assert_eq!(r.stage(Stage::SanitizeInterference), Nanos(100));
        assert_eq!(r.stage(Stage::RetryInterference), Nanos(60));
        // Trailing wait [700, 1000): no own command after it.
        assert_eq!(r.stage(Stage::DispatchStall), Nanos(300));
        // Chain names the self-inflicted interference.
        assert!(r.chain().any(|l| l.stage == Stage::SanitizeInterference && l.own));
    }

    #[test]
    fn waits_are_blamed_on_what_occupied_the_blocking_resource() {
        let mut tr = TraceRecorder::new(8);
        let mut a = AnatomyRecorder::new(8, 4);
        // The neighbor's bLock held chip 0 for [100, 400). It reserved the
        // chip before the victim's read did, so it was dispatched — and is
        // recorded — first.
        let neighbor = tr.record(
            ReqKind::Trim,
            7,
            1,
            true,
            Nanos(0),
            Nanos(0),
            Nanos(400),
            &[ev(SpanKind::BLock, OpCause::Sanitize, ResourceId::Chip(0), 100, 400)],
        );
        a.record(neighbor, None, None);
        // The victim waits [0, 500) then reads on chip 0.
        let victim = tr.record(
            ReqKind::Read,
            9,
            1,
            true,
            Nanos(0),
            Nanos(0),
            Nanos(600),
            &[ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 500, 600)],
        );
        let victim_id = victim.id;
        a.record(victim, None, None);
        // Resolved on the spot: no finalize.
        let v = a.rows().find(|r| r.trace_id == victim_id).expect("victim row");
        tiling_holds(&v);
        // 300 ns of the victim's 500 ns wait is the neighbor's lock.
        assert_eq!(v.stage(Stage::SanitizeInterference), Nanos(300));
        assert_eq!(v.stage(Stage::DispatchStall), Nanos(200));
        assert_eq!(v.stage(Stage::ChipService), Nanos(100));
        assert_eq!(a.stage_total(ReqKind::Read, Stage::SanitizeInterference), Nanos(300));
        let link = v.chain().find(|l| !l.own).expect("cross-request blame link");
        assert_eq!(link.kind, SpanKind::BLock);
        assert_eq!(link.resource, Some(ResourceId::Chip(0)));
        assert_eq!((link.start, link.end), (Nanos(100), Nanos(400)));
    }

    #[test]
    fn watchdog_penalty_window_is_retry_interference() {
        let mut tr = TraceRecorder::new(8);
        // Retried: submit 0, original earliest 100, penalty pushed the
        // start to 400; the read then runs [400, 500).
        let t = tr.record(
            ReqKind::Read,
            0,
            1,
            true,
            Nanos(0),
            Nanos(400),
            Nanos(500),
            &[ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 400, 500)],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, Some((Nanos(100), Nanos(400))), None);
        let r = a.rows().next().expect("one row");
        tiling_holds(&r);
        assert_eq!(r.stage(Stage::QueueWait), Nanos(100));
        assert_eq!(r.stage(Stage::RetryInterference), Nanos(300));
        assert_eq!(r.stage(Stage::ChipService), Nanos(100));
    }

    #[test]
    fn aggregates_and_topk_survive_ring_eviction() {
        let mut tr = TraceRecorder::new(64);
        let mut a = AnatomyRecorder::new(2, 3);
        for i in 0..10u64 {
            let t = tr.record(
                ReqKind::Write,
                i,
                1,
                true,
                Nanos(0),
                Nanos(0),
                Nanos(100 * (i + 1)),
                &[ev(SpanKind::Program, OpCause::Host, ResourceId::Chip(0), 0, 100 * (i + 1))],
            );
            a.record(t, None, None);
        }
        assert_eq!(a.recorded(), 10);
        assert_eq!(a.dropped(), 8);
        assert_eq!(a.rows().count(), 2);
        // Totals cover every row, evicted ones included.
        let sum: u64 = (1..=10).map(|i| 100 * i).sum();
        assert_eq!(a.stage_total(ReqKind::Write, Stage::ChipService), Nanos(sum));
        // Top-K: the three slowest, slowest first, despite eviction.
        let tops: Vec<u64> = a.top().map(|r| r.e2e().0).collect();
        assert_eq!(tops, vec![1000, 900, 800]);
    }

    #[test]
    fn topk_ties_break_by_trace_id() {
        let mut tr = TraceRecorder::new(8);
        let mut a = AnatomyRecorder::new(8, 2);
        for _ in 0..4 {
            let t = tr.record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(500), &[]);
            a.record(t, None, None);
        }
        let ids: Vec<u64> = a.top().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![0, 1], "equal e2e: earliest trace ids win");
    }

    #[test]
    fn a_displaced_top_row_hands_its_chain_buffer_on() {
        let mut tr = TraceRecorder::new(8);
        let mut a = AnatomyRecorder::new(8, 1);
        for (i, locks) in [(0u64, 3u64), (1, 1), (2, 2)] {
            // Each request is slower than the last and carries its own
            // number of lock links.
            let submit = 10_000 * i;
            let events: Vec<TraceEvent> = (0..locks)
                .map(|k| {
                    let at = submit + 100 * k;
                    ev(SpanKind::PLock, OpCause::Sanitize, ResourceId::Chip(1), at, at + 50)
                })
                .collect();
            let end = Nanos(submit + 1000 * (i + 1));
            let t =
                tr.record(ReqKind::Trim, i, 1, true, Nanos(submit), Nanos(submit), end, &events);
            a.record(t, None, None);
            let top = a.top().next().expect("top-1");
            assert_eq!(top.trace_id, i);
            assert_eq!(top.chain().len() as u64, locks, "the recycled buffer holds only its chain");
        }
    }
}
