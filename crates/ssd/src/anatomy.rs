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
//! Blame needs hindsight: the command that blocked a fast request may
//! belong to a slower neighbor whose trace finishes later. Rows are
//! therefore held *pending* and resolved either when the bounded pending
//! window overflows or at [`AnatomyRecorder::finalize`], which every
//! reader (metrics export, experiment gates) calls first. Resolution
//! folds each row into per-kind/per-stage totals and histograms, a
//! deterministic top-K slowest digest carrying the full causal chain,
//! and the bounded resolved ring.
//!
//! The whole layer is observational: it reads finished traces and never
//! touches the simulated device, so enabling it cannot change results —
//! the `anatomy` experiment gate proves byte-identity.

use crate::metrics::LatencyHistogram;
use crate::trace::{ReqKind, RequestTrace, ResourceId, SpanKind};
use evanesco_ftl::{Lpa, OpCause};
use evanesco_nand::timing::Nanos;
use std::collections::{BTreeMap, VecDeque};

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

/// Bound on the causal chain kept per request (longest-blame links win).
const CHAIN_CAP: usize = 64;

/// The resolved anatomy of one traced request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAnatomy {
    /// The trace id ([`RequestTrace::id`]) this row was derived from.
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
    /// Per-stage durations. Sums to exactly [`RequestAnatomy::e2e`].
    pub stages: [Nanos; Stage::COUNT],
    /// Causal chain: every interference interval, blamer named, in
    /// timeline order (bounded at `CHAIN_CAP` — longest links kept).
    pub chain: Vec<ChainLink>,
}

impl RequestAnatomy {
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
    /// exactly [`RequestAnatomy::e2e`].
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

/// An unresolved wait interval: blamed lazily once the occupancy
/// timeline has caught up (the blocking command may belong to a trace
/// recorded later).
#[derive(Debug, Clone, Copy)]
struct PendingWait {
    start: Nanos,
    end: Nanos,
    /// The blocking resource: where the request's next own command ran.
    /// `None` for trailing waits with no subsequent command — those have
    /// no blocking resource and stay dispatch stall.
    resource: Option<ResourceId>,
}

#[derive(Debug, Clone)]
struct Pending {
    row: RequestAnatomy,
    waits: Vec<PendingWait>,
}

/// One interval of the per-resource occupancy timeline (interference
/// commands only — host service never blames a wait).
#[derive(Debug, Clone, Copy)]
struct OccSlot {
    start: Nanos,
    end: Nanos,
    stage: Stage,
    kind: SpanKind,
    cause: OpCause,
}

/// Per-resource occupancy ring bound. Old intervals are only consulted
/// by waits that overlap them, so a bounded recent window suffices;
/// overflow is counted in [`AnatomyRecorder::occupancy_dropped`].
///
/// Each ring is sorted and disjoint: a serial resource never starts a
/// reservation before its previous one ended, and traces arrive in
/// dispatch order. Blame resolution binary-searches on that.
const OCC_CAP: usize = 4096;

/// Bounded per-request latency-anatomy recorder.
///
/// Fed one [`RequestTrace`] at a time by the emulator (tracing must be
/// on). Aggregates survive ring eviction; rows and the top-K digest are
/// bounded. Deterministic: identical runs produce identical anatomy.
#[derive(Debug, Clone)]
pub struct AnatomyRecorder {
    capacity: usize,
    top_k: usize,
    pending: VecDeque<Pending>,
    resolved: VecDeque<RequestAnatomy>,
    occupancy: BTreeMap<ResourceId, VecDeque<OccSlot>>,
    occ_dropped: u64,
    recorded: u64,
    dropped: u64,
    /// Total stage time per request kind, across every recorded row.
    totals: [[Nanos; Stage::COUNT]; REQ_KINDS.len()],
    /// Per-kind/per-stage duration histograms (one sample per request).
    hists: [[LatencyHistogram; Stage::COUNT]; REQ_KINDS.len()],
    /// Deterministic top-K slowest rows: ordered by (e2e desc, trace id
    /// asc), ring eviction notwithstanding.
    top: Vec<RequestAnatomy>,
}

impl AnatomyRecorder {
    /// A recorder retaining at most `capacity` resolved rows and a
    /// top-`top_k` slowest digest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, top_k: usize) -> Self {
        assert!(capacity > 0, "anatomy ring capacity must be positive");
        AnatomyRecorder {
            capacity,
            top_k,
            pending: VecDeque::new(),
            resolved: VecDeque::with_capacity(capacity.min(4096)),
            occupancy: BTreeMap::new(),
            occ_dropped: 0,
            recorded: 0,
            dropped: 0,
            totals: [[Nanos::ZERO; Stage::COUNT]; REQ_KINDS.len()],
            hists: [[LatencyHistogram::new(); Stage::COUNT]; REQ_KINDS.len()],
            top: Vec::new(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Rows evicted from the resolved ring (aggregates and the top-K
    /// digest still cover them).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Occupancy intervals evicted from a full per-resource window —
    /// wait blame may be undercounted (never overcounted) when nonzero.
    pub fn occupancy_dropped(&self) -> u64 {
        self.occ_dropped
    }

    /// Total stage time for `kind` requests in `stage`, across every
    /// *resolved* row (call [`AnatomyRecorder::finalize`] first to
    /// settle the pending window).
    pub fn stage_total(&self, kind: ReqKind, stage: Stage) -> Nanos {
        self.totals[kind_idx(kind)][stage.idx()]
    }

    /// Per-request duration histogram for `kind` × `stage` (resolved
    /// rows).
    pub fn stage_hist(&self, kind: ReqKind, stage: Stage) -> &LatencyHistogram {
        &self.hists[kind_idx(kind)][stage.idx()]
    }

    /// The retained resolved rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &RequestAnatomy> {
        self.resolved.iter()
    }

    /// The top-K slowest resolved rows, slowest first (ties broken by
    /// trace id ascending — fully deterministic).
    pub fn top(&self) -> &[RequestAnatomy] {
        &self.top
    }

    /// Rows recorded but not yet blame-resolved.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Ingests one finished trace. `retry` is the watchdog penalty
    /// window (absolute), if the request was aborted and backed off;
    /// `req_idx` joins the row to a scheduled-run op index.
    ///
    /// Traces must arrive in dispatch order, so that each resource's
    /// interference commands arrive in time order (the emulator's do:
    /// its resources are serial); debug builds assert it.
    pub fn record(
        &mut self,
        t: &RequestTrace,
        retry: Option<(Nanos, Nanos)>,
        req_idx: Option<usize>,
    ) {
        let mut stages = [Nanos::ZERO; Stage::COUNT];
        let mut chain: Vec<ChainLink> = Vec::new();
        let mut waits: Vec<PendingWait> = Vec::new();
        for seg in &t.segments {
            match seg.kind {
                SpanKind::QueueWait | SpanKind::Wait => {
                    let base = if seg.kind == SpanKind::QueueWait {
                        Stage::QueueWait
                    } else {
                        Stage::DispatchStall
                    };
                    // Watchdog penalty first: the backoff window is retry
                    // interference wherever it lands in the timeline.
                    let (rs, re) = match retry {
                        Some((rs, re)) => {
                            (rs.clamp(seg.start, seg.end), re.clamp(seg.start, seg.end))
                        }
                        None => (seg.start, seg.start),
                    };
                    if re > rs {
                        stages[Stage::RetryInterference.idx()] += re - rs;
                        chain.push(ChainLink {
                            stage: Stage::RetryInterference,
                            kind: seg.kind,
                            cause: OpCause::Retry,
                            resource: None,
                            start: rs,
                            end: re,
                            own: true,
                        });
                    }
                    // The un-penalized remainder: queue wait stays queue
                    // wait; service-window waits go to the occupancy
                    // blame pass.
                    for (a, b) in [(seg.start, rs), (re.max(rs), seg.end)] {
                        if b <= a {
                            continue;
                        }
                        stages[base.idx()] += b - a;
                        if base == Stage::DispatchStall {
                            waits.push(PendingWait { start: a, end: b, resource: None });
                        }
                    }
                }
                kind => {
                    // An own command: charge its stage directly.
                    match interference_of(kind, seg.cause) {
                        Some(stage) => {
                            stages[stage.idx()] += seg.dur();
                            chain.push(ChainLink {
                                stage,
                                kind,
                                cause: seg.cause,
                                resource: None,
                                start: seg.start,
                                end: seg.end,
                                own: true,
                            });
                        }
                        None => {
                            let stage = if kind == SpanKind::Xfer {
                                Stage::Xfer
                            } else {
                                Stage::ChipService
                            };
                            stages[stage.idx()] += seg.dur();
                        }
                    }
                }
            }
        }
        // Each wait's blocking resource is where the request's next own
        // command ran: the earliest-starting event at or after the wait's
        // end, first in issue order on a tie. Waits are in timeline order,
        // so an event is a candidate for the last wait ending at or before
        // its start, and a wait without one inherits from the wait after
        // it. Trailing waits with no later command keep `None`.
        let mut next_start = vec![Nanos(u64::MAX); waits.len()];
        for e in &t.events {
            let k = waits.partition_point(|w| w.end <= e.start);
            if k > 0 && e.start < next_start[k - 1] {
                next_start[k - 1] = e.start;
                waits[k - 1].resource = Some(e.resource);
            }
        }
        for k in (1..waits.len()).rev() {
            if waits[k - 1].resource.is_none() {
                waits[k - 1].resource = waits[k].resource;
            }
        }
        // Every interference-class command this request issued joins the
        // occupancy timeline, so neighbors' waits can be blamed on it.
        for e in &t.events {
            if let Some(stage) = interference_of(e.kind, e.cause) {
                let ring = self.occupancy.entry(e.resource).or_default();
                debug_assert!(
                    ring.back().is_none_or(|last| last.end <= e.start),
                    "occupancy of {:?} must arrive in time order",
                    e.resource
                );
                if ring.len() == OCC_CAP {
                    ring.pop_front();
                    self.occ_dropped += 1;
                }
                ring.push_back(OccSlot {
                    start: e.start,
                    end: e.end,
                    stage,
                    kind: e.kind,
                    cause: e.cause,
                });
            }
        }
        let row = RequestAnatomy {
            trace_id: t.id,
            req_idx,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            end: t.end,
            stages,
            chain,
        };
        self.recorded += 1;
        self.pending.push_back(Pending { row, waits });
        // Bound the pending window: the oldest row resolves against the
        // occupancy seen so far (its blockers completed long ago).
        if self.pending.len() > self.capacity {
            let p = self.pending.pop_front().expect("pending nonempty");
            self.resolve_one(p);
        }
    }

    /// Resolves every pending row against the full occupancy timeline
    /// and folds it into the aggregates. Call before reading totals,
    /// histograms, rows, or the top-K digest. Idempotent.
    pub fn finalize(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            self.resolve_one(p);
        }
    }

    fn resolve_one(&mut self, p: Pending) {
        let Pending { mut row, waits } = p;
        for w in &waits {
            let Some(res) = w.resource else { continue };
            let Some(ring) = self.occupancy.get(&res) else { continue };
            // The ring is sorted and disjoint: the overlapping slots are
            // the run from the first one ending after the wait's start.
            let first = ring.partition_point(|slot| slot.end <= w.start);
            for slot in ring.range(first..).take_while(|slot| slot.start < w.end) {
                let a = slot.start.max(w.start);
                let b = slot.end.min(w.end);
                // Reclassify: the blocking resource was held by an
                // interference-class command for [a, b). Occupancy
                // intervals on a serial resource are disjoint, so the
                // reclassified total never exceeds the wait.
                let dur = b - a;
                row.stages[Stage::DispatchStall.idx()] =
                    row.stages[Stage::DispatchStall.idx()] - dur;
                row.stages[slot.stage.idx()] += dur;
                row.chain.push(ChainLink {
                    stage: slot.stage,
                    kind: slot.kind,
                    cause: slot.cause,
                    resource: Some(res),
                    start: a,
                    end: b,
                    own: false,
                });
            }
        }
        // Deterministic chain order and bound: timeline order, longest
        // links retained when over the cap.
        row.chain.sort_by_key(|l| (l.start, l.end, l.stage.idx()));
        if row.chain.len() > CHAIN_CAP {
            let mut by_dur: Vec<usize> = (0..row.chain.len()).collect();
            by_dur.sort_by_key(|&i| (std::cmp::Reverse(row.chain[i].dur()), i));
            by_dur.truncate(CHAIN_CAP);
            by_dur.sort_unstable();
            row.chain = by_dur.into_iter().map(|i| row.chain[i]).collect();
        }
        let k = kind_idx(row.kind);
        for s in Stage::ALL {
            self.totals[k][s.idx()] += row.stages[s.idx()];
            self.hists[k][s.idx()].record(row.stages[s.idx()]);
        }
        // Top-K insert, (e2e desc, trace id asc): only a row that beats
        // the current K-th is cloned in, at its sorted position.
        let key = |r: &RequestAnatomy| (std::cmp::Reverse(r.e2e()), r.trace_id);
        if self.top.len() < self.top_k || self.top.last().is_some_and(|kth| key(&row) < key(kth)) {
            self.top.truncate(self.top_k - 1);
            let at = self.top.partition_point(|r| key(r) <= key(&row));
            self.top.insert(at, row.clone());
        }
        if self.resolved.len() == self.capacity {
            self.resolved.pop_front();
            self.dropped += 1;
        }
        self.resolved.push_back(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceRecorder};

    fn ev(kind: SpanKind, cause: OpCause, res: ResourceId, start: u64, end: u64) -> TraceEvent {
        TraceEvent { kind, cause, resource: res, start: Nanos(start), end: Nanos(end) }
    }

    fn tiling_holds(r: &RequestAnatomy) {
        assert_eq!(r.stage_sum(), r.e2e(), "stages must tile e2e exactly: {r:?}");
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
            vec![
                ev(SpanKind::Xfer, OpCause::Host, ResourceId::Channel(0), 100, 140),
                ev(SpanKind::Read, OpCause::Gc, ResourceId::Chip(0), 140, 240),
                ev(SpanKind::Program, OpCause::Host, ResourceId::Chip(0), 240, 540),
                ev(SpanKind::PLock, OpCause::Sanitize, ResourceId::Chip(0), 540, 640),
                ev(SpanKind::Stall, OpCause::Host, ResourceId::Chip(0), 640, 700),
            ],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, None, Some(3));
        a.finalize();
        let r = a.rows().next().expect("one row");
        tiling_holds(r);
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
        assert!(r.chain.iter().any(|l| l.stage == Stage::SanitizeInterference && l.own));
    }

    #[test]
    fn waits_are_blamed_on_what_occupied_the_blocking_resource() {
        let mut tr = TraceRecorder::new(8);
        // The victim waits [0, 500) then reads on chip 0.
        let victim = tr
            .record(
                ReqKind::Read,
                9,
                1,
                true,
                Nanos(0),
                Nanos(0),
                Nanos(600),
                vec![ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 500, 600)],
            )
            .clone();
        // The neighbor's bLock held chip 0 for [100, 400) — recorded
        // *after* the victim (out-of-order completion).
        let neighbor = tr
            .record(
                ReqKind::Trim,
                7,
                1,
                true,
                Nanos(0),
                Nanos(0),
                Nanos(400),
                vec![ev(SpanKind::BLock, OpCause::Sanitize, ResourceId::Chip(0), 100, 400)],
            )
            .clone();
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(&victim, None, None);
        a.record(&neighbor, None, None);
        a.finalize();
        let rows: Vec<&RequestAnatomy> = a.rows().collect();
        let v = rows.iter().find(|r| r.trace_id == victim.id).expect("victim row");
        tiling_holds(v);
        // 300 ns of the victim's 500 ns wait is the neighbor's lock.
        assert_eq!(v.stage(Stage::SanitizeInterference), Nanos(300));
        assert_eq!(v.stage(Stage::DispatchStall), Nanos(200));
        assert_eq!(v.stage(Stage::ChipService), Nanos(100));
        let link = v.chain.iter().find(|l| !l.own).expect("cross-request blame link");
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
            vec![ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 400, 500)],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, Some((Nanos(100), Nanos(400))), None);
        a.finalize();
        let r = a.rows().next().expect("one row");
        tiling_holds(r);
        assert_eq!(r.stage(Stage::QueueWait), Nanos(100));
        assert_eq!(r.stage(Stage::RetryInterference), Nanos(300));
        assert_eq!(r.stage(Stage::ChipService), Nanos(100));
    }

    #[test]
    fn aggregates_and_topk_survive_ring_eviction() {
        let mut tr = TraceRecorder::new(64);
        let mut a = AnatomyRecorder::new(2, 3);
        for i in 0..10u64 {
            let t = tr
                .record(
                    ReqKind::Write,
                    i,
                    1,
                    true,
                    Nanos(0),
                    Nanos(0),
                    Nanos(100 * (i + 1)),
                    vec![ev(
                        SpanKind::Program,
                        OpCause::Host,
                        ResourceId::Chip(0),
                        0,
                        100 * (i + 1),
                    )],
                )
                .clone();
            a.record(&t, None, None);
        }
        a.finalize();
        assert_eq!(a.recorded(), 10);
        assert_eq!(a.dropped(), 8);
        assert_eq!(a.rows().count(), 2);
        // Totals cover every row, evicted ones included.
        let sum: u64 = (1..=10).map(|i| 100 * i).sum();
        assert_eq!(a.stage_total(ReqKind::Write, Stage::ChipService), Nanos(sum));
        assert_eq!(a.stage_hist(ReqKind::Write, Stage::ChipService).count(), 10);
        // Top-K: the three slowest, slowest first, despite eviction.
        let tops: Vec<u64> = a.top().iter().map(|r| r.e2e().0).collect();
        assert_eq!(tops, vec![1000, 900, 800]);
    }

    #[test]
    fn topk_ties_break_by_trace_id() {
        let mut tr = TraceRecorder::new(8);
        let mut a = AnatomyRecorder::new(8, 2);
        for _ in 0..4 {
            let t = tr
                .record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(500), vec![])
                .clone();
            a.record(&t, None, None);
        }
        a.finalize();
        let ids: Vec<u64> = a.top().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![0, 1], "equal e2e: earliest trace ids win");
    }
}
