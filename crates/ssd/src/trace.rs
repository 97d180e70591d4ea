//! Op-level request tracing: a bounded ring of per-request span
//! timelines, fed by the [`crate::device::TimedExecutor`] and exported in
//! chrome://tracing (trace-event JSON) format.
//!
//! Every device command the executor reserves while tracing is enabled
//! becomes a [`TraceEvent`] — an occupied interval on one serial resource
//! (a chip array or a channel). The emulator brackets each host request,
//! collects the events it generated (GC, sanitization locks and erases
//! triggered by the request included), and hands them to the
//! [`TraceRecorder`], which derives the request's **segment timeline**: a
//! gap-free partition of the service window into queueing, array work,
//! transfers, and dependency stalls. By construction the segment
//! durations sum to exactly the recorded end-to-end latency — the
//! invariant the trace test suite checks on every traced request.
//!
//! The ring stores each request's packed events and bounds, not its
//! segments: the span totals and the anatomy take the sweep's output as
//! the request is recorded, and [`RequestTrace::segments`] re-runs the
//! same sweep on the stored events whenever a reader asks.

use crate::anatomy::AnatomyRecorder;
use crate::jsonlite::{escape, Json};
use evanesco_ftl::{Lpa, OpCause};
use evanesco_nand::arena::{Arena, PackedNanos, Span};
use evanesco_nand::timing::Nanos;
use std::collections::{BTreeSet, VecDeque};

/// What a traced interval was spent on. Doubles as the segment class of
/// the derived per-request timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Waiting for an NCQ slot (before the request's earliest legal start).
    QueueWait,
    /// Inside the service window but no resource working for the request
    /// (dependency stalls between commands).
    Wait,
    /// Firmware-injected stall (degraded-mode throttling).
    Stall,
    /// Channel data transfer.
    Xfer,
    /// Array read (sensing), including recovery probes and read retries.
    Read,
    /// Array program, including GC copies and bad-block marks.
    Program,
    /// `pLock` sanitization command.
    PLock,
    /// `bLock` sanitization command.
    BLock,
    /// One-shot scrub reprogram.
    Scrub,
    /// Block erase.
    Erase,
}

impl SpanKind {
    /// Stable lowercase label (trace JSON and metric names).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Wait => "wait",
            SpanKind::Stall => "stall",
            SpanKind::Xfer => "xfer",
            SpanKind::Read => "read",
            SpanKind::Program => "program",
            SpanKind::PLock => "plock",
            SpanKind::BLock => "block",
            SpanKind::Scrub => "scrub",
            SpanKind::Erase => "erase",
        }
    }

    /// All kinds, in segmentation-priority order (lowest first): when
    /// intervals overlap on different resources, the derived segment takes
    /// the highest-priority class covering the instant (array operations
    /// dominate transfers, which dominate waiting). Declaration order is
    /// this order, so a kind's discriminant is its priority.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::QueueWait,
        SpanKind::Wait,
        SpanKind::Stall,
        SpanKind::Xfer,
        SpanKind::Read,
        SpanKind::Program,
        SpanKind::PLock,
        SpanKind::BLock,
        SpanKind::Scrub,
        SpanKind::Erase,
    ];

    fn priority(self) -> usize {
        self as usize
    }
}

/// The serial resource an interval occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceId {
    /// A chip array.
    Chip(usize),
    /// A shared channel.
    Channel(usize),
}

impl ResourceId {
    /// Stable display name.
    pub fn name(self) -> String {
        match self {
            ResourceId::Chip(i) => format!("chip {i}"),
            ResourceId::Channel(c) => format!("channel {c}"),
        }
    }

    /// Dense small-integer form, chips even and channels odd: the ring's
    /// packed resource field and the anatomy's occupancy index.
    ///
    /// # Panics
    ///
    /// Panics if the chip or channel index needs more than 15 bits.
    pub(crate) fn dense(self) -> u16 {
        let (index, channel) = match self {
            ResourceId::Chip(i) => (i, 0),
            ResourceId::Channel(c) => (c, 1),
        };
        assert!(
            index < 1 << 15,
            "{} is beyond the 15-bit resource index the trace ring packs",
            self.name()
        );
        (index as u16) << 1 | channel
    }

    pub(crate) fn from_dense(dense: u16) -> Self {
        let index = usize::from(dense >> 1);
        if dense & 1 == 0 {
            ResourceId::Chip(index)
        } else {
            ResourceId::Channel(index)
        }
    }

    /// Thread id in the chrome trace (chips low, channels offset high).
    fn tid(self) -> u64 {
        match self {
            ResourceId::Chip(i) => i as u64,
            ResourceId::Channel(c) => 1000 + c as u64,
        }
    }
}

/// One reserved interval on one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Operation class.
    pub kind: SpanKind,
    /// Why the command was issued (host path, GC, sanitization, retry
    /// ladder) — the innermost FTL cause scope active when it reserved
    /// the resource.
    pub cause: OpCause,
    /// Resource occupied.
    pub resource: ResourceId,
    /// Absolute simulated start.
    pub start: Nanos,
    /// Absolute simulated end (exclusive).
    pub end: Nanos,
}

/// The host request class a trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Host write (secure or insecure).
    Write,
    /// Host read.
    Read,
    /// Host trim (secure delete).
    Trim,
    /// Power-up recovery scan.
    Recovery,
    /// Deferred-lock flush outside any host request.
    Maintenance,
}

impl ReqKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ReqKind::Write => "write",
            ReqKind::Read => "read",
            ReqKind::Trim => "trim",
            ReqKind::Recovery => "recovery",
            ReqKind::Maintenance => "maintenance",
        }
    }
}

/// One contiguous slice of a request's service window, classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Segment class (highest-priority activity covering the slice).
    pub kind: SpanKind,
    /// Cause of the covering event (`Host` for queue-wait and idle-wait
    /// slices, where no event covers the instant).
    pub cause: OpCause,
    /// Absolute simulated start.
    pub start: Nanos,
    /// Absolute simulated end (exclusive).
    pub end: Nanos,
}

impl Segment {
    /// Slice duration.
    pub fn dur(&self) -> Nanos {
        self.end - self.start
    }
}

/// A live [`TraceEvent`] as the sweep and the anatomy read it: 24 bytes
/// (40 unpacked), the resource in its dense form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveEvent {
    pub(crate) start: Nanos,
    pub(crate) end: Nanos,
    pub(crate) kind: SpanKind,
    pub(crate) cause: OpCause,
    pub(crate) resource: u16,
}

impl From<&TraceEvent> for LiveEvent {
    fn from(e: &TraceEvent) -> Self {
        LiveEvent {
            start: e.start,
            end: e.end,
            kind: e.kind,
            cause: e.cause,
            resource: e.resource.dense(),
        }
    }
}

impl From<LiveEvent> for TraceEvent {
    fn from(e: LiveEvent) -> Self {
        TraceEvent {
            kind: e.kind,
            cause: e.cause,
            resource: ResourceId::from_dense(e.resource),
            start: e.start,
            end: e.end,
        }
    }
}

/// The duration a [`PackedEvent`] holds when its own does not fit 32 bits
/// (4.29 s): the event's end is kept aside, in [`TraceRecorder::long`].
const LONG: u32 = u32::MAX;

/// A [`TraceEvent`] as the ring stores it: 16 bytes, the end as a 32-bit
/// duration ([`LONG`] for one that does not fit).
#[derive(Debug, Clone, Copy)]
struct PackedEvent {
    start: PackedNanos,
    dur: u32,
    kind: SpanKind,
    cause: OpCause,
    resource: u16,
}

impl PackedEvent {
    /// Packs `e`, calling `long` if its duration does not fit.
    fn pack(e: &LiveEvent, long: impl FnOnce()) -> Self {
        let dur =
            u32::try_from((e.end - e.start).0).ok().filter(|&d| d < LONG).unwrap_or_else(|| {
                long();
                LONG
            });
        PackedEvent {
            start: e.start.into(),
            dur,
            kind: e.kind,
            cause: e.cause,
            resource: e.resource,
        }
    }

    /// Unpacks the event, asking `long` for the end of one whose duration
    /// did not fit.
    fn unpack(&self, long: impl FnOnce() -> Nanos) -> LiveEvent {
        let start = Nanos::from(self.start);
        let end = if self.dur == LONG { long() } else { start + Nanos(u64::from(self.dur)) };
        LiveEvent { start, end, kind: self.kind, cause: self.cause, resource: self.resource }
    }
}

/// A [`Segment`] as the sweep writes it: 12 bytes (24 unpacked).
/// Segments tile the request's window, so a segment starts where the
/// previous one ended (the first at the window's start).
#[derive(Debug, Clone, Copy)]
struct PackedSegment {
    end: PackedNanos,
    kind: SpanKind,
    cause: OpCause,
    /// For a wait, its blocking command's dense resource (fact 3, [`Sweep`]).
    next: u16,
}

/// Unpacks a tiling run of segments whose first one starts at `start`.
fn unpack_segments(
    mut start: Nanos,
    packed: &[PackedSegment],
) -> impl ExactSizeIterator<Item = Segment> + Clone + '_ {
    packed.iter().map(move |s| {
        let seg = Segment { kind: s.kind, cause: s.cause, start, end: s.end.into() };
        start = seg.end;
        seg
    })
}

/// The fixed-size record of one traced host request; its events and
/// segments are reached through the [`RequestTrace`] view.
#[derive(Debug, Clone, Copy)]
pub struct TraceHead {
    /// Monotone trace id (submission order of traced requests).
    pub id: u64,
    /// Request class.
    pub kind: ReqKind,
    /// First logical page (zero for recovery/maintenance).
    pub lpa: Lpa,
    /// Pages touched.
    pub npages: u64,
    /// Whether the request was acknowledged.
    pub acked: bool,
    /// When the request gained its queue slot.
    pub submit: Nanos,
    /// Earliest legal start of its device work (slot + dependencies).
    pub earliest: Nanos,
    /// Completion of its last device command.
    pub end: Nanos,
}

/// A [`TraceHead`] as the ring stores it: 48 bytes (56 unpacked). The id
/// is the head's ring position; the first page and the page count take
/// 32 bits, as every device's logical space does (`FtlConfig::check`).
#[derive(Debug, Clone, Copy)]
struct PackedHead {
    submit: PackedNanos,
    earliest: PackedNanos,
    end: PackedNanos,
    events: Span,
    lpa: u32,
    npages: u32,
    kind: ReqKind,
    acked: bool,
}

impl PackedHead {
    fn unpack(&self, id: u64) -> TraceHead {
        TraceHead {
            id,
            kind: self.kind,
            lpa: Lpa::from(self.lpa),
            npages: u64::from(self.npages),
            acked: self.acked,
            submit: self.submit.into(),
            earliest: self.earliest.into(),
            end: self.end.into(),
        }
    }
}

impl TraceHead {
    /// End-to-end latency: queue wait included.
    pub fn e2e(&self) -> Nanos {
        self.end - self.submit
    }

    /// Service latency: completion minus earliest legal start (what the
    /// latency histograms record on the scheduled path).
    pub fn service(&self) -> Nanos {
        self.end - self.earliest
    }
}

/// Ends of the retained events whose duration did not fit 32 bits, as
/// `(trace id, index among its events, end)` in recording order.
type LongEnds = VecDeque<(u64, u32, Nanos)>;

/// One retained trace, borrowed from the ring: the [`TraceHead`] fields
/// (by deref, unpacked) plus its events and derived segments, unpacked on
/// the fly.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace<'a> {
    head: TraceHead,
    events: &'a [PackedEvent],
    long: &'a LongEnds,
    /// The sweep that just segmented the request, when the view comes
    /// straight from [`TraceRecorder::record`].
    swept: Option<&'a Sweep>,
}

impl std::ops::Deref for RequestTrace<'_> {
    type Target = TraceHead;

    fn deref(&self) -> &TraceHead {
        &self.head
    }
}

impl<'a> RequestTrace<'a> {
    /// Raw resource intervals, in issue order (empty ones dropped).
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + Clone + 'a {
        self.live_events().map(TraceEvent::from)
    }

    fn live_events(&self) -> impl ExactSizeIterator<Item = LiveEvent> + Clone + 'a {
        let (id, long) = (self.head.id, self.long);
        self.events.iter().enumerate().map(move |(i, e)| {
            let i = i as u32;
            e.unpack(|| {
                let at = long.binary_search_by_key(&(id, i), |&(id, i, _)| (id, i));
                long[at.expect("a long event's end is kept while its trace is")].2
            })
        })
    }

    /// Derived timeline: tiles `[submit, end)` exactly, so segment
    /// durations sum to the end-to-end latency. The ring keeps no
    /// segments: each call re-runs the recording sweep on the stored
    /// events and bounds.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = Segment> + Clone + 'a {
        let submit = self.head.submit;
        self.with_sweep(|sweep| unpack_segments(submit, &sweep.out).collect::<Vec<_>>()).into_iter()
    }

    /// Runs `f` on the sweep of this trace: the recording one when the
    /// view comes straight from [`TraceRecorder::record`], else a fresh
    /// one run on the stored events and bounds (already widened over the
    /// events, so it yields the recorded segments).
    pub(crate) fn with_sweep<R>(&self, f: impl FnOnce(&Sweep) -> R) -> R {
        if let Some(sweep) = self.swept {
            return f(sweep);
        }
        let mut sweep = Sweep::default();
        sweep.load(self.live_events());
        sweep.link();
        sweep.run(self.head.submit, self.head.earliest, self.head.end);
        f(&sweep)
    }
}

/// One finished host request as the emulator hands it to the recorders:
/// the [`TraceHead`] fields, where its events lie in the event buffer it
/// travels with, and the anatomy's two inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TracePacket {
    pub(crate) kind: ReqKind,
    pub(crate) lpa: Lpa,
    pub(crate) npages: u64,
    pub(crate) acked: bool,
    pub(crate) submit: Nanos,
    pub(crate) earliest: Nanos,
    pub(crate) end: Nanos,
    /// Start and end of the request's events in the buffer.
    pub(crate) events: (usize, usize),
    /// The watchdog's backoff window (absolute), if the request was
    /// retried.
    pub(crate) retry: Option<(Nanos, Nanos)>,
    /// The request's index in its scheduled run.
    pub(crate) req_idx: Option<usize>,
}

/// A run of finished requests in dispatch order, the executor's event
/// buffer they index, and one standard chunk per ring arena for the rings
/// to grow into: what crosses to the recorder thread. The chunks are
/// allocated on the request thread, so the rings live in its heap rather
/// than in an allocator arena of the recorder thread's own. Everything
/// comes back emptied, chunks the rings did not take included, and is
/// refilled, so a batch grows once per call.
#[derive(Debug)]
pub(crate) struct TraceBatch {
    pub(crate) packets: Vec<TracePacket>,
    pub(crate) events: Vec<TraceEvent>,
    heads: Option<Vec<PackedHead>>,
    chunk: Option<Vec<PackedEvent>>,
    anatomy: crate::anatomy::Spares,
}

impl TraceBatch {
    /// An empty batch with room for `packets` requests and no chunks.
    pub(crate) fn new(packets: usize) -> Self {
        TraceBatch {
            packets: Vec::with_capacity(packets),
            events: Vec::new(),
            heads: None,
            chunk: None,
            anatomy: Default::default(),
        }
    }

    /// Allocates, on the calling thread, the chunk of each ring arena the
    /// recorder took from this batch last time (the anatomy's too when
    /// `anatomy`).
    pub(crate) fn top_up(&mut self, anatomy: bool) {
        self.heads.get_or_insert_with(|| Vec::with_capacity(HEAD_CHUNK));
        self.chunk.get_or_insert_with(|| Vec::with_capacity(EVENT_CHUNK));
        if anatomy {
            self.anatomy.top_up();
        }
    }
}

/// Chunk sizes of the ring's two arenas, in elements (48 and 128 KiB):
/// large enough that a chunk outlives hundreds of requests.
const HEAD_CHUNK: usize = 1024;
const EVENT_CHUNK: usize = 8192;

/// Bounded ring of finished request traces plus running aggregates.
///
/// The ring holds the most recent `capacity` traces; older ones are
/// evicted (counted in [`TraceRecorder::dropped`]) while the per-kind
/// span-time aggregates keep accumulating for every trace ever recorded.
/// Storage is two [`Arena`]s — packed headers and packed events — so
/// recording allocates once per chunk, not per request, and evicting the
/// oldest trace releases its share of each. Segments are derived on read.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    capacity: usize,
    heads: Arena<PackedHead>,
    events: Arena<PackedEvent>,
    /// Ends of the retained events too long for a packed duration.
    long: LongEnds,
    /// Total segment time per kind across all recorded traces (indexed by
    /// [`SpanKind::priority`] order).
    span_totals: [Nanos; SpanKind::ALL.len()],
    /// The segmenter's buffers, recycled across requests.
    sweep: Sweep,
    /// Id of this ring's first trace.
    first_id: u64,
}

impl TraceRecorder {
    /// A recorder keeping the most recent `capacity` request traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRecorder {
            capacity,
            heads: Arena::new(HEAD_CHUNK),
            events: Arena::new(EVENT_CHUNK),
            long: LongEnds::new(),
            span_totals: [Nanos::ZERO; SpanKind::ALL.len()],
            sweep: Sweep::default(),
            first_id: 0,
        }
    }

    /// An empty ring of the same capacity whose ids continue this one's.
    pub(crate) fn successor(&self) -> Self {
        let first_id = self.first_id + self.recorded();
        TraceRecorder { first_id, ..TraceRecorder::new(self.capacity) }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.heads.pushed()
    }

    /// Traces evicted from the ring (recorded minus retained).
    pub fn dropped(&self) -> u64 {
        self.heads.released()
    }

    fn view<'a>(
        &'a self,
        head: &PackedHead,
        id: u64,
        swept: Option<&'a Sweep>,
    ) -> RequestTrace<'a> {
        let events = self.events.slice(head.events);
        RequestTrace { head: head.unpack(id), events, long: &self.long, swept }
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = RequestTrace<'_>> + Clone {
        let first = self.first_id + self.heads.released();
        self.heads.iter().zip(first..).map(|(head, id)| self.view(head, id, None))
    }

    /// Total derived-segment time spent in `kind` across every recorded
    /// trace (evicted ones included).
    pub fn span_total(&self, kind: SpanKind) -> Nanos {
        self.span_totals[kind.priority()]
    }

    /// Records one finished request. `events` are the resource intervals
    /// the request generated (read in place — the caller keeps its
    /// buffer); bounds are normalized so that `submit <= earliest <= end`
    /// and every event fits inside `[submit, end)` (the serialized host
    /// paths can backfill idle resources *before* the request's nominal
    /// submission horizon — the window is widened to cover them).
    ///
    /// # Panics
    ///
    /// Panics if an event's resource index is beyond the ring's packed
    /// 15-bit field, or `lpa` or `npages` beyond its 32-bit ones.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: ReqKind,
        lpa: Lpa,
        npages: u64,
        acked: bool,
        submit: Nanos,
        earliest: Nanos,
        end: Nanos,
        events: &[TraceEvent],
    ) -> RequestTrace<'_> {
        let id = self.first_id + self.heads.pushed();
        if self.heads.len() == self.capacity {
            let oldest = *self.heads.front().expect("a full ring has an oldest trace");
            self.events.release_front(oldest.events.len());
            self.heads.release_front(1);
            let gone = id - self.capacity as u64;
            while self.long.front().is_some_and(|l| l.0 <= gone) {
                self.long.pop_front();
            }
        }
        self.sweep.load(events.iter().filter(|e| e.end > e.start).map(LiveEvent::from));
        let (mut submit, mut earliest) = (submit, earliest.max(submit));
        let mut end = end.max(earliest);
        if let Some((first, last)) = self.sweep.link() {
            (submit, earliest, end) = (submit.min(first), earliest.min(first), end.max(last));
        }
        for s in unpack_segments(submit, self.sweep.run(submit, earliest, end)) {
            self.span_totals[s.kind.priority()] += s.dur();
        }
        let (live, long) = (&self.sweep.live, &mut self.long);
        let packed = live
            .iter()
            .zip(0..)
            .map(|(e, i)| PackedEvent::pack(e, || long.push_back((id, i, e.end))));
        let narrow = |v: u64| u32::try_from(v).expect("a traced request's pages fit 32 bits");
        let head = PackedHead {
            submit: submit.into(),
            earliest: earliest.into(),
            end: end.into(),
            events: self.events.push_iter(live.len(), packed),
            lpa: narrow(lpa),
            npages: narrow(npages),
            kind,
            acked,
        };
        self.heads.push(head);
        self.view(&head, id, Some(&self.sweep))
    }

    /// Records a shipped batch with [`TraceRecorder::record_packets`],
    /// each arena first keeping the batch's chunk as its spare if it has
    /// none, and empties the batch.
    pub(crate) fn record_batch(
        &mut self,
        mut anatomy: Option<&mut AnatomyRecorder>,
        batch: &mut TraceBatch,
    ) {
        batch.heads = self.heads.adopt(batch.heads.take());
        batch.chunk = self.events.adopt(batch.chunk.take());
        if let Some(a) = anatomy.as_deref_mut() {
            a.adopt(&mut batch.anatomy);
        }
        self.record_packets(anatomy, &batch.packets, &batch.events);
        batch.packets.clear();
        batch.events.clear();
    }

    /// Records finished requests in dispatch order, each one's events read
    /// in place from `events`, and feeds every resulting trace to the
    /// anatomy if one is attached: the one recording function, run inline
    /// or on the recorder thread of a scheduled call.
    pub(crate) fn record_packets(
        &mut self,
        mut anatomy: Option<&mut AnatomyRecorder>,
        packets: &[TracePacket],
        events: &[TraceEvent],
    ) {
        for p in packets {
            let (first, end) = p.events;
            let t = self.record(
                p.kind,
                p.lpa,
                p.npages,
                p.acked,
                p.submit,
                p.earliest,
                p.end,
                &events[first..end],
            );
            if let Some(a) = anatomy.as_deref_mut() {
                a.record(t, p.retry, p.req_idx);
            }
        }
    }

    /// Exports the retained traces as chrome://tracing trace-event JSON
    /// (load in `chrome://tracing` or [ui.perfetto.dev]). Process 0 holds
    /// the device resources (one thread per chip/channel, raw intervals);
    /// process 1 holds the host requests (one thread per request, the
    /// umbrella span plus its derived segments).
    ///
    /// [ui.perfetto.dev]: https://ui.perfetto.dev
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        push(meta_str(0, None, "process_name", "device"), &mut out);
        push(meta_str(1, None, "process_name", "host requests"), &mut out);
        let resources: BTreeSet<ResourceId> =
            self.traces().flat_map(|t| t.events().map(|e| e.resource)).collect();
        for r in &resources {
            push(meta_str(0, Some(r.tid()), "thread_name", &r.name()), &mut out);
        }
        for t in self.traces() {
            push(meta_str(1, Some(t.id), "thread_name", &format!("req {}", t.id)), &mut out);
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"lpa\":{},\"npages\":{},\"acked\":{},\
                     \"service_ns\":{}}}}}",
                    escape(&format!("{} lpa={}+{}", t.kind.label(), t.lpa, t.npages)),
                    micros(t.submit),
                    micros(t.e2e()),
                    t.id,
                    t.lpa,
                    t.npages,
                    t.acked,
                    t.service().0,
                ),
                &mut out,
            );
            for s in t.segments() {
                push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"segment\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"cause\":\"{}\"}}}}",
                        s.kind.label(),
                        micros(s.start),
                        micros(s.dur()),
                        t.id,
                        s.cause.label(),
                    ),
                    &mut out,
                );
            }
            for e in t.events() {
                push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"device\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"req\":{},\"cause\":\"{}\"}}}}",
                        e.kind.label(),
                        micros(e.start),
                        micros(e.end - e.start),
                        e.resource.tid(),
                        t.id,
                        e.cause.label(),
                    ),
                    &mut out,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn micros(t: Nanos) -> String {
    // Trace-event timestamps are microseconds; keep nanosecond precision
    // as a decimal fraction (exact: no float rounding).
    let us = t.0 / 1000;
    let rem = t.0 % 1000;
    if rem == 0 {
        format!("{us}")
    } else {
        format!("{us}.{rem:03}")
    }
}

fn meta_str(pid: u64, tid: Option<u64>, name: &str, value: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
        name,
        pid,
        tid.unwrap_or(0),
        escape(value)
    )
}

/// Partitions `[submit, end)` into classified segments: `[submit,
/// earliest)` is queue wait; each slice of `[earliest, end)` takes the
/// highest-priority event kind covering it, or `Wait` when no resource
/// was working for the request. On a kind tie the host-caused command
/// wins (time under the request's own command is service, not
/// interference, even if background work overlaps), then the later
/// event in issue order. Adjacent slices of equal kind and cause merge.
///
/// Events may be empty, inverted, outside the window (they cover nothing
/// there) or overlap on one resource. E events on R resources cost
/// O(E × R) at worst — R is a handful on a device — or, for hand-built
/// input only, O(E log E) when a resource's events are out of start order,
/// plus O(E × k) where up to k events overlap on one resource.
///
/// # Panics
///
/// Panics if `end < earliest` or a resource index needs more than 15 bits.
pub fn segment(submit: Nanos, earliest: Nanos, end: Nanos, events: &[TraceEvent]) -> Vec<Segment> {
    let mut sweep = Sweep::default();
    sweep.load(events.iter().filter(|e| e.end > e.start).map(LiveEvent::from));
    sweep.link();
    unpack_segments(submit.min(earliest), sweep.run(submit, earliest, end)).collect()
}

/// The segmenter (buffers recycled across requests), built on what the
/// device serialized. **Fact 1**: a request's events are a shuffle of at
/// most chips + channels sorted, disjoint runs, one per resource (every
/// resource is serial, `Resource::reserve` monotone): their start order
/// is a merge of the runs, and at any instant at most one event per
/// resource covers — the winner is a max over that handful, not a heap.
/// **Fact 3**: a wait ends where the next event in start order starts,
/// the request's next own command, which the anatomy blames it against
/// (fact 2 is the anatomy's, [`crate::anatomy`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Sweep {
    /// The request's live events, in issue order.
    live: Vec<LiveEvent>,
    /// Per dense resource, one plus its run's last event while merging.
    tail_of: Vec<u32>,
    /// Per run, its first event.
    heads: Vec<u32>,
    /// Per event, the next one of its run or [`NONE`].
    next: Vec<u32>,
    /// `(start, index)` in start order — while merging, that order so far,
    /// then the front (each run's next event, ascending).
    order: Vec<(Nanos, u32)>,
    /// The admitted events, `(end, key)`, the key `(priority, host-caused,
    /// index)` in one word; ended ones leave when the winner ends.
    active: Vec<(Nanos, u64)>,
    out: Vec<PackedSegment>,
}

/// The end of a run in [`Sweep::next`].
const NONE: u32 = u32::MAX;

/// Inserts `entry` into `front[from..]`, which is ascending.
fn enqueue(front: &mut Vec<(Nanos, u32)>, from: usize, entry: (Nanos, u32)) {
    let mut at = front.len();
    front.push(entry);
    while at > from && front[at - 1] > entry {
        front[at] = front[at - 1];
        at -= 1;
    }
    front[at] = entry;
}

/// Extends a timeline to `stop` with a slice of `kind` and `cause`.
fn extend(out: &mut Vec<PackedSegment>, (kind, cause): (SpanKind, OpCause), stop: Nanos) {
    match out.last_mut() {
        Some(last) if last.kind == kind && last.cause == cause => last.end = stop.into(),
        _ => out.push(PackedSegment { end: stop.into(), kind, cause, next: 0 }),
    }
}

/// Shifts per event the outright insertion into start order may spend
/// before [`Sweep::merge`] takes over: the middle of the flat region (2 to
/// 16) where replaying `observed_churn`'s traces is fastest (DESIGN.md §10).
const SHIFTS_PER_EVENT: usize = 8;

impl Sweep {
    /// Takes one request's live events, in issue order.
    fn load(&mut self, events: impl Iterator<Item = LiveEvent>) {
        self.live.clear();
        self.live.extend(events);
    }

    /// The loaded events.
    pub(crate) fn events(&self) -> &[LiveEvent] {
        &self.live
    }

    /// The last run's segments, tiling from `start`, each wait with the
    /// dense resource its request's next own command ran on — none for a
    /// wait that ends the window at `end`, as no event starts at or after
    /// it.
    pub(crate) fn blocked_segments(
        &self,
        start: Nanos,
        end: Nanos,
    ) -> impl Iterator<Item = (Segment, Option<u16>)> + '_ {
        unpack_segments(start, &self.out).zip(&self.out).map(move |(seg, packed)| {
            (seg, (seg.kind == SpanKind::Wait && seg.end < end).then_some(packed.next))
        })
    }

    /// Puts the loaded events into `order` by start, issue order on ties,
    /// and returns the earliest start and the latest end. Most requests are
    /// a handful of events, one or two per resource and nearly in order:
    /// each is inserted outright. Past [`SHIFTS_PER_EVENT`] shifts per
    /// event — a GC burst, hundreds of events shuffled from a few long runs
    /// — the runs are merged instead.
    fn link(&mut self) -> Option<(Nanos, Nanos)> {
        let events = &self.live;
        assert!(u32::try_from(events.len()).is_ok(), "the sweep carries 32-bit event indices");
        let order = &mut self.order;
        order.clear();
        let (mut budget, mut last) = (SHIFTS_PER_EVENT * events.len(), Nanos::ZERO);
        for (i, e) in (0..).zip(events) {
            last = last.max(e.end);
            let key = (e.start, i);
            let mut at = order.len();
            order.push(key);
            while at > 0 && budget > 0 && order[at - 1] > key {
                order[at] = order[at - 1];
                at -= 1;
                budget -= 1;
            }
            order[at] = key;
        }
        if budget == 0 && !events.is_empty() {
            self.merge();
        }
        self.order.first().map(|&(first, _)| (first, last))
    }

    /// Fact 1: links each resource's events into a run, in start order, and
    /// merges the runs into `order` through a front of one event per run —
    /// O(E × R) for R resources. Hand-built input with a run out of start
    /// order is sorted instead.
    fn merge(&mut self) {
        let Sweep { live, tail_of, heads, next, order, .. } = self;
        let events = &live[..];
        let key = |i: u32| (events[i as usize].start, i);
        heads.clear();
        next.clear();
        next.resize(events.len(), NONE);
        let mut sorted = true;
        for (i, e) in (0..).zip(events) {
            let dense = usize::from(e.resource);
            if dense >= tail_of.len() {
                tail_of.resize(dense + 1, 0);
            }
            match tail_of[dense].checked_sub(1) {
                Some(tail) => {
                    sorted &= key(tail) < key(i);
                    next[tail as usize] = i;
                }
                None => heads.push(i),
            }
            tail_of[dense] = i + 1;
        }
        for &head in heads.iter() {
            tail_of[usize::from(events[head as usize].resource)] = 0;
        }
        order.clear();
        if !sorted {
            order.extend((0..events.len() as u32).map(key));
            order.sort_unstable();
            return;
        }
        // `order[..k]` is in start order, the rest the front of one event
        // per run; taking an event puts the next of its run on it.
        order.extend(heads.iter().map(|&head| key(head)));
        order.sort_unstable();
        for k in 0..events.len() {
            let n = next[order[k].1 as usize];
            if n != NONE {
                enqueue(order, k + 1, key(n));
            }
            debug_assert!(k == 0 || order[k - 1] < order[k], "the merge yields start order");
        }
    }

    /// Walks the start order, admitting each event at its start. The timeline is
    /// written up to `at`; the winner holds it from there until it ends (the
    /// highest key still covering takes over) or a higher key of another
    /// label starts.
    fn run(&mut self, submit: Nanos, earliest: Nanos, end: Nanos) -> &[PackedSegment] {
        assert!(end >= earliest, "the service window ends before it starts");
        let Sweep { live, order, active, out, .. } = self;
        let events = &live[..];
        out.clear();
        active.clear();
        if earliest > submit {
            extend(out, (SpanKind::QueueWait, OpCause::Host), earliest);
        }
        // The winner as `(end, key)`; key 0, below every event's: none.
        let label = |w: u64| (events[w as u32 as usize].kind, events[w as u32 as usize].cause);
        let (mut top, mut at, mut k) = ((Nanos::ZERO, 0), earliest, 0);
        loop {
            // Past the last event: the window's end.
            let (first, i) = order.get(k).copied().unwrap_or((end, NONE));
            k += 1;
            let stop = first.min(end);
            while top.1 != 0 && top.0 < stop {
                if top.0 > at {
                    extend(out, label(top.1), top.0);
                    at = top.0;
                }
                // The highest key still covering, dropping what ended.
                top = (Nanos::ZERO, 0);
                active.retain(|&a| {
                    top = if a.1 > top.1 && a.0 > at { a } else { top };
                    a.0 > at
                });
            }
            if top.1 == 0 && at < stop {
                // Fact 3: an event starting inside a wait would cover it, so
                // the next one in start order ends it: the blocking command.
                extend(out, (SpanKind::Wait, OpCause::Host), stop);
                let wait = out.last_mut().expect("a wait was just written");
                wait.next = events.get(i as usize).map_or(0, |e| e.resource);
                at = stop;
            }
            if first >= end {
                break;
            }
            let e = &events[i as usize];
            let host = u64::from(e.cause == OpCause::Host);
            let key = (e.kind.priority() as u64 + 1) << 33 | host << 32 | u64::from(i);
            active.push((e.end, key));
            if key > top.1 {
                if top.1 != 0 && first > at && label(top.1) != (e.kind, e.cause) {
                    extend(out, label(top.1), first);
                    at = first;
                }
                top = (e.end, key);
            }
        }
        if top.1 != 0 && at < end {
            extend(out, label(top.1), end);
        }
        out
    }
}

/// Validates a chrome trace export against the checked-in schema (see
/// `tests/data/trace_schema.json`). The schema lists the required and
/// optional keys of the root object and of every trace event, their JSON
/// types, and the allowed `ph` phases; any drift — a missing field, a
/// type change, a new undeclared field — is an error naming the offender.
pub fn validate_chrome_trace(trace_json: &str, schema_json: &str) -> Result<(), String> {
    let schema = Json::parse(schema_json).map_err(|e| format!("schema unparsable: {e}"))?;
    let trace = Json::parse(trace_json).map_err(|e| format!("trace unparsable: {e}"))?;

    let field_types = |v: &Json, key: &str| -> Result<Vec<(String, String)>, String> {
        v.get(key)
            .and_then(Json::as_obj)
            .ok_or(format!("schema missing object '{key}'"))?
            .iter()
            .map(|(k, t)| {
                Ok((
                    k.clone(),
                    t.as_str()
                        .ok_or(format!("schema '{key}.{k}' must be a type name"))?
                        .to_string(),
                ))
            })
            .collect()
    };
    let root_required = field_types(&schema, "root_required")?;
    let event_required = field_types(&schema, "event_required")?;
    let event_optional = field_types(&schema, "event_optional")?;
    let ph_allowed: Vec<&str> = schema
        .get("ph_allowed")
        .and_then(Json::as_arr)
        .ok_or("schema missing array 'ph_allowed'")?
        .iter()
        .filter_map(Json::as_str)
        .collect();

    let check_fields = |obj: &Json,
                        required: &[(String, String)],
                        optional: &[(String, String)],
                        what: &str|
     -> Result<(), String> {
        let map = obj.as_obj().ok_or(format!("{what} is {}, not object", obj.type_name()))?;
        for (k, ty) in required {
            let v = map.get(k).ok_or(format!("{what} missing required '{k}'"))?;
            if v.type_name() != ty {
                return Err(format!("{what} '{k}' is {}, want {ty}", v.type_name()));
            }
        }
        for (k, v) in map {
            let declared = required
                .iter()
                .chain(optional.iter())
                .find(|(dk, _)| dk == k)
                .map(|(_, ty)| ty.as_str());
            match declared {
                None => return Err(format!("{what} has undeclared field '{k}'")),
                Some(ty) if v.type_name() != ty => {
                    return Err(format!("{what} '{k}' is {}, want {ty}", v.type_name()));
                }
                _ => {}
            }
        }
        Ok(())
    };

    check_fields(&trace, &root_required, &[], "trace root")?;
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    for (i, ev) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        check_fields(ev, &event_required, &event_optional, &what)?;
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if !ph_allowed.contains(&ph) {
            return Err(format!("{what} has unexpected ph '{ph}'"));
        }
        if ph == "X" && ev.get("dur").and_then(Json::as_num).is_none() {
            return Err(format!("{what} is a complete event without 'dur'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, res: ResourceId, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            kind,
            cause: OpCause::Host,
            resource: res,
            start: Nanos(start),
            end: Nanos(end),
        }
    }

    fn ev_caused(
        kind: SpanKind,
        cause: OpCause,
        res: ResourceId,
        start: u64,
        end: u64,
    ) -> TraceEvent {
        TraceEvent { kind, cause, resource: res, start: Nanos(start), end: Nanos(end) }
    }

    #[test]
    fn segments_tile_the_window_exactly() {
        let events = vec![
            ev(SpanKind::Xfer, ResourceId::Channel(0), 100, 140),
            ev(SpanKind::Program, ResourceId::Chip(0), 140, 840),
            // Overlapping GC read on another chip: array work dominates.
            ev(SpanKind::Read, ResourceId::Chip(1), 120, 180),
        ];
        let mut rec = TraceRecorder::new(8);
        let t = rec.record(ReqKind::Write, 7, 1, true, Nanos(40), Nanos(100), Nanos(900), &events);
        assert_eq!(t.e2e(), Nanos(860));
        assert_eq!(t.service(), Nanos(800));
        // The segments partition [submit, end) with no gaps or overlaps.
        let segments: Vec<Segment> = t.segments().collect();
        let mut cursor = t.submit;
        for s in &segments {
            assert_eq!(s.start, cursor, "gap before {s:?}");
            assert!(s.end > s.start);
            cursor = s.end;
        }
        assert_eq!(cursor, t.end);
        let total: u64 = t.segments().map(|s| s.dur().0).sum();
        assert_eq!(Nanos(total), t.e2e());
        // Classes: queue wait, transfer, then array work (read overlaps are
        // absorbed by priority), then the trailing wait.
        assert_eq!(
            segments[0],
            Segment {
                kind: SpanKind::QueueWait,
                cause: OpCause::Host,
                start: Nanos(40),
                end: Nanos(100)
            }
        );
        assert_eq!(segments[1].kind, SpanKind::Xfer);
        assert!(segments.iter().any(|s| s.kind == SpanKind::Program));
        assert_eq!(segments.last().unwrap().kind, SpanKind::Wait);
        assert_eq!(rec.span_total(SpanKind::QueueWait), Nanos(60));
    }

    #[test]
    fn window_widens_over_backfilled_events() {
        // A serialized-path read backfills an idle chip below the horizon:
        // its event starts before the nominal submit time.
        let events = vec![ev(SpanKind::Read, ResourceId::Chip(0), 500, 600)];
        let mut rec = TraceRecorder::new(2);
        let t = rec.record(ReqKind::Read, 0, 1, true, Nanos(800), Nanos(800), Nanos(800), &events);
        assert_eq!(t.submit, Nanos(500));
        assert_eq!(t.end, Nanos(800));
        let total: u64 = t.segments().map(|s| s.dur().0).sum();
        assert_eq!(Nanos(total), t.e2e());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = TraceRecorder::new(2);
        for i in 0..5u64 {
            rec.record(ReqKind::Write, i, 1, true, Nanos(0), Nanos(0), Nanos(10), &[]);
        }
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 3);
        let ids: Vec<u64> = rec.traces().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn chrome_export_round_trips_and_validates() {
        let mut rec = TraceRecorder::new(4);
        rec.record(
            ReqKind::Write,
            3,
            2,
            true,
            Nanos(0),
            Nanos(50),
            Nanos(1000),
            &[
                ev(SpanKind::Xfer, ResourceId::Channel(1), 50, 90),
                ev(SpanKind::Program, ResourceId::Chip(3), 90, 790),
            ],
        );
        let json = rec.to_chrome_json();
        let doc = Json::parse(&json).expect("export parses");
        assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        let x: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        // One umbrella + two segments (xfer, program — no trailing wait
        // because the window is widened... the umbrella ends at 1000 so a
        // wait segment exists) + two device events.
        assert!(x.len() >= 5);
        // Timestamps are microseconds with nanosecond fractions.
        let umbrella = x
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("request"))
            .expect("umbrella event");
        assert_eq!(umbrella.get("ts").and_then(Json::as_num), Some(0.0));
        assert_eq!(umbrella.get("dur").and_then(Json::as_num), Some(1.0));
        let schema = include_str!("../../../tests/data/trace_schema.json");
        validate_chrome_trace(&json, schema).expect("export matches schema");
    }

    #[test]
    fn schema_catches_drift() {
        let schema = include_str!("../../../tests/data/trace_schema.json");
        // Unknown event field.
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"sneaky":1}]}"#;
        assert!(validate_chrome_trace(bad, schema).unwrap_err().contains("sneaky"));
        // Missing required field.
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0}]}"#;
        assert!(validate_chrome_trace(bad, schema).unwrap_err().contains("tid"));
        // Wrong type.
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":7,"ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad, schema).unwrap_err().contains("name"));
        // Unknown phase.
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"x","ph":"B","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad, schema).unwrap_err().contains("ph"));
    }

    #[test]
    fn segments_carry_causes_and_host_wins_kind_ties() {
        let events = vec![
            // GC program alone, then overlapping with the host's own
            // program (same kind): the host command claims the overlap.
            ev_caused(SpanKind::Program, OpCause::Gc, ResourceId::Chip(1), 100, 300),
            ev_caused(SpanKind::Program, OpCause::Host, ResourceId::Chip(0), 200, 400),
            ev_caused(SpanKind::PLock, OpCause::Sanitize, ResourceId::Chip(0), 400, 500),
        ];
        let mut rec = TraceRecorder::new(4);
        let t = rec.record(ReqKind::Trim, 0, 1, true, Nanos(100), Nanos(100), Nanos(500), &events);
        let expect = [
            (SpanKind::Program, OpCause::Gc, 100, 200),
            (SpanKind::Program, OpCause::Host, 200, 400),
            (SpanKind::PLock, OpCause::Sanitize, 400, 500),
        ];
        assert_eq!(t.segments().len(), expect.len());
        for (s, &(kind, cause, a, b)) in t.segments().zip(expect.iter()) {
            assert_eq!((s.kind, s.cause, s.start, s.end), (kind, cause, Nanos(a), Nanos(b)));
        }
        // Same kind, different causes: slices must not merge.
        let json = rec.to_chrome_json();
        assert!(json.contains("\"cause\":\"gc\""));
        assert!(json.contains("\"cause\":\"sanitize\""));
    }

    #[test]
    fn insertion_and_merge_produce_one_start_order() {
        // Device-shaped runs (disjoint, in order per resource) shuffled
        // together, and hand-built ones (arbitrary starts, overlaps).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut step = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..400u32 {
            let (len, resources) = (step(300) as usize, 1 + step(12));
            let mut cursor = vec![0u64; resources as usize];
            let events: Vec<LiveEvent> = (0..len)
                .map(|_| {
                    let r = step(resources) as usize;
                    let start =
                        if case.is_multiple_of(2) { cursor[r] + step(50) } else { step(5_000) };
                    cursor[r] = start + 1 + step(100);
                    let res = if r.is_multiple_of(3) {
                        ResourceId::Channel(r)
                    } else {
                        ResourceId::Chip(r)
                    };
                    LiveEvent::from(&ev(SpanKind::Read, res, start, cursor[r]))
                })
                .collect();
            let mut sweep = Sweep::default();
            sweep.load(events.into_iter());
            sweep.link();
            let linked = sweep.order.clone();
            sweep.merge();
            assert_eq!(sweep.order, linked, "case {case}");
            assert!(linked.windows(2).all(|w| w[0] < w[1]), "case {case}: not in start order");
        }
    }

    #[test]
    fn span_kind_discriminants_are_their_priorities() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} is out of priority order");
        }
    }

    #[test]
    fn the_ring_stores_packed_forms() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        assert_eq!(std::mem::size_of::<LiveEvent>(), 24);
        assert_eq!(std::mem::size_of::<PackedEvent>(), 16);
        assert_eq!(std::mem::size_of::<Segment>(), 24);
        assert_eq!(std::mem::size_of::<PackedSegment>(), 12);
        assert_eq!(std::mem::size_of::<TraceHead>(), 56);
        assert_eq!(std::mem::size_of::<PackedHead>(), 48);
    }

    #[test]
    fn an_event_too_long_for_its_packed_duration_keeps_its_end() {
        let long = u64::from(u32::MAX);
        let events = [
            ev(SpanKind::Stall, ResourceId::Chip(0), 10, 10 + long),
            ev(SpanKind::Read, ResourceId::Chip(1), 20, 20 + long - 1),
            ev(SpanKind::Erase, ResourceId::Chip(0), 10 + long, 20 + 3 * long),
        ];
        let mut rec = TraceRecorder::new(2);
        let end = Nanos(30 + 3 * long);
        let recorded: Vec<Segment> = rec
            .record(ReqKind::Write, 1, 1, true, Nanos(0), Nanos(5), end, &events)
            .segments()
            .collect();
        assert_eq!(rec.long.len(), 2, "the stall and the erase keep their ends aside");
        let t = rec.traces().next().expect("one trace");
        assert!(t.events().eq(events), "every end reads back exactly");
        assert_eq!(t.segments().collect::<Vec<_>>(), recorded, "derived on read as recorded");
        rec.record(ReqKind::Read, 2, 1, true, end, end, end + Nanos(9), &events[1..2]);
        rec.record(ReqKind::Read, 3, 1, true, end, end, end + Nanos(9), &events[1..2]);
        assert!(rec.long.is_empty(), "evicting the trace drops its long ends");
    }

    #[test]
    fn micros_formats_exact_fractions() {
        assert_eq!(micros(Nanos(0)), "0");
        assert_eq!(micros(Nanos(1000)), "1");
        assert_eq!(micros(Nanos(1500)), "1.500");
        assert_eq!(micros(Nanos(123_456_789)), "123456.789");
    }
}
