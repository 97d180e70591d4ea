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

use crate::arena::{Arena, PackedNanos, Span};
use crate::jsonlite::{escape, Json};
use evanesco_ftl::{Lpa, OpCause};
use evanesco_nand::timing::Nanos;
use std::collections::{BTreeSet, BinaryHeap};

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

/// A [`TraceEvent`] as the ring stores it: 20 bytes (40 unpacked), the
/// resource in its dense form.
#[derive(Debug, Clone, Copy)]
struct PackedEvent {
    start: PackedNanos,
    end: PackedNanos,
    kind: SpanKind,
    cause: OpCause,
    resource: u16,
}

impl PackedEvent {
    fn pack(e: &TraceEvent) -> Self {
        PackedEvent {
            start: e.start.into(),
            end: e.end.into(),
            kind: e.kind,
            cause: e.cause,
            resource: e.resource.dense(),
        }
    }

    fn unpack(&self) -> TraceEvent {
        TraceEvent {
            kind: self.kind,
            cause: self.cause,
            resource: ResourceId::from_dense(self.resource),
            start: self.start.into(),
            end: self.end.into(),
        }
    }
}

/// A [`Segment`] as the ring stores it: 12 bytes (24 unpacked).
/// Segments tile the request's window, so a segment starts where the
/// previous one ended (the first at the window's start).
#[derive(Debug, Clone, Copy)]
struct PackedSegment {
    end: PackedNanos,
    kind: SpanKind,
    cause: OpCause,
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
    events: Span,
    segments: Span,
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

/// One retained trace, borrowed from the ring: the [`TraceHead`] fields
/// (by deref) plus its events and derived segments, unpacked on the fly.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace<'a> {
    head: &'a TraceHead,
    events: &'a [PackedEvent],
    segments: &'a [PackedSegment],
}

impl std::ops::Deref for RequestTrace<'_> {
    type Target = TraceHead;

    fn deref(&self) -> &TraceHead {
        self.head
    }
}

impl<'a> RequestTrace<'a> {
    /// Raw resource intervals, in issue order (empty ones dropped).
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + Clone + 'a {
        self.events.iter().map(PackedEvent::unpack)
    }

    /// Derived timeline: tiles `[submit, end)` exactly, so segment
    /// durations sum to the end-to-end latency.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = Segment> + Clone + 'a {
        unpack_segments(self.head.submit, self.segments)
    }
}

/// Chunk sizes of the ring's three arenas, in elements (80, 160 and
/// 96 KiB): large enough that a chunk outlives hundreds of requests.
const HEAD_CHUNK: usize = 1024;
const EVENT_CHUNK: usize = 8192;
const SEGMENT_CHUNK: usize = 8192;

/// Bounded ring of finished request traces plus running aggregates.
///
/// The ring holds the most recent `capacity` traces; older ones are
/// evicted (counted in [`TraceRecorder::dropped`]) while the per-kind
/// span-time aggregates keep accumulating for every trace ever recorded.
/// Storage is three [`Arena`]s — headers, packed events, packed segments
/// — so recording allocates once per chunk, not per request, and evicting
/// the oldest trace releases its share of each.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    capacity: usize,
    heads: Arena<TraceHead>,
    events: Arena<PackedEvent>,
    segments: Arena<PackedSegment>,
    /// Total segment time per kind across all recorded traces (indexed by
    /// [`SpanKind::priority`] order).
    span_totals: [Nanos; SpanKind::ALL.len()],
    /// The segmenter's buffers, recycled across requests.
    sweep: Sweep,
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
            segments: Arena::new(SEGMENT_CHUNK),
            span_totals: [Nanos::ZERO; SpanKind::ALL.len()],
            sweep: Sweep::default(),
        }
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

    fn view<'a>(&'a self, head: &'a TraceHead) -> RequestTrace<'a> {
        RequestTrace {
            head,
            events: self.events.slice(head.events),
            segments: self.segments.slice(head.segments),
        }
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = RequestTrace<'_>> + Clone {
        self.heads.iter().map(|head| self.view(head))
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
    /// 15-bit field.
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
        let live = || events.iter().filter(|e| e.end > e.start);
        let mut earliest = earliest.max(submit);
        let mut submit = submit;
        let mut end = end.max(earliest);
        let mut n_live = 0;
        for e in live() {
            n_live += 1;
            submit = submit.min(e.start);
            earliest = earliest.min(e.start);
            end = end.max(e.end);
        }
        if self.heads.len() == self.capacity {
            let oldest = *self.heads.iter().next().expect("a full ring has an oldest trace");
            self.events.release_front(oldest.events.len());
            self.segments.release_front(oldest.segments.len());
            self.heads.release_front(1);
        }
        let segments = self.sweep.run(submit, earliest, end, events);
        for s in unpack_segments(submit, segments) {
            self.span_totals[s.kind.priority()] += s.dur();
        }
        let head = TraceHead {
            id: self.heads.pushed(),
            kind,
            lpa,
            npages,
            acked,
            submit,
            earliest,
            end,
            events: self.events.push_iter(n_live, live().map(PackedEvent::pack)),
            segments: self.segments.push_iter(segments.len(), segments.iter().copied()),
        };
        let at = self.heads.push(head);
        self.view(&self.heads.slice(at)[0])
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
/// One sweep, O(E log E) for E events. Events may be empty, inverted or
/// outside the window (they cover nothing there).
///
/// # Panics
///
/// Panics if `end < earliest`.
pub fn segment(submit: Nanos, earliest: Nanos, end: Nanos, events: &[TraceEvent]) -> Vec<Segment> {
    let mut sweep = Sweep::default();
    unpack_segments(submit.min(earliest), sweep.run(submit, earliest, end, events)).collect()
}

/// The sweep's working buffers.
#[derive(Debug, Clone, Default)]
struct Sweep {
    /// Event indices in start order (admission order).
    by_start: Vec<u32>,
    /// Admitted events keyed `(priority, host-caused, index)`, packed
    /// into one word, index lowest. Expiry is lazy: an ended event
    /// stays until it surfaces at the top.
    covering: BinaryHeap<u64>,
    out: Vec<PackedSegment>,
}

impl Sweep {
    /// Extends the timeline to `stop` with a slice of `kind` and `cause`.
    fn push(&mut self, kind: SpanKind, cause: OpCause, stop: Nanos) {
        match self.out.last_mut() {
            Some(last) if last.kind == kind && last.cause == cause => last.end = stop.into(),
            _ => self.out.push(PackedSegment { end: stop.into(), kind, cause }),
        }
    }

    /// The winner of a slice only changes where the covering event of
    /// highest key ends or where another event is admitted, so the sweep
    /// hops between those instants: nothing but the admission order is
    /// sorted, and that only when the events did not arrive in it. Each
    /// hop admits or expires at least one event — at most 2E + 1 hops of
    /// O(log E) heap work.
    fn run(
        &mut self,
        submit: Nanos,
        earliest: Nanos,
        end: Nanos,
        events: &[TraceEvent],
    ) -> &[PackedSegment] {
        assert!(end >= earliest, "the service window ends before it starts");
        assert!(u32::try_from(events.len()).is_ok(), "heap keys carry 32-bit event indices");
        self.out.clear();
        self.by_start.clear();
        self.covering.clear();
        if earliest > submit {
            self.push(SpanKind::QueueWait, OpCause::Host, earliest);
        }
        let mut in_order = true;
        let mut latest = Nanos::ZERO;
        for (i, e) in events.iter().enumerate() {
            if e.end > e.start {
                in_order &= e.start >= latest;
                latest = e.start;
                self.by_start.push(i as u32);
            }
        }
        if !in_order {
            self.by_start.sort_unstable_by_key(|&i| events[i as usize].start);
        }
        let mut admitted = 0;
        let mut at = earliest;
        while at < end {
            while let Some(&i) = self.by_start.get(admitted) {
                let e = &events[i as usize];
                if e.start > at {
                    break;
                }
                let host = u64::from(e.cause == OpCause::Host);
                self.covering.push((e.kind.priority() as u64) << 33 | host << 32 | u64::from(i));
                admitted += 1;
            }
            // The low word of a key is the event's index. Slices only
            // move right, so an event that ended covers no later one.
            while self.covering.peek().is_some_and(|&k| events[k as u32 as usize].end <= at) {
                self.covering.pop();
            }
            let next_start =
                self.by_start.get(admitted).map_or(end, |&i| events[i as usize].start.min(end));
            let (kind, cause, stop) = match self.covering.peek() {
                Some(&k) => {
                    let e = &events[k as u32 as usize];
                    (e.kind, e.cause, e.end.min(next_start))
                }
                None => (SpanKind::Wait, OpCause::Host, next_start),
            };
            self.push(kind, cause, stop);
            at = stop;
        }
        &self.out
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
                        closed: bool,
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
                None if closed => return Err(format!("{what} has undeclared field '{k}'")),
                Some(ty) if v.type_name() != ty => {
                    return Err(format!("{what} '{k}' is {}, want {ty}", v.type_name()));
                }
                _ => {}
            }
        }
        Ok(())
    };

    check_fields(&trace, &root_required, &[], true, "trace root")?;
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    for (i, ev) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        check_fields(ev, &event_required, &event_optional, true, &what)?;
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
    fn span_kind_discriminants_are_their_priorities() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} is out of priority order");
        }
    }

    #[test]
    fn the_ring_stores_packed_forms() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        assert_eq!(std::mem::size_of::<PackedEvent>(), 20);
        assert_eq!(std::mem::size_of::<Segment>(), 24);
        assert_eq!(std::mem::size_of::<PackedSegment>(), 12);
        assert_eq!(std::mem::size_of::<TraceHead>(), 80);
    }

    #[test]
    fn micros_formats_exact_fractions() {
        assert_eq!(micros(Nanos(0)), "0");
        assert_eq!(micros(Nanos(1000)), "1");
        assert_eq!(micros(Nanos(1500)), "1.500");
        assert_eq!(micros(Nanos(123_456_789)), "123456.789");
    }
}
