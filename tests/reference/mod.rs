//! The observer implementations the arena-backed recorders replaced,
//! kept as test references: the `Vec`-per-trace trace ring with its
//! sort-and-heap sweep, and the linear-scan blame rules with full
//! hindsight (every row resolved at the end of the run, against an
//! occupancy timeline that forgets nothing).
//!
//! `trace_invariants` and `anatomy_invariants` drive these and the real
//! recorders with the same inputs and require equal output.
#![allow(dead_code)]

use evanesco::ftl::{Lpa, OpCause};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::anatomy::{interference_of, ChainLink, Stage};
use evanesco::ssd::trace::{ReqKind, ResourceId, Segment, SpanKind, TraceEvent};
use evanesco::ssd::{AnatomyRecorder, RequestAnatomy, RequestTrace, TraceRecorder};
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

/// The recorders' two private bounds, restated.
pub const OCC_CAP: usize = 4096;
pub const CHAIN_CAP: usize = 64;

fn priority(kind: SpanKind) -> usize {
    SpanKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// The sweep as PR 16 wrote it: sort and deduplicate every clamped event
/// bound, walk the elementary slices, admit by start order into a
/// max-heap with lazy expiry.
pub fn sorted_bounds_segment(
    submit: Nanos,
    earliest: Nanos,
    end: Nanos,
    events: &[TraceEvent],
) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    let mut push = |kind: SpanKind, cause: OpCause, start: Nanos, stop: Nanos| {
        if stop <= start {
            return;
        }
        if let Some(last) = out.last_mut() {
            if last.kind == kind && last.cause == cause && last.end == start {
                last.end = stop;
                return;
            }
        }
        out.push(Segment { kind, cause, start, end: stop });
    };
    push(SpanKind::QueueWait, OpCause::Host, submit, earliest);
    let mut bounds = vec![earliest, end];
    let mut by_start: Vec<u32> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.end > e.start {
            bounds.extend([e.start.clamp(earliest, end), e.end.clamp(earliest, end)]);
            by_start.push(i as u32);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    by_start.sort_unstable_by_key(|&i| events[i as usize].start);
    let mut covering: BinaryHeap<u64> = BinaryHeap::new();
    let mut admitted = 0;
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        while let Some(&i) = by_start.get(admitted) {
            let e = &events[i as usize];
            if e.start > a {
                break;
            }
            let host = u64::from(e.cause == OpCause::Host);
            covering.push((priority(e.kind) as u64) << 33 | host << 32 | u64::from(i));
            admitted += 1;
        }
        while covering.peek().is_some_and(|&k| events[k as u32 as usize].end < b) {
            covering.pop();
        }
        let (kind, cause) = covering.peek().map_or((SpanKind::Wait, OpCause::Host), |&k| {
            let e = &events[k as u32 as usize];
            (e.kind, e.cause)
        });
        push(kind, cause, a, b);
    }
    out
}

/// One traced request, owned (what the ring used to hold per trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTrace {
    pub id: u64,
    pub kind: ReqKind,
    pub lpa: Lpa,
    pub npages: u64,
    pub acked: bool,
    pub submit: Nanos,
    pub earliest: Nanos,
    pub end: Nanos,
    pub events: Vec<TraceEvent>,
    pub segments: Vec<Segment>,
}

impl RefTrace {
    /// An owned copy of a ring view.
    pub fn of(t: RequestTrace<'_>) -> Self {
        RefTrace {
            id: t.id,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            earliest: t.earliest,
            end: t.end,
            events: t.events().collect(),
            segments: t.segments().collect(),
        }
    }

    pub fn e2e(&self) -> Nanos {
        self.end - self.submit
    }

    /// Records this trace's raw inputs into `rec`.
    pub fn record_into<'a>(&self, rec: &'a mut TraceRecorder) -> RequestTrace<'a> {
        rec.record(
            self.kind,
            self.lpa,
            self.npages,
            self.acked,
            self.submit,
            self.earliest,
            self.end,
            &self.events,
        )
    }
}

/// The trace ring as it was: a `VecDeque` of owned traces, each with its
/// own two `Vec`s.
pub struct RefTraceRecorder {
    capacity: usize,
    ring: VecDeque<RefTrace>,
    pub recorded: u64,
    pub dropped: u64,
    span_totals: [Nanos; SpanKind::ALL.len()],
}

impl RefTraceRecorder {
    pub fn new(capacity: usize) -> Self {
        RefTraceRecorder {
            capacity,
            ring: VecDeque::new(),
            recorded: 0,
            dropped: 0,
            span_totals: [Nanos::ZERO; SpanKind::ALL.len()],
        }
    }

    pub fn traces(&self) -> impl Iterator<Item = &RefTrace> {
        self.ring.iter()
    }

    pub fn span_total(&self, kind: SpanKind) -> Nanos {
        self.span_totals[priority(kind)]
    }

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
        mut events: Vec<TraceEvent>,
    ) -> &RefTrace {
        events.retain(|e| e.end > e.start);
        let mut earliest = earliest.max(submit);
        let mut submit = submit;
        let mut end = end.max(earliest);
        for e in &events {
            submit = submit.min(e.start);
            earliest = earliest.min(e.start);
            end = end.max(e.end);
        }
        let segments = sorted_bounds_segment(submit, earliest, end, &events);
        for s in &segments {
            self.span_totals[priority(s.kind)] += s.dur();
        }
        let id = self.recorded;
        self.recorded += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(RefTrace {
            id,
            kind,
            lpa,
            npages,
            acked,
            submit,
            earliest,
            end,
            events,
            segments,
        });
        self.ring.back().expect("just pushed")
    }

    pub fn to_chrome_json(&self) -> String {
        fn micros(t: Nanos) -> String {
            let (us, rem) = (t.0 / 1000, t.0 % 1000);
            if rem == 0 {
                format!("{us}")
            } else {
                format!("{us}.{rem:03}")
            }
        }
        fn meta(pid: u64, tid: u64, name: &str, value: &str) -> String {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{value}\"}}}}"
            )
        }
        let tid = |r: ResourceId| match r {
            ResourceId::Chip(i) => i as u64,
            ResourceId::Channel(c) => 1000 + c as u64,
        };
        let mut lines =
            vec![meta(0, 0, "process_name", "device"), meta(1, 0, "process_name", "host requests")];
        let resources: BTreeSet<ResourceId> =
            self.ring.iter().flat_map(|t| t.events.iter().map(|e| e.resource)).collect();
        for r in resources {
            lines.push(meta(0, tid(r), "thread_name", &r.name()));
        }
        for t in &self.ring {
            lines.push(meta(1, t.id, "thread_name", &format!("req {}", t.id)));
            lines.push(format!(
                "{{\"name\":\"{} lpa={}+{}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"lpa\":{},\"npages\":{},\
                 \"acked\":{},\"service_ns\":{}}}}}",
                t.kind.label(),
                t.lpa,
                t.npages,
                micros(t.submit),
                micros(t.e2e()),
                t.id,
                t.lpa,
                t.npages,
                t.acked,
                (t.end - t.earliest).0,
            ));
            for s in &t.segments {
                lines.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"segment\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"cause\":\"{}\"}}}}",
                    s.kind.label(),
                    micros(s.start),
                    micros(s.dur()),
                    t.id,
                    s.cause.label(),
                ));
            }
            for e in &t.events {
                lines.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"device\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{},\"args\":{{\"req\":{},\"cause\":\"{}\"}}}}",
                    e.kind.label(),
                    micros(e.start),
                    micros(e.end - e.start),
                    tid(e.resource),
                    t.id,
                    e.cause.label(),
                ));
            }
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
    }
}

/// Asserts the arena ring holds exactly what the `Vec`-per-trace ring
/// holds: counters, span totals, every retained trace, the export.
pub fn assert_same_ring(got: &TraceRecorder, want: &RefTraceRecorder) {
    assert_eq!(got.recorded(), want.recorded, "recorded");
    assert_eq!(got.dropped(), want.dropped, "dropped");
    assert_eq!(got.recorded(), got.traces().count() as u64 + got.dropped(), "ring contract");
    for kind in SpanKind::ALL {
        assert_eq!(got.span_total(kind), want.span_total(kind), "span_total({})", kind.label());
    }
    assert_eq!(got.traces().count(), want.traces().count(), "retained");
    for (g, w) in got.traces().zip(want.traces()) {
        assert_eq!(&RefTrace::of(g), w, "trace {} reads back differently", w.id);
    }
    assert_eq!(got.to_chrome_json(), want.to_chrome_json(), "chrome export");
}

/// One resolved row, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRow {
    pub trace_id: u64,
    pub kind: ReqKind,
    pub lpa: Lpa,
    pub npages: u64,
    pub acked: bool,
    pub submit: Nanos,
    pub end: Nanos,
    pub stages: [Nanos; Stage::COUNT],
    pub chain: Vec<ChainLink>,
}

impl RefRow {
    /// An owned copy of a recorder row (the op-list join index dropped:
    /// the reference never sees it).
    pub fn of(r: RequestAnatomy<'_>) -> Self {
        RefRow {
            trace_id: r.trace_id,
            kind: r.kind,
            lpa: r.lpa,
            npages: r.npages,
            acked: r.acked,
            submit: r.submit,
            end: r.end,
            stages: r.stages,
            chain: r.chain().collect(),
        }
    }

    pub fn e2e(&self) -> Nanos {
        self.end - self.submit
    }
}

/// An unblamed wait: `[start, end)` and the blocking resource, if any.
type Wait = (Nanos, Nanos, Option<ResourceId>);

/// The blame rules as first written, with full hindsight: a wait's
/// blocking resource is found by filtering every event of the trace, its
/// blame by scanning every slot its resource ever held, and no row is
/// resolved before [`LinearScan::finalize`] — so every command of the
/// run, recorded before or after the row, is there to be blamed.
#[derive(Default)]
pub struct LinearScan {
    pending: Vec<(RefRow, Vec<Wait>)>,
    occupancy: HashMap<ResourceId, Vec<(TraceEvent, Stage)>>,
    pub resolved: Vec<RefRow>,
}

impl LinearScan {
    pub fn record(&mut self, t: &RefTrace, retry: Option<(Nanos, Nanos)>) {
        let mut stages = [Nanos::ZERO; Stage::COUNT];
        let mut chain = Vec::new();
        let mut waits = Vec::new();
        let own = |stage, kind, cause, start, end| ChainLink {
            stage,
            kind,
            cause,
            resource: None,
            start,
            end,
            own: true,
        };
        for seg in &t.segments {
            if matches!(seg.kind, SpanKind::QueueWait | SpanKind::Wait) {
                let (rs, re) = match retry {
                    Some((rs, re)) => (rs.clamp(seg.start, seg.end), re.clamp(seg.start, seg.end)),
                    None => (seg.start, seg.start),
                };
                if re > rs {
                    stages[Stage::RetryInterference.idx()] += re - rs;
                    chain.push(own(Stage::RetryInterference, seg.kind, OpCause::Retry, rs, re));
                }
                for (a, b) in [(seg.start, rs), (re.max(rs), seg.end)] {
                    if b <= a {
                        continue;
                    }
                    if seg.kind == SpanKind::QueueWait {
                        stages[Stage::QueueWait.idx()] += b - a;
                    } else {
                        stages[Stage::DispatchStall.idx()] += b - a;
                        let next = t.events.iter().filter(|e| e.start >= b).min_by_key(|e| e.start);
                        waits.push((a, b, next.map(|e| e.resource)));
                    }
                }
            } else if let Some(stage) = interference_of(seg.kind, seg.cause) {
                stages[stage.idx()] += seg.dur();
                chain.push(own(stage, seg.kind, seg.cause, seg.start, seg.end));
            } else if seg.kind == SpanKind::Xfer {
                stages[Stage::Xfer.idx()] += seg.dur();
            } else {
                stages[Stage::ChipService.idx()] += seg.dur();
            }
        }
        for e in &t.events {
            if let Some(stage) = interference_of(e.kind, e.cause) {
                self.occupancy.entry(e.resource).or_default().push((*e, stage));
            }
        }
        let row = RefRow {
            trace_id: t.id,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            end: t.end,
            stages,
            chain,
        };
        self.pending.push((row, waits));
    }

    pub fn finalize(&mut self) {
        for (mut row, waits) in std::mem::take(&mut self.pending) {
            for (start, end, res) in waits {
                let Some(slots) = res.and_then(|r| self.occupancy.get(&r)) else { continue };
                for (slot, stage) in slots {
                    let (a, b) = (slot.start.max(start), slot.end.min(end));
                    if b <= a {
                        continue;
                    }
                    row.stages[Stage::DispatchStall.idx()] =
                        row.stages[Stage::DispatchStall.idx()] - (b - a);
                    row.stages[stage.idx()] += b - a;
                    row.chain.push(ChainLink {
                        stage: *stage,
                        kind: slot.kind,
                        cause: slot.cause,
                        resource: res,
                        start: a,
                        end: b,
                        own: false,
                    });
                }
            }
            row.chain.sort_by_key(|l| (l.start, l.end, l.stage.idx()));
            if row.chain.len() > CHAIN_CAP {
                let mut by_dur: Vec<usize> = (0..row.chain.len()).collect();
                by_dur.sort_by_key(|&i| (std::cmp::Reverse(row.chain[i].dur()), i));
                by_dur.truncate(CHAIN_CAP);
                by_dur.sort_unstable();
                row.chain = by_dur.into_iter().map(|i| row.chain[i]).collect();
            }
            self.resolved.push(row);
        }
    }

    /// Occupancy slots a recorder bounded at `OCC_CAP` per resource has
    /// evicted by now.
    pub fn occupancy_overflow(&self) -> u64 {
        self.occupancy.values().map(|slots| slots.len().saturating_sub(OCC_CAP) as u64).sum()
    }

    /// Asserts `an` holds exactly this (finalized) reference's outcome:
    /// the rows its ring still retains — chains in order, capped alike —
    /// every kind × stage total, drop counts and the top-K digest.
    pub fn assert_matches(&self, an: &AnatomyRecorder, top_k: usize) {
        assert_eq!(an.recorded(), self.resolved.len() as u64, "recorded");
        let retained = an.rows().count();
        assert_eq!(an.recorded(), retained as u64 + an.dropped(), "ring contract");
        assert_eq!(retained, self.resolved.len().min(an.capacity()), "retained");
        assert_eq!(an.occupancy_dropped(), self.occupancy_overflow(), "occupancy eviction count");
        let kept = &self.resolved[self.resolved.len() - retained..];
        for (got, want) in an.rows().zip(kept) {
            assert_eq!(got.stage_sum(), got.e2e(), "row {} does not tile", got.trace_id);
            assert_eq!(&RefRow::of(got), want, "row {} differs from hindsight", want.trace_id);
        }
        for kind in evanesco::ssd::anatomy::REQ_KINDS {
            for stage in Stage::ALL {
                let want: u64 = self
                    .resolved
                    .iter()
                    .filter(|r| r.kind == kind)
                    .map(|r| r.stages[stage.idx()].0)
                    .sum();
                assert_eq!(an.stage_total(kind, stage).0, want, "{kind:?} x {stage:?} total");
            }
        }
        let mut top: Vec<&RefRow> = self.resolved.iter().collect();
        top.sort_by_key(|r| (std::cmp::Reverse(r.e2e()), r.trace_id));
        top.truncate(top_k);
        let got: Vec<RefRow> = an.top().map(RefRow::of).collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), top, "top-K digest");
    }
}
