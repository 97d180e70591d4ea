//! Observability-layer invariants, end to end through the public API.
//!
//! * **span accounting** — for every traced request, the derived segments
//!   tile `[submit, end)` exactly, so their durations sum to the recorded
//!   end-to-end latency, at queue depths 1, 8 and 32;
//! * **serial resources** — device-level trace events never overlap on
//!   one chip or one channel (they mirror real `Resource` reservations);
//! * **export** — the chrome trace-event JSON parses and validates
//!   against the checked-in schema, and tracing never changes simulated
//!   results;
//! * **read latency** — the histogram is populated on read-bearing
//!   workloads at qd 1 and qd 8 (the bug this PR fixes discarded it);
//! * **gauges** — a sanitizing policy holds live T_insecure at zero
//!   while the no-sanitization baseline accrues it;
//! * **segmenter** — the sweep-line `trace::segment` returns exactly what
//!   the quadratic rule and the sorted-bounds sweep it replaced return, on
//!   arbitrary event sets;
//! * **arena ring** — the chunked-arena `TraceRecorder` reads back, counts
//!   and exports exactly what the `Vec`-per-trace ring it replaced did,
//!   through ring wrap, oversized requests and multi-chunk eviction;
//! * **recorder thread** — a scheduled run records on a thread of its own:
//!   small rings evicting across many of its batches keep exactly the
//!   newest traces and rows, each equal to the same request's in a ring
//!   that keeps everything, and an observer's panic surfaces with its own
//!   message instead of hanging the run.

mod reference;

use evanesco::ftl::observer::{FtlObserver, ObserverEvent};
use evanesco::ftl::{OpCause, SanitizePolicy};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::anatomy::REQ_KINDS as KINDS;
use evanesco::ssd::trace::{segment, ReqKind, ResourceId, Segment, SpanKind, TraceEvent};
use evanesco::ssd::{
    validate_chrome_trace, AnatomyRecorder, Emulator, HostOp, SsdConfig, TraceRecorder,
};
use proptest::prelude::*;
use std::collections::HashMap;

const SCHEMA: &str = include_str!("data/trace_schema.json");

/// A deterministic mixed workload with plenty of reads and overwrites.
fn mixed_ops(logical: u64, n: usize) -> Vec<HostOp> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    (0..n)
        .map(|_| {
            let lpa = step() % (logical - 4);
            let npages = 1 + step() % 4;
            match step() % 8 {
                0..=3 => HostOp::Write { lpa, npages, secure: step() % 2 == 0 },
                4..=6 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

fn traced_run(qd: usize) -> Emulator {
    let cfg = SsdConfig::tiny_for_tests();
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    ssd.enable_gauges();
    ssd.enable_tracing(1 << 14);
    let ops = mixed_ops(ssd.logical_pages(), 400);
    ssd.run_scheduled(&ops, qd);
    ssd.flush_coalesced_locks();
    ssd
}

#[test]
fn spans_sum_to_e2e_at_every_queue_depth() {
    for qd in [1usize, 8, 32] {
        let ssd = traced_run(qd);
        let rec = ssd.trace().expect("tracing enabled");
        assert!(rec.recorded() > 0, "qd {qd}: nothing traced");
        for t in rec.traces() {
            let sum: u64 = t.segments().map(|s| s.dur().0).sum();
            assert_eq!(
                sum,
                t.e2e().0,
                "qd {qd}: request {} ({:?}) segments do not tile its window",
                t.id,
                t.kind
            );
            // Segments are contiguous and ordered, starting at submit.
            let mut cursor = t.submit;
            for s in t.segments() {
                assert_eq!(s.start, cursor, "qd {qd}: gap or overlap in request {}", t.id);
                assert!(s.end > s.start, "qd {qd}: empty segment in request {}", t.id);
                cursor = s.end;
            }
            assert_eq!(cursor, t.end, "qd {qd}: segments stop short in request {}", t.id);
        }
    }
}

#[test]
fn device_events_never_overlap_on_a_serial_resource() {
    let ssd = traced_run(8);
    let rec = ssd.trace().expect("tracing enabled");
    let mut by_resource: HashMap<ResourceId, Vec<(u64, u64)>> = HashMap::new();
    for t in rec.traces() {
        for e in t.events() {
            by_resource.entry(e.resource).or_default().push((e.start.0, e.end.0));
        }
    }
    assert!(!by_resource.is_empty(), "no device events recorded");
    for (res, mut windows) in by_resource {
        windows.sort_unstable();
        for w in windows.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "{}: [{}, {}) overlaps [{}, {})",
                res.name(),
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn chrome_export_validates_and_tracing_is_timing_neutral() {
    let cfg = SsdConfig::tiny_for_tests();
    let ops = mixed_ops(64, 300);

    let mut plain = Emulator::new(cfg, SanitizePolicy::evanesco());
    plain.run_scheduled(&ops, 8);
    // The disabled path's whole cost is one untaken branch per
    // reservation: a bare run must not collect events at all.
    assert!(plain.device().trace_events().is_empty(), "a bare run collected trace events");

    let mut traced = Emulator::new(cfg, SanitizePolicy::evanesco());
    traced.enable_gauges();
    traced.enable_tracing(1 << 14);
    traced.run_scheduled(&ops, 8);

    let (a, b) = (plain.result(), traced.result());
    assert_eq!(a.sim_time, b.sim_time, "tracing changed simulated time");
    assert_eq!(a.host_ops, b.host_ops);
    assert_eq!(a.ftl, b.ftl, "tracing changed FTL behaviour");

    let json = traced.take_trace().unwrap().to_chrome_json();
    validate_chrome_trace(&json, SCHEMA).expect("export matches the checked-in schema");
}

#[test]
fn read_latency_is_recorded_at_qd1_and_qd8() {
    for qd in [1usize, 8] {
        let cfg = SsdConfig::tiny_for_tests();
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        let logical = ssd.logical_pages();
        let mut ops = Vec::new();
        for l in (0..32).step_by(4) {
            ops.push(HostOp::Write { lpa: l % logical, npages: 4, secure: false });
        }
        for l in (0..32).step_by(2) {
            ops.push(HostOp::Read { lpa: l % logical, npages: 2 });
        }
        ssd.run_scheduled(&ops, qd);
        let reads = ssd.result().latency.read;
        assert!(reads.count() > 0, "qd {qd}: no read latency samples");
        assert!(reads.max().0 > 0, "qd {qd}: read latency all zero");
        assert!(
            reads.percentile(50.0) <= reads.percentile(99.0),
            "qd {qd}: percentiles not monotone"
        );
        // The scrape renders the same histogram.
        let scrape = ssd.prometheus_scrape();
        assert!(
            scrape.contains(&format!(
                "evanesco_latency_seconds_count{{op=\"read\"}} {}",
                reads.count()
            )),
            "scrape disagrees with the histogram:\n{scrape}"
        );
    }
}

#[test]
fn gauges_separate_sanitizing_from_baseline_policies() {
    let run = |policy: SanitizePolicy| {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), policy);
        ssd.enable_gauges();
        // Secure writes, then overwrite them all: every old version is a
        // deleted secured page until something sanitizes it.
        ssd.write(0, 16, true);
        ssd.write(0, 16, true);
        for l in 16..48 {
            ssd.write(l, 1, false);
        }
        ssd.gauges().unwrap().snapshot()
    };

    let secured = run(SanitizePolicy::evanesco());
    assert_eq!(secured.invalid_secured, 0, "evanesco leaves no recoverable versions");
    assert_eq!(secured.insecure_ticks, 0, "evanesco holds T_insecure at zero");
    assert!(secured.sanitized_immediately >= 16);

    let exposed = run(SanitizePolicy::none());
    assert!(exposed.invalid_secured > 0, "baseline leaves recoverable versions");
    assert!(exposed.insecure_ticks > 0, "baseline accrues insecure time");
    assert!(exposed.vaf > 0.0);
    assert!(exposed.t_insecure(1024) > secured.t_insecure(1024));
}

/// Rings of 100 on a qd-8 run of 3 000 requests: the recorder thread takes
/// them in batches of 256 finished requests, so eviction runs across more
/// than ten batches. What is retained is the newest 100 traces and rows,
/// each exactly what a ring holding the whole run keeps for that request.
#[test]
fn small_rings_evict_across_recorder_batches_like_whole_rings() {
    let ops = mixed_ops(SsdConfig::tiny_for_tests().ftl.logical_pages(), 3_000);
    let run = |capacity: usize| {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        ssd.enable_anatomy(capacity, 8);
        ssd.run_scheduled(&ops, 8);
        ssd
    };
    let (small, whole) = (run(100), run(1 << 14));
    let (ring, all) = (small.trace().expect("tracing"), whole.trace().expect("tracing"));
    let (rows, all_rows) = (small.anatomy().expect("anatomy"), whole.anatomy().expect("anatomy"));
    assert!(ring.recorded() > 10 * 256, "{} traces fill too few batches", ring.recorded());
    assert_eq!(ring.recorded(), ring.traces().count() as u64 + ring.dropped());
    assert_eq!(rows.recorded(), rows.rows().count() as u64 + rows.dropped());
    assert_eq!((all.dropped(), all_rows.dropped()), (0, 0), "the whole rings keep everything");
    assert_eq!(ring.recorded(), all.recorded());

    let ids: Vec<u64> = ring.traces().map(|t| t.id).collect();
    assert_eq!(ids, (ring.recorded() - 100..ring.recorded()).collect::<Vec<_>>());
    let whole_traces: Vec<_> = all.traces().collect();
    for t in ring.traces() {
        let w = whole_traces[t.id as usize];
        assert_eq!(
            (t.kind, t.lpa, t.npages, t.acked, t.submit, t.earliest, t.end),
            (w.kind, w.lpa, w.npages, w.acked, w.submit, w.earliest, w.end),
            "trace {}",
            t.id
        );
        assert!(t.events().eq(w.events()), "trace {}: events differ", t.id);
        assert!(t.segments().eq(w.segments()), "trace {}: segments differ", t.id);
    }

    assert_eq!(rows.rows().count(), 100);
    let whole_rows: Vec<_> = all_rows.rows().collect();
    for r in rows.rows() {
        let w = whole_rows[r.trace_id as usize];
        assert_eq!(
            (r.trace_id, r.req_idx, r.kind, r.lpa, r.npages, r.acked, r.submit, r.end, r.stages),
            (w.trace_id, w.req_idx, w.kind, w.lpa, w.npages, w.acked, w.submit, w.end, w.stages),
        );
        assert!(r.chain().eq(w.chain()), "row {}: chains differ", r.trace_id);
    }
}

/// An observer that panics on its `at`-th event.
struct GivesUp {
    seen: usize,
    at: usize,
}

impl FtlObserver for GivesUp {
    fn on_event(&mut self, _: ObserverEvent) {
        self.seen += 1;
        if self.seen == self.at {
            panic!("observer gave up at event {}", self.at);
        }
    }
}

/// A panic on the request path of a traced scheduled run — here the
/// observer's, thousands of events in, with batches already on the
/// recorder thread — reaches the caller with its own message: the thread
/// is let go, not waited on forever, and its scope does not replace the
/// payload with its own.
#[test]
fn an_observer_panic_in_a_traced_run_surfaces_with_its_own_message() {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_anatomy(64, 8);
    let ops = mixed_ops(ssd.logical_pages(), 3_000);
    let arrivals = vec![Nanos::ZERO; ops.len()];
    let mut observer = GivesUp { seen: 0, at: 4_000 };
    let attempt = std::panic::AssertUnwindSafe(|| {
        ssd.run_scheduled_open_loop(&mut observer, &ops, &arrivals, 8);
    });
    let panic = std::panic::catch_unwind(attempt).expect_err("the observer must panic");
    let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert_eq!(msg, "observer gave up at event 4000");
    assert_eq!(observer.seen, 4_000);
}

/// The segmentation rule as first written, kept as the reference: for
/// each elementary interval between sorted bounds, filter every event for
/// the ones whose raw bounds cover it and keep the *last* maximal one by
/// (kind priority, host-caused). O(E²) — a request carrying a GC victim
/// copy made tracing cost 15× the bare run.
fn quadratic_segment(
    submit: Nanos,
    earliest: Nanos,
    end: Nanos,
    events: &[TraceEvent],
) -> Vec<Segment> {
    let priority = |k: SpanKind| SpanKind::ALL.iter().position(|&x| x == k).unwrap();
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
    for e in events {
        bounds.push(e.start.clamp(earliest, end));
        bounds.push(e.end.clamp(earliest, end));
    }
    bounds.sort_unstable();
    bounds.dedup();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (kind, cause) = events
            .iter()
            .filter(|e| e.start <= a && e.end >= b)
            .map(|e| (e.kind, e.cause))
            .max_by_key(|&(k, c)| (priority(k), c == OpCause::Host))
            .unwrap_or((SpanKind::Wait, OpCause::Host));
        push(kind, cause, a, b);
    }
    out
}

/// An arbitrary request for the differential tests: `(submit, earliest,
/// end, events)`. Times fall on a coarse grid so bounds coincide
/// constantly: events ending exactly where a slice ends, equal starts,
/// and same-kind overlaps under different non-host causes (where only
/// the issue order decides). Events may be empty, inverted, straddle
/// either end of the window or lie wholly outside it, and `earliest` may
/// precede `submit`.
fn arbitrary_request(
    n: usize,
    seed: u64,
    grid: u64,
    kinds: usize,
) -> (Nanos, Nanos, Nanos, Vec<TraceEvent>) {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 32
    };
    const CAUSES: [OpCause; 4] = [OpCause::Host, OpCause::Gc, OpCause::Sanitize, OpCause::Retry];
    // The window sits inside a span three times as long, so about a
    // third of the events start before it and a third end after it.
    let span = 3 + (n as u64 + step() % 64) * (1 + step() % 4);
    let earliest = Nanos(grid * (span / 3));
    let end = Nanos(grid * (span / 3 + step() % (span / 3 + 1)));
    let submit = Nanos(grid * (step() % (span / 2 + 1)));
    let events = (0..n)
        .map(|_| {
            let start = grid * (step() % span);
            let len = match step() % 8 {
                0 => 0,
                1 => grid * (step() % span),
                _ => grid * (1 + step() % 6),
            };
            // One in sixteen is inverted (ends before it starts).
            let (start, stop) =
                if step() % 16 == 0 { (start + len, start) } else { (start, start + len) };
            TraceEvent {
                kind: SpanKind::ALL[(step() as usize) % kinds],
                cause: CAUSES[(step() % 4) as usize],
                resource: if step() % 2 == 0 {
                    ResourceId::Chip((step() % 8) as usize)
                } else {
                    ResourceId::Channel((step() % 2) as usize)
                },
                start: Nanos(start),
                end: Nanos(stop),
            }
        })
        .collect();
    (submit, earliest, end, events)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Differential test of the sweep against the quadratic reference and
    /// the sorted-bounds sweep.
    #[test]
    fn sweep_segmenter_matches_the_quadratic_reference(
        n in 0usize..1500,
        seed in 0u64..u64::MAX,
        grid in prop_oneof![Just(1u64), Just(7u64), Just(100u64)],
        kinds in 1usize..=10,
    ) {
        let (submit, earliest, end, events) = arbitrary_request(n, seed, grid, kinds);
        let got = segment(submit, earliest, end, &events);
        prop_assert_eq!(&got, &quadratic_segment(submit, earliest, end, &events));
        prop_assert_eq!(&got, &reference::sorted_bounds_segment(submit, earliest, end, &events));
        // And it is a timeline: contiguous from the earlier of submit and
        // earliest to end, no empty or unmerged slices.
        let mut cursor = submit.min(earliest);
        for (i, s) in got.iter().enumerate() {
            prop_assert_eq!(s.start, cursor);
            prop_assert!(s.end > s.start);
            prop_assert!(i == 0 || (got[i - 1].kind, got[i - 1].cause) != (s.kind, s.cause));
            cursor = s.end;
        }
        prop_assert_eq!(cursor, end.max(submit.min(earliest)));
    }

    /// Differential test of the arena ring against the `Vec`-per-trace
    /// ring: the same arbitrary requests (sizes from empty to a few
    /// hundred events) through both, at ring capacities from 1 up, for
    /// three capacities' worth of traffic.
    #[test]
    fn arena_ring_matches_the_vec_per_trace_ring(
        capacity in 1usize..9,
        seed in 0u64..u64::MAX,
        grid in prop_oneof![Just(1u64), Just(7u64), Just(100u64)],
        kinds in 1usize..=10,
    ) {
        let mut ring = TraceRecorder::new(capacity);
        let mut old = reference::RefTraceRecorder::new(capacity);
        for i in 0..3 * capacity as u64 + 1 {
            let salt = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let n = [0, 1, 7, 40, 300][(salt % 5) as usize];
            let (submit, earliest, end, events) = arbitrary_request(n, salt, grid, kinds);
            let kind = KINDS[(salt >> 8) as usize % KINDS.len()];
            let (lpa, npages, acked) = (salt >> 16 & 0xFFFF, 1 + (salt >> 32 & 7), salt >> 40 & 1 == 0);
            let want = old.record(kind, lpa, npages, acked, submit, earliest, end, events.clone());
            let got = ring.record(kind, lpa, npages, acked, submit, earliest, end, &events);
            prop_assert_eq!(&reference::RefTrace::of(got), want, "the view record returns");
        }
        reference::assert_same_ring(&ring, &old);
    }
}

/// A request of `n` back-to-back events starting at `at`, alternating
/// two chips, with a wait gap after every third.
fn plain_request(n: usize, at: u64) -> (Nanos, Vec<TraceEvent>) {
    let mut cursor = at;
    let events = (0..n)
        .map(|i| {
            let start = cursor + if i % 3 == 2 { 15 } else { 0 };
            cursor = start + 20 + (i as u64 % 7);
            TraceEvent {
                kind: if i % 4 == 0 { SpanKind::PLock } else { SpanKind::Program },
                cause: if i % 4 == 0 { OpCause::Sanitize } else { OpCause::Host },
                resource: ResourceId::Chip(i % 2),
                start: Nanos(start),
                end: Nanos(cursor),
            }
        })
        .collect();
    (Nanos(cursor), events)
}

/// Ring edge cases against the reference ring: capacity 1 and 2, requests
/// larger than an arena chunk (8 192 events) between small and empty
/// ones, and evictions that release several chunks at once — for three
/// capacities' worth of traffic, checking the whole ring after every
/// record.
#[test]
fn mixed_size_traces_read_back_exactly_through_ring_wrap() {
    // Events per request: a 20 000-event request is a chunk of its own;
    // the 5 000s pack one to a chunk, so evicting past the 20 000 and its
    // neighbors retires several chunks in one step.
    const SIZES: [usize; 12] = [3, 0, 20_000, 1, 5_000, 5_000, 5_000, 0, 9_000, 2, 12, 8_192];
    for capacity in [1usize, 2, 5] {
        let mut ring = TraceRecorder::new(capacity);
        let mut old = reference::RefTraceRecorder::new(capacity);
        let mut at = 0u64;
        for i in 0..3 * capacity.max(SIZES.len() / 3 + 1) {
            let (end, events) = plain_request(SIZES[i % SIZES.len()], at);
            let submit = Nanos(at);
            old.record(KINDS[i % 5], i as u64, 1, true, submit, submit, end, events.clone());
            ring.record(KINDS[i % 5], i as u64, 1, true, submit, submit, end, &events);
            reference::assert_same_ring(&ring, &old);
            at = end.0 + 100;
        }
        assert!(ring.dropped() >= 2 * capacity as u64, "capacity {capacity}: the ring must wrap");
    }
}

/// A GC-burst-shaped request — the shape the merge sweep was built for:
/// 1 200 events over 8 chips and 2 channels in issue order (copies hop
/// chip → channel → chip, every resource serial, so the events arrive far
/// out of start order), lock bursts starting on every chip at one
/// instant, zero-length and inverted events mixed in. `trace::segment`,
/// the ring and the anatomy must agree with the sort-and-heap sweep, the
/// `Vec`-per-trace ring and the hindsight blame.
#[test]
fn a_gc_burst_records_like_the_references() {
    let mut x = 0x6C8E_9CF5_7B2D_41A3u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    let event = |kind, cause, r: usize, [start, end]: [u64; 2]| TraceEvent {
        kind,
        cause,
        resource: if r < 8 { ResourceId::Chip(r) } else { ResourceId::Channel(r - 8) },
        start: Nanos(start),
        end: Nanos(end),
    };
    // `len` on resource `r` no earlier than `at`, as `Resource::reserve` hands it out.
    let reserve = |free: &mut [u64; 10], r: usize, at: u64, len: u64| {
        let start = free[r].max(at);
        free[r] = start + len;
        [start, start + len]
    };
    let (mut free, mut events) = ([0u64; 10], Vec::new());
    while events.len() < 1200 {
        if events.len() % 97 < 3 {
            // A lock burst: every chip starts a pLock at the same instant.
            let at = free[..8].iter().copied().max().expect("eight chips");
            for chip in 0..8 {
                let span = reserve(&mut free, chip, at, 100);
                events.push(event(SpanKind::PLock, OpCause::Sanitize, chip, span));
            }
        }
        let (src, channel, dst) =
            (step() as usize % 8, 8 + step() as usize % 2, step() as usize % 8);
        let read = reserve(&mut free, src, 0, 50 + step() % 20);
        let moved = reserve(&mut free, channel, read[1], 40);
        let programmed = reserve(&mut free, dst, moved[1], 700);
        for (kind, r, span) in [(SpanKind::Read, src, read), (SpanKind::Xfer, channel, moved)] {
            events.push(event(kind, OpCause::Gc, r, span));
        }
        events.push(event(SpanKind::Program, OpCause::Gc, dst, programmed));
        // Now and then an empty or an inverted one, anywhere.
        let t = step() % programmed[1];
        match step() % 9 {
            0 => events.push(event(SpanKind::Erase, OpCause::Gc, src, [t, t])),
            1 => events.push(event(SpanKind::Read, OpCause::Host, channel, [t + 9, t])),
            _ => {}
        }
    }
    let horizon = Nanos(free.iter().copied().max().expect("ten resources"));
    for (submit, earliest, end) in
        [(0, 0, horizon.0), (0, 5_000, horizon.0 + 100), (9_000, 4_000, horizon.0 / 2)]
    {
        let (submit, earliest, end) = (Nanos(submit), Nanos(earliest), Nanos(end));
        let want = reference::sorted_bounds_segment(submit, earliest, end, &events);
        assert_eq!(segment(submit, earliest, end, &events), want, "window [{submit:?}, {end:?})");
    }
    let (mut ring, mut old) = (TraceRecorder::new(2), reference::RefTraceRecorder::new(2));
    let (mut an, mut hindsight) = (AnatomyRecorder::new(2, 1), reference::LinearScan::default());
    let at = Nanos(0);
    an.record(ring.record(ReqKind::Write, 0, 1, true, at, at, horizon, &events), None, None);
    hindsight.record(old.record(ReqKind::Write, 0, 1, true, at, at, horizon, events), None);
    reference::assert_same_ring(&ring, &old);
    hindsight.finalize();
    hindsight.assert_matches(&an, 1);
}

/// The ring packs a resource into 16 bits; an index that does not fit is
/// refused by name, never truncated onto another chip.
#[test]
#[should_panic(expected = "chip 32768 is beyond the 15-bit resource index")]
fn a_resource_index_beyond_the_packed_field_is_rejected() {
    let event = TraceEvent {
        kind: SpanKind::Read,
        cause: OpCause::Host,
        resource: ResourceId::Chip(1 << 15),
        start: Nanos(0),
        end: Nanos(10),
    };
    TraceRecorder::new(4).record(
        ReqKind::Read,
        0,
        1,
        true,
        Nanos(0),
        Nanos(0),
        Nanos(10),
        &[event],
    );
}

/// The widest index that fits round-trips, chips and channels apart.
#[test]
fn the_widest_packed_resource_indices_round_trip() {
    let top = (1 << 15) - 1;
    let events: Vec<TraceEvent> = [ResourceId::Chip(top), ResourceId::Channel(top)]
        .into_iter()
        .map(|resource| TraceEvent {
            kind: SpanKind::Xfer,
            cause: OpCause::Host,
            resource,
            start: Nanos(0),
            end: Nanos(10),
        })
        .collect();
    let mut ring = TraceRecorder::new(1);
    let t = ring.record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(10), &events);
    assert_eq!(t.events().collect::<Vec<_>>(), events);
}

mod eviction {
    //! Ring-eviction invariants of the [`TraceRecorder`] itself, driven
    //! through its public `record` entry point: every recorded trace is
    //! either retained or counted as dropped, and the per-kind span-time
    //! aggregates accumulate at record time — so they are preserved
    //! exactly across ring wrap, no matter how small the ring.

    use evanesco::ftl::OpCause;
    use evanesco::nand::timing::Nanos;
    use evanesco::ssd::trace::{ReqKind, ResourceId, SpanKind, TraceEvent, TraceRecorder};
    use proptest::prelude::*;

    const KINDS: [ReqKind; 5] =
        [ReqKind::Write, ReqKind::Read, ReqKind::Trim, ReqKind::Recovery, ReqKind::Maintenance];
    const EVENT_KINDS: [SpanKind; 6] = [
        SpanKind::Xfer,
        SpanKind::Read,
        SpanKind::Program,
        SpanKind::PLock,
        SpanKind::BLock,
        SpanKind::Erase,
    ];
    const CAUSES: [OpCause; 4] = [OpCause::Host, OpCause::Gc, OpCause::Sanitize, OpCause::Retry];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn recorded_splits_into_retained_plus_dropped_and_span_totals_survive_wrap(
            capacity in 1usize..12,
            n in 1usize..100,
            seed in 0u64..u64::MAX,
        ) {
            let mut rec = TraceRecorder::new(capacity);
            let mut x = seed | 1;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> 32
            };
            // Expected aggregates, accumulated independently from each
            // trace's derived segments the moment it is recorded (i.e.
            // before any later eviction can touch it).
            let mut expect = std::collections::HashMap::new();
            for i in 0..n {
                let submit = Nanos(i as u64 * 10_000);
                let nev = (step() % 4) as usize;
                let mut t = submit.0 + 1 + step() % 500;
                let events: Vec<TraceEvent> = (0..nev)
                    .map(|_| {
                        let start = t;
                        t += 1 + step() % 400;
                        let ev = TraceEvent {
                            kind: EVENT_KINDS[(step() % 6) as usize],
                            cause: CAUSES[(step() % 4) as usize],
                            resource: if step() % 2 == 0 {
                                ResourceId::Chip((step() % 4) as usize)
                            } else {
                                ResourceId::Channel((step() % 2) as usize)
                            },
                            start: Nanos(start),
                            end: Nanos(t),
                        };
                        t += step() % 100; // maybe leave a wait gap
                        ev
                    })
                    .collect();
                let end = Nanos(t.max(submit.0 + 1 + step() % 200));
                let trace = rec.record(
                    KINDS[i % KINDS.len()],
                    (step() % 1024) as evanesco::ftl::Lpa,
                    1 + step() % 8,
                    step() % 2 == 0,
                    submit,
                    Nanos(submit.0 + step() % 50),
                    end,
                    &events,
                );
                for s in trace.segments() {
                    *expect.entry(s.kind).or_insert(Nanos::ZERO) += s.dur();
                }
            }

            let retained = rec.traces().count() as u64;
            prop_assert_eq!(rec.recorded(), n as u64);
            prop_assert_eq!(rec.recorded(), retained + rec.dropped());
            prop_assert_eq!(retained as usize, n.min(capacity));
            prop_assert_eq!(rec.dropped(), n.saturating_sub(capacity) as u64);
            // The ring keeps the most recent traces, in order.
            let ids: Vec<u64> = rec.traces().map(|t| t.id).collect();
            let first = (n - n.min(capacity)) as u64;
            prop_assert_eq!(ids, (first..n as u64).collect::<Vec<_>>());
            // Aggregates match the independent accumulation exactly,
            // even though most traces were evicted from the ring.
            for kind in SpanKind::ALL {
                prop_assert_eq!(
                    rec.span_total(kind),
                    expect.get(&kind).copied().unwrap_or(Nanos::ZERO),
                    "span_total({}) diverged across ring wrap",
                    kind.label()
                );
            }
        }
    }
}
