//! Latency-anatomy invariants, end to end through the public API.
//!
//! * **stage tiling** — for every anatomy row, the eight per-stage
//!   durations sum *exactly* (integer nanoseconds) to the request's
//!   end-to-end latency, at queue depths 1, 8 and 32, over arbitrary
//!   mixed workloads;
//! * **accounting** — `recorded == retained + dropped` on the anatomy
//!   ring, and the per-kind×stage aggregate totals equal the sums over
//!   the retained rows when nothing was evicted;
//! * **timing neutrality** — enabling the anatomy layer changes no
//!   simulated result: host results, completion times, submission
//!   times, and simulated end time are identical with the layer on and
//!   off (it only *observes* the trace stream);
//! * **blame** — interference stages only ever carry time that some
//!   segment of the request's window actually covered (they are a
//!   reclassification of wait/service time, never invented time);
//! * **indexed blame** — the binary-searched occupancy rings and the
//!   one-pass blocking-resource lookup produce exactly the rows of the
//!   linear scans they replaced, through ring eviction, inline
//!   resolution and a power cut; and a 100 000-event request stays cheap.

use evanesco::ftl::{OpCause, SanitizePolicy};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::anatomy::{interference_of, ChainLink, REQ_KINDS};
use evanesco::ssd::trace::{ReqKind, ResourceId, SpanKind, TraceEvent, TraceRecorder};
use evanesco::ssd::{
    AnatomyRecorder, Emulator, HostOp, RequestAnatomy, RequestTrace, SsdConfig, Stage,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// A deterministic mixed workload from one seed: secure and insecure
/// writes, reads, and trims over a small clustered address range.
fn mixed_ops(logical: u64, n: usize, seed: u64) -> Vec<HostOp> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    (0..n)
        .map(|_| {
            let npages = 1 + step() % 6;
            let lpa = step() % (logical - npages);
            match step() % 10 {
                0..=4 => HostOp::Write { lpa, npages, secure: step() % 3 != 0 },
                5..=7 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

fn anatomy_run(ops: &[HostOp], qd: usize) -> (Emulator, evanesco::ssd::AnatomyRecorder) {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_anatomy(ops.len(), 8);
    ssd.run_scheduled(ops, qd);
    let an = ssd.take_anatomy().expect("anatomy enabled");
    (ssd, an)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The tiling identity: stage sums equal end-to-end latency exactly,
    /// for every request, at serialized, moderate, and deep queue depths.
    #[test]
    fn stage_sums_tile_e2e_exactly_at_every_queue_depth(
        seed in 1u64..u64::MAX,
        n in 60usize..160,
    ) {
        let logical = SsdConfig::tiny_for_tests().ftl.logical_pages();
        let ops = mixed_ops(logical, n, seed);
        for qd in [1usize, 8, 32] {
            let (_ssd, an) = anatomy_run(&ops, qd);
            let retained = an.rows().count() as u64;
            prop_assert!(retained > 0, "qd {}: no anatomy rows", qd);
            prop_assert_eq!(an.recorded(), retained + an.dropped());
            for row in an.rows() {
                prop_assert_eq!(
                    row.stage_sum().0,
                    row.e2e().0,
                    "qd {}: request {} ({:?}) stages do not tile its window",
                    qd, row.trace_id, row.kind
                );
                // Interference is a reclassification, never new time.
                prop_assert!(row.interference() <= row.e2e());
            }
            // With a ring sized to the op count nothing was evicted, so
            // the aggregate totals must equal the per-row sums.
            for kind in REQ_KINDS {
                for stage in Stage::ALL {
                    let total: u64 = an
                        .rows()
                        .filter(|r| r.kind == kind)
                        .map(|r| r.stage(stage).0)
                        .sum();
                    prop_assert_eq!(an.stage_total(kind, stage).0, total);
                }
            }
        }
    }

    /// Timing neutrality: the anatomy layer observes the run without
    /// perturbing it — every simulated output is byte-identical.
    #[test]
    fn anatomy_is_timing_neutral(
        seed in 1u64..u64::MAX,
        n in 60usize..160,
        qd in prop_oneof![Just(1usize), Just(8usize), Just(32usize)],
    ) {
        let logical = SsdConfig::tiny_for_tests().ftl.logical_pages();
        let ops = mixed_ops(logical, n, seed);

        let mut plain = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        let off = plain.run_scheduled(&ops, qd);

        let mut observed = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        observed.enable_anatomy(ops.len(), 8);
        let on = observed.run_scheduled(&ops, qd);

        prop_assert_eq!(&off.results, &on.results, "host results moved");
        prop_assert_eq!(&off.completions, &on.completions, "completion times moved");
        prop_assert_eq!(&off.submits, &on.submits, "submission times moved");
        prop_assert_eq!(off.sim_time, on.sim_time, "simulated end time moved");
        let (a, b) = (plain.result(), observed.result());
        prop_assert_eq!(a.host_ops, b.host_ops);
        prop_assert_eq!(a.ftl, b.ftl, "anatomy changed FTL behaviour");
    }
}

/// The top-K digest is deterministic and ordered slowest-first, and its
/// causal chains stay within each request's window.
#[test]
fn top_k_is_ordered_and_chains_stay_in_window() {
    let logical = SsdConfig::tiny_for_tests().ftl.logical_pages();
    let ops = mixed_ops(logical, 300, 0x5EED);
    let (_ssd, an) = anatomy_run(&ops, 8);
    let top = an.top();
    assert!(!top.is_empty());
    for pair in top.windows(2) {
        assert!(
            pair[0].e2e() > pair[1].e2e()
                || (pair[0].e2e() == pair[1].e2e() && pair[0].trace_id < pair[1].trace_id),
            "top-K not ordered slowest-first with id tiebreak"
        );
    }
    for row in top {
        for link in &row.chain {
            assert!(link.end > link.start, "empty chain link");
            assert!(link.start >= row.submit && link.end <= row.end, "chain link escapes window");
        }
    }
    let (_ssd2, an2) = anatomy_run(&ops, 8);
    assert_eq!(an2.top().len(), top.len(), "top-K is deterministic");
    for (a, b) in an2.top().iter().zip(top) {
        assert_eq!(a, b, "top-K rows differ between identical runs");
    }
}

/// The recorder's two private bounds, restated (the reference must evict
/// and truncate where the recorder does).
const OCC_CAP: usize = 4096;
const CHAIN_CAP: usize = 64;

/// An unblamed wait: `[start, end)` and the blocking resource, if any.
type Wait = (Nanos, Nanos, Option<ResourceId>);

/// The blame rules as first written, kept as the reference: a wait's
/// blocking resource is found by filtering every event of the trace, and
/// its blame by scanning every slot of that resource's occupancy ring.
/// Same bounded rings, same pending window, same resolution order as
/// [`AnatomyRecorder`] — only the searches are linear.
struct LinearScan {
    capacity: usize,
    pending: VecDeque<(RequestAnatomy, Vec<Wait>)>,
    occupancy: HashMap<ResourceId, VecDeque<(TraceEvent, Stage)>>,
    occ_dropped: u64,
    resolved: Vec<RequestAnatomy>,
}

impl LinearScan {
    fn new(capacity: usize) -> Self {
        LinearScan {
            capacity,
            pending: VecDeque::new(),
            occupancy: HashMap::new(),
            occ_dropped: 0,
            resolved: Vec::new(),
        }
    }

    fn record(&mut self, t: &RequestTrace, retry: Option<(Nanos, Nanos)>) {
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
                let ring = self.occupancy.entry(e.resource).or_default();
                if ring.len() == OCC_CAP {
                    ring.pop_front();
                    self.occ_dropped += 1;
                }
                ring.push_back((*e, stage));
            }
        }
        let row = RequestAnatomy {
            trace_id: t.id,
            req_idx: None,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            end: t.end,
            stages,
            chain,
        };
        self.pending.push_back((row, waits));
        if self.pending.len() > self.capacity {
            self.resolve_front();
        }
    }

    fn finalize(&mut self) {
        while !self.pending.is_empty() {
            self.resolve_front();
        }
    }

    fn resolve_front(&mut self) {
        let (mut row, waits) = self.pending.pop_front().expect("pending nonempty");
        for (start, end, res) in waits {
            let Some(ring) = res.and_then(|r| self.occupancy.get(&r)) else { continue };
            for (slot, stage) in ring {
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

    /// Asserts `an` (finalized, nothing evicted from its row ring) holds
    /// exactly this reference's rows, drops and top-K digest.
    fn assert_matches(&self, an: &AnatomyRecorder, top_k: usize) {
        assert_eq!(an.dropped(), 0, "size the row ring to the trace count");
        assert_eq!(an.occupancy_dropped(), self.occ_dropped, "occupancy eviction count");
        assert_eq!(an.rows().count(), self.resolved.len());
        for (got, want) in an.rows().zip(&self.resolved) {
            assert_eq!(got.stage_sum(), got.e2e(), "row {} does not tile", got.trace_id);
            assert_eq!(
                RequestAnatomy { req_idx: None, ..got.clone() },
                *want,
                "row {} differs from the linear scan",
                got.trace_id
            );
        }
        let mut top: Vec<&RequestAnatomy> = self.resolved.iter().collect();
        top.sort_by_key(|r| (std::cmp::Reverse(r.e2e()), r.trace_id));
        top.truncate(top_k);
        let want: Vec<u64> = top.iter().map(|r| r.trace_id).collect();
        let got: Vec<u64> = an.top().iter().map(|r| r.trace_id).collect();
        assert_eq!(got, want, "top-K digest");
    }
}

/// A synthetic multi-request timeline on serial resources: lockers issue
/// runs of sanitize/GC commands, victims wait and then read, every
/// resource hands out time in order (as `Resource::reserve` does), and
/// requests are recorded in issue order — so the rings arrive sorted.
/// Chip 0 takes two thirds of the commands, so a couple of thousand
/// requests overflow its `OCC_CAP` (the linear reference pays for every
/// slot of every ring on every wait — keep the run short).
fn synthetic_storm(n: usize, seed: u64) -> Vec<(RequestTrace, Option<(Nanos, Nanos)>)> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    let resources = [ResourceId::Chip(0), ResourceId::Chip(1), ResourceId::Channel(0)];
    let mut free = [0u64; 3];
    let mut rec = TraceRecorder::new(1);
    let mut now = 0u64;
    (0..n)
        .map(|i| {
            // Arrivals keep chip 0 about 60 % busy: waits meet a few of a
            // neighbor's commands each, not a backlog of thousands.
            now += step() % 900;
            let submit = now;
            let earliest = submit + step() % 50;
            let mut cursor = earliest;
            let locker = step() % 3 != 0;
            let mut events = Vec::new();
            for _ in 0..1 + step() % if locker { 6 } else { 3 } {
                let r = [0, 0, 0, 0, 1, 2][(step() % 6) as usize];
                // Sometimes depend on the previous command, sometimes leave
                // a gap (a wait), sometimes overlap it on another resource.
                let start = free[r].max(cursor + [0, 0, 40, 400][(step() % 4) as usize]);
                let stop = start + 20 + step() % 200;
                free[r] = stop;
                if step() % 3 != 0 {
                    cursor = stop;
                }
                let (kind, cause) = match (r, locker, step() % 5) {
                    (2, true, _) => (SpanKind::Xfer, OpCause::Gc),
                    (2, false, _) => (SpanKind::Xfer, OpCause::Host),
                    (_, false, _) => (SpanKind::Read, OpCause::Host),
                    (_, true, 0) => (SpanKind::BLock, OpCause::Sanitize),
                    (_, true, 1) => (SpanKind::Program, OpCause::Gc),
                    (_, true, 2) => (SpanKind::Erase, OpCause::Gc),
                    (_, true, _) => (SpanKind::PLock, OpCause::Sanitize),
                };
                events.push(TraceEvent {
                    kind,
                    cause,
                    resource: resources[r],
                    start: Nanos(start),
                    end: Nanos(stop),
                });
            }
            let end = cursor.max(earliest) + step() % 30;
            // One request in eight was aborted and backed off: a penalty
            // window somewhere in its first wait.
            let retry = (step() % 8 == 0)
                .then(|| (Nanos(earliest + step() % 20), Nanos(earliest + 20 + step() % 200)));
            let kind = if locker { ReqKind::Trim } else { ReqKind::Read };
            let t = rec.record(
                kind,
                i as u64,
                1,
                true,
                Nanos(submit),
                Nanos(earliest),
                Nanos(end),
                events,
            );
            (t.clone(), retry)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Differential test of the indexed blame against the linear scans,
    /// on hand-built traffic dense enough to evict occupancy at `OCC_CAP`.
    /// A pending window at least as long as the run resolves everything at
    /// `finalize`, against rings that have already lost the early slots; a
    /// short one resolves rows inline while their blockers are still there.
    #[test]
    fn indexed_blame_matches_the_linear_scan(
        seed in 0u64..u64::MAX,
        n in 3600usize..4800,
        pending in prop_oneof![Just(64usize), Just(1000usize), Just(4800usize)],
    ) {
        let feed = synthetic_storm(n, seed);
        let mut an = AnatomyRecorder::new(pending, 8);
        let mut reference = LinearScan::new(pending);
        for (t, retry) in &feed {
            an.record(t, *retry, None);
            reference.record(t, *retry);
        }
        an.finalize();
        reference.finalize();
        prop_assert!(reference.occ_dropped > 0, "the storm must overflow OCC_CAP");
        if pending >= n {
            reference.assert_matches(&an, 8);
        } else {
            // The row ring evicted the early rows: compare what it kept.
            let kept = &reference.resolved[n - pending..];
            prop_assert_eq!(an.occupancy_dropped(), reference.occ_dropped);
            prop_assert!(an.rows().eq(kept.iter()), "retained rows differ from the linear scan");
        }
    }
}

/// The same differential check on the emulator's own traces, through a
/// power cut: recovery re-times every resource from the cut instant, and
/// the rings must stay sorted across it (`debug_assert`ed on every push —
/// the test profile keeps debug assertions on).
#[test]
fn indexed_blame_matches_the_linear_scan_across_a_power_cut() {
    let logical = SsdConfig::tiny_for_tests().ftl.logical_pages();
    let ops = mixed_ops(logical, 300, 0xB1A3E);
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_anatomy(4096, 8);
    ssd.run_scheduled(&ops[..120], 8);
    ssd.power_cut_at(ssd.device().simulated_time() + Nanos::from_micros(2_000));
    ssd.run_scheduled(&ops[120..160], 8);
    assert!(ssd.powered_off(), "the cut must fire inside the second batch");
    ssd.recover();
    ssd.run_scheduled(&ops[160..], 8);
    ssd.flush_coalesced_locks();
    ssd.finalize_anatomy();

    let traces: Vec<&RequestTrace> =
        ssd.trace().expect("anatomy implies tracing").traces().collect();
    assert!(traces.iter().any(|t| t.kind == ReqKind::Recovery), "no recovery trace");
    let recovered = traces.iter().position(|t| t.kind == ReqKind::Recovery).unwrap();
    assert!(traces.len() > recovered + 50, "no traffic after the recovery scan");
    let mut reference = LinearScan::new(4096);
    traces.iter().for_each(|t| reference.record(t, None));
    reference.finalize();
    let an = ssd.anatomy().expect("anatomy enabled");
    reference.assert_matches(an, 8);
    let blamed = an.rows().flat_map(|r| &r.chain).filter(|l| !l.own).count();
    assert!(blamed > 0, "no wait was blamed on a neighbor: the check is vacuous");
}

/// Complexity canary: one request carrying 100 000 device events — a GC
/// storm two orders of magnitude past anything the workloads produce —
/// records (sweep segmentation, blocking-resource pass) and resolves
/// (indexed blame against full rings) in well under a second. The
/// quadratic rules took minutes here: 2 × 10⁵ slices × 10⁵ events to
/// segment, then 10⁵ events per wait to find each blocking resource.
#[test]
fn a_100_000_event_request_records_and_resolves_within_budget() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    let started = std::time::Instant::now();
    let mut tr = TraceRecorder::new(4);
    let mut an = AnatomyRecorder::new(4, 2);
    // A neighbor's lock traffic first, filling every chip's ring.
    let span = 100_000 * 150;
    let locks: Vec<TraceEvent> = (0..8 * OCC_CAP as u64)
        .map(|i| {
            let slot = span / OCC_CAP as u64;
            let start = (i / 8) * slot + step() % (slot / 2);
            TraceEvent {
                kind: SpanKind::PLock,
                cause: OpCause::Sanitize,
                resource: ResourceId::Chip((i % 8) as usize),
                start: Nanos(start),
                end: Nanos(start + slot / 2),
            }
        })
        .collect();
    let neighbor = tr.record(ReqKind::Trim, 0, 1, true, Nanos(0), Nanos(0), Nanos(span), locks);
    an.record(neighbor, None, None);
    // The big request: host reads and transfers hopping across chips,
    // overlapping in pairs, with an idle gap (a wait) after every pair.
    let mut cursor = 0u64;
    let events: Vec<TraceEvent> = (0..100_000u64)
        .map(|i| {
            let start = cursor + if i % 2 == 1 { 10 } else { 0 };
            let stop = start + 30 + step() % 60;
            if i % 2 == 1 {
                cursor = stop + 20 + step() % 100;
            }
            TraceEvent {
                kind: if i % 5 == 0 { SpanKind::Xfer } else { SpanKind::Read },
                cause: OpCause::Host,
                resource: if i % 5 == 0 {
                    ResourceId::Channel((i % 2) as usize)
                } else {
                    ResourceId::Chip((step() % 8) as usize)
                },
                start: Nanos(start),
                end: Nanos(stop),
            }
        })
        .collect();
    let big =
        tr.record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(cursor), events).clone();
    assert!(big.segments.len() > 100_000, "the request must interleave work and waits");
    an.record(&big, None, None);
    an.finalize();
    let row = an.rows().last().expect("the big request's row");
    assert_eq!(row.stage_sum(), row.e2e());
    assert!(row.stage(Stage::SanitizeInterference) > Nanos::ZERO, "no wait met a neighbor's lock");
    assert!(row.stage(Stage::DispatchStall) > Nanos::ZERO);
    let wall = started.elapsed();
    assert!(wall.as_secs() < 20, "a 100k-event request took {wall:?}: a quadratic path is back");
}
