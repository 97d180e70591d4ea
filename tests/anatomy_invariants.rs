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
//! * **indexed blame, no hindsight** — rows resolved as they are
//!   recorded, against binary-searched bounded occupancy timelines, are
//!   exactly the rows of the linear-scan rules run with full hindsight
//!   (every row resolved at the end, nothing forgotten), through ring
//!   eviction, occupancy overflow and a power cut — so blame does not
//!   depend on the ring capacity; and a 100 000-event request stays cheap
//!   in either event order.

mod reference;

use evanesco::ftl::{OpCause, SanitizePolicy};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::anatomy::REQ_KINDS;
use evanesco::ssd::trace::{ReqKind, ResourceId, SpanKind, TraceEvent, TraceRecorder};
use evanesco::ssd::{AnatomyRecorder, Emulator, HostOp, SsdConfig, Stage};
use proptest::prelude::*;
use reference::{LinearScan, RefRow, RefTrace, RefTraceRecorder, OCC_CAP};

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
    let top: Vec<RefRow> = an.top().map(RefRow::of).collect();
    assert!(!top.is_empty());
    for pair in top.windows(2) {
        assert!(
            pair[0].e2e() > pair[1].e2e()
                || (pair[0].e2e() == pair[1].e2e() && pair[0].trace_id < pair[1].trace_id),
            "top-K not ordered slowest-first with id tiebreak"
        );
    }
    for row in &top {
        for link in &row.chain {
            assert!(link.end > link.start, "empty chain link");
            assert!(link.start >= row.submit && link.end <= row.end, "chain link escapes window");
        }
    }
    let (_ssd2, an2) = anatomy_run(&ops, 8);
    let again: Vec<RefRow> = an2.top().map(RefRow::of).collect();
    assert_eq!(again, top, "top-K rows differ between identical runs");
}

/// A synthetic multi-request timeline on serial resources: lockers issue
/// runs of sanitize/GC commands, victims wait and then read, every
/// resource hands out time in order (as `Resource::reserve` does), and
/// requests are recorded in issue order — so the timelines arrive sorted.
/// Chip 0 takes two thirds of the commands, so a couple of thousand
/// requests overflow its `OCC_CAP` (the linear reference pays for every
/// slot of every timeline on every wait — keep the run short).
fn synthetic_storm(n: usize, seed: u64) -> Vec<(RefTrace, Option<(Nanos, Nanos)>)> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    let resources = [ResourceId::Chip(0), ResourceId::Chip(1), ResourceId::Channel(0)];
    let mut free = [0u64; 3];
    let mut rec = RefTraceRecorder::new(1);
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

    /// Differential test of the recorder — indexed, bounded, resolving
    /// each row as it arrives — against the linear scans with hindsight,
    /// on hand-built traffic dense enough to evict occupancy at `OCC_CAP`,
    /// at ring capacities from far below the run length to above it. The
    /// trace ring underneath is checked against its own reference on the
    /// way.
    #[test]
    fn indexed_blame_matches_the_linear_scan(
        seed in 0u64..u64::MAX,
        n in 3600usize..4800,
        capacity in prop_oneof![Just(1usize), Just(64usize), Just(1000usize), Just(4800usize)],
    ) {
        let feed = synthetic_storm(n, seed);
        let mut tr = TraceRecorder::new(capacity);
        let mut an = AnatomyRecorder::new(capacity, 8);
        let mut hindsight = LinearScan::default();
        for (t, retry) in &feed {
            let view = t.record_into(&mut tr);
            prop_assert_eq!(&RefTrace::of(view), t);
            an.record(view, *retry, None);
            hindsight.record(t, *retry);
        }
        hindsight.finalize();
        prop_assert!(hindsight.occupancy_overflow() > 0, "the storm must overflow OCC_CAP");
        hindsight.assert_matches(&an, 8);
    }
}

/// The full differential check on the emulator's own traces, through a
/// power cut: recovery re-times every resource from the cut instant, and
/// the timelines must stay sorted across it (`debug_assert`ed on every
/// push — the test profile keeps debug assertions on). The retained
/// traces replayed through the `Vec`-per-trace ring and the sorted-bounds
/// sweep must give the same segments, span totals and chrome export; the
/// same traces through the hindsight blame must give the same rows,
/// chains, totals and top-K digest.
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

    let ring = ssd.trace().expect("anatomy implies tracing");
    let traces: Vec<RefTrace> = ring.traces().map(RefTrace::of).collect();
    assert!(traces.iter().any(|t| t.kind == ReqKind::Recovery), "no recovery trace");
    let recovered = traces.iter().position(|t| t.kind == ReqKind::Recovery).unwrap();
    assert!(traces.len() > recovered + 50, "no traffic after the recovery scan");

    let mut old_ring = RefTraceRecorder::new(4096);
    let mut hindsight = LinearScan::default();
    for t in &traces {
        let events = t.events.clone();
        let replayed =
            old_ring.record(t.kind, t.lpa, t.npages, t.acked, t.submit, t.earliest, t.end, events);
        hindsight.record(replayed, None);
    }
    reference::assert_same_ring(ring, &old_ring);
    hindsight.finalize();
    let an = ssd.anatomy().expect("anatomy enabled");
    hindsight.assert_matches(an, 8);
    let blamed = an.rows().flat_map(|r| r.chain()).filter(|l| !l.own).count();
    assert!(blamed > 0, "no wait was blamed on a neighbor: the check is vacuous");
}

/// One emulator run long enough to push more than `OCC_CAP` lock commands
/// through a single chip, observed with an anatomy ring of `capacity`
/// rows (the trace ring keeps everything, for the hindsight replay).
fn long_lock_run(ops: &[HostOp], capacity: usize) -> Emulator {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_tracing(ops.len() + 1);
    ssd.enable_anatomy(capacity, 8);
    ssd.run_scheduled(ops, 8);
    ssd.flush_coalesced_locks();
    ssd
}

fn long_lock_ops() -> Vec<HostOp> {
    let logical = SsdConfig::tiny_for_tests().ftl.logical_pages();
    mixed_ops(logical, 12_000, 0x10C4_5EED)
}

/// Blame is a property of the run, not of the observer's buffer: every
/// kind × stage total is the same at ring capacities 8, 1 024 and "the
/// whole run", although each chip's occupancy window overflowed many
/// times over. (With a pending window, capacity `ops.len()` resolved
/// every row at `finalize`, after the windows had forgotten the early
/// blockers, and read about half the sanitize interference.)
#[test]
fn blame_does_not_depend_on_the_ring_capacity() {
    let ops = long_lock_ops();
    let runs: Vec<Emulator> =
        [8, 1024, ops.len()].into_iter().map(|cap| long_lock_run(&ops, cap)).collect();
    let whole = runs[2].anatomy().expect("anatomy enabled");
    assert!(
        whole.occupancy_dropped() > 5_000,
        "only {} occupancy slots evicted: no chip's window overflowed by much",
        whole.occupancy_dropped()
    );
    let plocks = runs[2]
        .trace()
        .expect("tracing enabled")
        .traces()
        .flat_map(|t| t.events())
        .filter(|e| e.kind == SpanKind::PLock && e.resource == ResourceId::Chip(0))
        .count();
    assert!(plocks >= 5_000, "chip 0 saw only {plocks} pLocks");
    assert!(
        whole.stage_total(ReqKind::Read, Stage::SanitizeInterference) > Nanos::ZERO,
        "no read ever waited behind a lock: the check is vacuous"
    );
    for run in &runs[..2] {
        let an = run.anatomy().expect("anatomy enabled");
        assert_eq!(an.recorded(), whole.recorded());
        assert!(an.dropped() > 0, "capacity {} never wrapped", an.capacity());
        assert_eq!(an.occupancy_dropped(), whole.occupancy_dropped());
        for kind in REQ_KINDS {
            for stage in Stage::ALL {
                assert_eq!(
                    an.stage_total(kind, stage),
                    whole.stage_total(kind, stage),
                    "capacity {}: {kind:?} x {stage:?}",
                    an.capacity()
                );
            }
        }
    }
}

/// The same run against full hindsight — every row resolved at the end
/// against an occupancy timeline that forgot nothing: resolving at record
/// time against a bounded window loses no blame.
#[test]
fn resolving_at_record_time_equals_unbounded_hindsight() {
    let ops = long_lock_ops();
    let ssd = long_lock_run(&ops, ops.len());
    let mut hindsight = LinearScan::default();
    for t in ssd.trace().expect("tracing enabled").traces() {
        hindsight.record(&RefTrace::of(t), None);
    }
    hindsight.finalize();
    assert!(hindsight.occupancy_overflow() > 5_000, "the run must overflow OCC_CAP");
    hindsight.assert_matches(ssd.anatomy().expect("anatomy enabled"), 8);
}

/// Complexity canary: one request carrying 100 000 device events — a GC
/// storm two orders of magnitude past anything the workloads produce —
/// records (sweep segmentation, blocking-resource pass) and resolves
/// (indexed blame against full timelines) in well under a second, with
/// its events in start order or in exactly the reverse (the sweep's
/// worst case: every admission sorted, nothing arriving in order). The
/// quadratic rules took minutes here: 2 × 10⁵ slices × 10⁵ events to
/// segment, then 10⁵ events per wait to find each blocking resource.
#[test]
fn a_100_000_event_request_records_and_resolves_within_budget() {
    for reversed in [false, true] {
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
        // A neighbor's lock traffic first, filling every chip's window.
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
        let neighbor =
            tr.record(ReqKind::Trim, 0, 1, true, Nanos(0), Nanos(0), Nanos(span), &locks);
        an.record(neighbor, None, None);
        // The big request: host reads and transfers hopping across chips,
        // overlapping in pairs, with an idle gap (a wait) after every pair.
        let mut cursor = 0u64;
        let mut events: Vec<TraceEvent> = (0..100_000u64)
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
        if reversed {
            events.reverse();
        }
        let big = tr.record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(cursor), &events);
        assert!(big.segments().len() > 100_000, "the request must interleave work and waits");
        an.record(big, None, None);
        let row = an.rows().last().expect("the big request's row");
        assert_eq!(row.stage_sum(), row.e2e());
        assert!(
            row.stage(Stage::SanitizeInterference) > Nanos::ZERO,
            "no wait met a neighbor's lock"
        );
        assert!(row.stage(Stage::DispatchStall) > Nanos::ZERO);
        let wall = started.elapsed();
        assert!(
            wall.as_secs() < 20,
            "a 100k-event request (reversed: {reversed}) took {wall:?}: a quadratic path is back"
        );
    }
}
