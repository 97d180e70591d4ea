//! Scheduler correctness properties: out-of-order multi-queue execution
//! must be invisible to the host.
//!
//! The out-of-order scheduler ([`evanesco::ssd::sched`]) may dispatch
//! independent requests onto idle chips in any order, but requests that
//! touch a common logical page never reorder. These tests pin the
//! contract down:
//!
//! * **byte identity** — a random mixed trace produces identical
//!   per-request results, an identical final device image, and identical
//!   sanitization outcomes at queue depths 1, 8 and 32 and through the
//!   serialized API (never slower than queue depth 1: it sets no dispatch
//!   floor), with and without lock coalescing;
//! * **same-LPA ordering** — reads racing overwrites of one hot page at
//!   depth 32 always observe the most recently submitted write (RAW), and
//!   never a later one (WAR/WAW), even with unrelated traffic saturating
//!   the queue;
//! * **selection identity** — the incremental scoreboard (blocker counts,
//!   cached hint tokens, per-chip maintained scores) hands out exactly the
//!   dispatch sequence of the rescan-everything rule it replaced, kept
//!   here as a naive reference, on both of its dispatch entry points.

use evanesco::ftl::observer::NullObserver;
use evanesco::ftl::SanitizePolicy;
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, HostOp, OpResult, Scheduler, SsdConfig};
use proptest::prelude::*;

/// Raw op parameters; clamped against the device's logical space once,
/// so every queue depth replays the exact same trace.
fn sched_op(logical: u64) -> impl Strategy<Value = HostOp> {
    let max_run = 6u64;
    prop_oneof![
        4 => (0..logical - max_run, 1..=max_run, any::<bool>())
            .prop_map(|(lpa, npages, secure)| HostOp::Write { lpa, npages, secure }),
        2 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Read { lpa, npages }),
        1 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Trim { lpa, npages }),
    ]
}

/// Everything the host can observe: per-request results, the final
/// device image, and whether every superseded secured version is gone.
type Observed = (Vec<OpResult>, Vec<Option<u64>>, bool);

/// Runs the trace on a fresh device — through the scheduler at queue
/// depth `qd`, or request by request through the serialized API for
/// `None` — and returns what the host observed and the simulated time.
fn observe(cfg: SsdConfig, ops: &[HostOp], qd: Option<usize>) -> (Observed, Nanos) {
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    let results = if let Some(qd) = qd {
        let run = ssd.run_scheduled(ops, qd);
        assert!(run.max_outstanding <= qd, "queue depth {qd} violated");
        run.results
    } else {
        let serve = |op: &HostOp| match *op {
            HostOp::Write { lpa, npages, secure } => {
                let tracked = ssd.write_tracked(lpa, npages, secure);
                let acked = tracked.iter().all(|&(_, acked)| acked);
                OpResult::Write(tracked.into_iter().map(|(tag, _)| tag).collect(), acked)
            }
            HostOp::Read { lpa, npages } => OpResult::Read(ssd.read(lpa, npages)),
            HostOp::Trim { lpa, npages } => {
                OpResult::Trim(ssd.trim_with(&mut NullObserver, lpa, npages))
            }
        };
        ops.iter().map(serve).collect()
    };
    let sim_time = ssd.result().sim_time;
    // Settle deferred sanitization locks before the attacker looks.
    ssd.flush_coalesced_locks();
    ssd.ftl().check_invariants();
    let logical = ssd.logical_pages();
    let image = (0..logical).map(|l| ssd.read(l, 1)[0]).collect();
    let sanitized = ssd.verify_sanitized(0, logical);
    ((results, image, sanitized), sim_time)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Queue depth changes timing, never results.
    #[test]
    fn queue_depth_never_changes_host_visible_results(
        ops in proptest::collection::vec(sched_op(600), 1..100),
        coalesce in any::<bool>(),
    ) {
        let mut cfg = SsdConfig::tiny_for_tests();
        if coalesce {
            cfg.ftl.lock_coalescing = true;
            cfg.ftl.coalesce_window = 32;
        }
        let (baseline, qd1_time) = observe(cfg, &ops, Some(1));
        prop_assert!(baseline.2, "secured overwrites must be sanitized at qd 1");
        for qd in [8usize, 32] {
            let (got, _) = observe(cfg, &ops, Some(qd));
            prop_assert_eq!(
                &got, &baseline,
                "qd {} diverged from the qd-1 baseline (coalesce={})", qd, coalesce
            );
        }
        // The serialized API returns the same results again, but not qd 1's
        // timing: with no dispatch floor its requests backfill idle chips.
        let (got, serialized_time) = observe(cfg, &ops, None);
        prop_assert_eq!(&got, &baseline, "serialized API diverged (coalesce={})", coalesce);
        prop_assert!(
            serialized_time <= qd1_time,
            "serialized {:?} slower than qd 1 {:?}", serialized_time, qd1_time
        );
    }
}

/// An adversarial hot-page trace: one LPA is overwritten and read in
/// strict alternation while enough independent traffic is queued that a
/// depth-32 scheduler has every opportunity to reorder.
#[test]
fn hot_page_reads_always_observe_the_latest_submitted_write() {
    let mut ops = Vec::new();
    let hot = 7u64;
    for round in 0..40u64 {
        ops.push(HostOp::Write { lpa: hot, npages: 1, secure: true });
        // Independent noise the scheduler may freely hoist past the hot
        // page's traffic.
        for k in 0..6 {
            ops.push(HostOp::Write {
                lpa: 50 + ((round * 6 + k) * 3) % 400,
                npages: 2,
                secure: k % 2 == 0,
            });
        }
        ops.push(HostOp::Read { lpa: hot, npages: 1 });
    }
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    let run = ssd.run_scheduled(&ops, 32);
    let mut last_write: Option<u64> = None;
    for (i, (op, res)) in ops.iter().zip(&run.results).enumerate() {
        match (op, res) {
            (HostOp::Write { lpa, .. }, OpResult::Write(tags, acked)) => {
                assert!(acked, "no power cut: every write acks");
                if *lpa == hot {
                    last_write = Some(tags[0]);
                }
            }
            (HostOp::Read { lpa, .. }, OpResult::Read(got)) if *lpa == hot => {
                assert_eq!(
                    got[0], last_write,
                    "request {i}: read of the hot page must see the write submitted \
                     immediately before it — neither an older nor a newer version"
                );
            }
            _ => {}
        }
    }
    // The overwrite churn itself stayed secure.
    ssd.flush_coalesced_locks();
    assert!(ssd.verify_sanitized(hot, 1));
}

/// The scheduler's speed claim, end to end at the integration level:
/// deeper queues strictly dominate on a parallel-friendly trace while
/// returning identical results.
#[test]
fn deeper_queues_are_no_slower_at_every_step() {
    let ops: Vec<HostOp> = (0..96)
        .map(|i| HostOp::Write { lpa: (i * 5) % 480, npages: 1, secure: i % 2 == 0 })
        .collect();
    let mut prev = None;
    for qd in [1usize, 2, 4, 8] {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        let run = ssd.run_scheduled(&ops, qd);
        if let Some((prev_qd, prev_time, prev_results)) = prev {
            assert!(
                run.sim_time <= prev_time,
                "qd {qd} ({:?}) slower than qd {prev_qd} ({prev_time:?})",
                run.sim_time
            );
            assert_eq!(run.results, prev_results, "qd {qd} changed results");
        }
        prev = Some((qd, run.sim_time, run.results));
    }
}

/// The selection rule the scoreboard must reproduce, as naively as it can
/// be written: nothing is cached, every pass rescans the queue for
/// eligibility and every candidate rescans the per-page completion table.
struct ReferenceScoreboard {
    qd: usize,
    /// `(idx, op, submit)` in submission order.
    queue: Vec<(usize, HostOp, Nanos)>,
    inflight: Vec<Nanos>,
    /// Completion time of the latest dispatched request touching each page,
    /// never forgotten: the oracle for the scoreboard, which reads
    /// dependencies from its in-flight window and drops what retires.
    last_done: Vec<Nanos>,
    clock: Nanos,
    max_outstanding: usize,
}

fn pages(op: &HostOp) -> std::ops::Range<usize> {
    let (lpa, n) = op.lpa_range();
    lpa as usize..(lpa + n) as usize
}

impl ReferenceScoreboard {
    fn try_submit_at(&mut self, idx: usize, op: HostOp, arrival: Nanos) -> bool {
        if self.queue.len() + self.inflight.len() >= self.qd {
            // `min_by_key` keeps the first minimum, like the scoreboard.
            let Some(oldest) = (0..self.inflight.len()).min_by_key(|&i| self.inflight[i]) else {
                return false;
            };
            self.clock = self.clock.max(self.inflight.swap_remove(oldest));
        }
        self.clock = self.clock.max(arrival);
        self.queue.push((idx, op, self.clock));
        self.max_outstanding = self.max_outstanding.max(self.queue.len() + self.inflight.len());
        true
    }

    /// `score = max(submit, dep, hint)`; the first minimum among the
    /// requests sharing no page with an earlier queued one wins.
    fn take_dispatch(&mut self, hint: impl Fn(&HostOp) -> Nanos) -> Option<(usize, Nanos, Nanos)> {
        let mut best: Option<(usize, Nanos, Nanos)> = None; // (pos, score, earliest)
        for (pos, (_, op, submit)) in self.queue.iter().enumerate() {
            let shares_a_page = |(_, earlier, _): &(usize, HostOp, Nanos)| {
                pages(earlier).any(|l| pages(op).contains(&l))
            };
            if self.queue[..pos].iter().any(shares_a_page) {
                continue;
            }
            let dep = self.last_done[pages(op)].iter().copied().max().unwrap_or(Nanos::ZERO);
            let earliest = (*submit).max(dep);
            let score = earliest.max(hint(op));
            if best.is_none_or(|(_, s, _)| score < s) {
                best = Some((pos, score, earliest));
            }
        }
        let (pos, _, earliest) = best?;
        let (idx, _, submit) = self.queue[pos];
        Some((idx, submit, earliest))
    }

    fn complete(&mut self, idx: usize, done: Nanos) {
        let pos = self.queue.iter().position(|&(i, _, _)| i == idx).expect("dispatched is queued");
        let (_, op, _) = self.queue.remove(pos);
        for e in &mut self.last_done[pages(&op)] {
            *e = (*e).max(done);
        }
        self.inflight.push(done);
    }

    fn drain(&self) -> Nanos {
        self.inflight.iter().copied().max().unwrap_or(self.clock)
    }
}

/// SplitMix64 finalizer: the per-pass hint, service time and arrival are
/// all `mix(salt, something)`.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Overlap-heavy ops over a 48-page space: adjacent, nested, identical
/// and zero-length ranges all turn up within a few dozen draws.
fn crowded_op() -> impl Strategy<Value = HostOp> {
    (0u64..=42, 0u64..=5, 0u8..4).prop_map(|(lpa, npages, kind)| match kind {
        0 => HostOp::Write { lpa, npages, secure: true },
        1 => HostOp::Write { lpa, npages, secure: false },
        2 => HostOp::Read { lpa, npages },
        _ => HostOp::Trim { lpa, npages },
    })
}

/// The chips a read's pages live on, as the driver would resolve them: a
/// pure function of the request, up to 64 chips wide.
fn chip_set(salt: u64, op: &HostOp, n_chips: usize) -> u64 {
    pages(op).fold(0, |set, l| set | 1 << (mix(salt ^ 4, l as u64) % n_chips as u64))
}

/// The chips a request waits for and then holds: a read's own, the
/// allocation frontier's for a write, none for a trim.
fn waits_on(salt: u64, op: &HostOp, n_chips: usize, write_chip: usize) -> u64 {
    match op {
        HostOp::Read { .. } => chip_set(salt, op, n_chips),
        HostOp::Write { .. } => 1 << write_chip,
        HostOp::Trim { .. } => 0,
    }
}

/// Sets chip `c`'s busy-until to `f` of it, and its bit in `moved` if that
/// changed it.
fn move_chip(free_at: &mut [Nanos], moved: &mut u64, c: usize, f: impl FnOnce(Nanos) -> Nanos) {
    let t = f(free_at[c]);
    *moved |= u64::from(t != free_at[c]) << c;
    free_at[c] = t;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The scoreboard's only licence to be incremental: it picks what the
    /// reference rule picks, at every step, whatever the hints say — on the
    /// closure-hinted path, which scores every candidate afresh, and on the
    /// chip-aware one, which maintains scores across passes from the chips
    /// it is told moved (some of them lower than before) while the
    /// reference scores every request from scratch at every step. Queue
    /// depth 130 spans three words, so the submission order and the slot
    /// sets cross word boundaries.
    #[test]
    fn incremental_scoreboard_matches_the_reference_rule(
        ops in proptest::collection::vec(crowded_op(), 1..160),
        qd_pick in 0usize..5,
        n_chips in 1usize..=64,
        chip_aware in any::<bool>(),
        salt in any::<u64>(),
    ) {
        const LOGICAL: u64 = 48;
        let qd = [1usize, 2, 8, 32, 130][qd_pick];
        let mut sched = Scheduler::new(qd, LOGICAL);
        let mut reference = ReferenceScoreboard {
            qd,
            queue: Vec::new(),
            inflight: Vec::new(),
            last_done: vec![Nanos::ZERO; LOGICAL as usize],
            clock: Nanos::ZERO,
            max_outstanding: 0,
        };
        let mut free_at = vec![Nanos::ZERO; n_chips];
        // The chips whose busy-until the test changed since the last pass:
        // exactly what the scoreboard is told, no more.
        let mut moved = 0u64;
        let (mut next, mut pass) = (0usize, 0u64);
        loop {
            // Bursts of random size leave the window part-full at random.
            for _ in 0..1 + mix(salt, pass) as usize % qd {
                if next == ops.len() {
                    break;
                }
                // Arrival floors land in the past as often as the future.
                let arrival = Nanos(mix(salt ^ 1, next as u64) % (1 + 200_000 * next as u64));
                let admitted = sched.try_submit_at(next, ops[next], arrival).expect("in range");
                prop_assert_eq!(admitted, reference.try_submit_at(next, ops[next], arrival));
                if !admitted {
                    break;
                }
                next += 1;
            }
            pass += 1;
            let write_chip = mix(salt ^ 7, pass / 3) as usize % n_chips;
            // From scratch: the latest busy-until among the chips it waits on.
            let chip_hint = |op: &HostOp, free_at: &[Nanos]| {
                let chips = waits_on(salt, op, n_chips, write_chip);
                let busy = free_at.iter().enumerate().filter(|(c, _)| chips >> c & 1 == 1);
                busy.map(|(_, &t)| t).max().unwrap_or(Nanos::ZERO)
            };
            let (got, want) = if chip_aware {
                // A few chips get busier each pass, in coarse steps so scores
                // tie often; the frontier wanders.
                for c in 0..n_chips {
                    if mix(salt ^ 5, pass * 64 + c as u64).is_multiple_of(3) {
                        let step = Nanos(mix(salt ^ 6, pass * 64 + c as u64) % 4 * 30_000);
                        move_chip(&mut free_at, &mut moved, c, |t| t + step);
                    }
                }
                // Now and then a chip reads lower than last pass (as after a
                // restored checkpoint): its waiters must fall back with it.
                if mix(salt ^ 8, pass).is_multiple_of(5) {
                    let c = mix(salt ^ 9, pass) as usize % n_chips;
                    move_chip(&mut free_at, &mut moved, c, |t| Nanos(t.0 / 2));
                }
                let resolve = |op: &HostOp| chip_set(salt, op, n_chips);
                let moved = std::mem::take(&mut moved);
                (
                    sched.take_dispatch_chips(n_chips, |c| free_at[c], moved, write_chip, resolve),
                    reference.take_dispatch(|op| chip_hint(op, &free_at)),
                )
            } else {
                // Coarse hints tie often, so first-minimum order is on trial too.
                let hint = |op: &HostOp| {
                    let token = mix(salt, op.lpa_range().0 * 8 + op.lpa_range().1);
                    Nanos(mix(token, pass) % 6 * 20_000)
                };
                (sched.take_dispatch(hint), reference.take_dispatch(hint))
            };
            let got = got.map(|d| (d.idx, d.submit, d.earliest));
            prop_assert_eq!(got, want, "pass {} at qd {}, chip-aware {}", pass, qd, chip_aware);
            let Some((idx, _, earliest)) = got else { break };
            // The request holds its chips until it is done, so busy-until
            // times keep pace with the dependency times they compete with.
            let held = waits_on(salt, &ops[idx], n_chips, write_chip);
            let done =
                earliest.max(chip_hint(&ops[idx], &free_at)) + Nanos(mix(salt ^ 2, pass) % 900_000);
            for c in 0..n_chips {
                if held >> c & 1 == 1 {
                    move_chip(&mut free_at, &mut moved, c, |t| t.max(done));
                }
            }
            sched.complete(done);
            reference.complete(idx, done);
            if mix(salt ^ 3, pass).is_multiple_of(16) {
                sched.drop_hint_cache();
            }
        }
        prop_assert_eq!(next, ops.len(), "the queue only empties when the trace has");
        prop_assert_eq!(sched.max_outstanding(), reference.max_outstanding);
        prop_assert_eq!(sched.drain(), reference.drain());
    }
}
