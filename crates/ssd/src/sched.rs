//! Out-of-order multi-queue host I/O scheduling (the NCQ model).
//!
//! The serialized host API ([`crate::emulator::Emulator::write`] and
//! friends) hands the device one request at a time with no notion of a
//! queue or a submission clock. Real hosts keep a bounded number of tagged
//! requests outstanding and let the device complete them out of order.
//! This module reproduces that:
//!
//! * at most `qd` requests are **outstanding** (submitted but not
//!   completed) at any simulated instant — the closed-loop NCQ contract;
//! * the device may dispatch any queued request whose logical pages do
//!   not overlap an **earlier-submitted, still-queued** request, so
//!   same-LPA operations never reorder (RAW/WAR/WAW all preserved) and
//!   host-visible results are byte-identical to queue depth 1;
//! * each dispatch is timed through the executor's *dispatch window*
//!   ([`evanesco_ftl::executor::NandExecutor::begin_dispatch`]): every
//!   reservation is floored at the request's earliest legal start (slot
//!   free + per-LPA dependencies), and the window reports the request's
//!   completion time. Independent requests thus overlap on idle chips
//!   while the per-chip/per-channel busy timelines still serialize real
//!   hardware conflicts.
//!
//! The scheduler itself is a pure scoreboard over completion times and
//! LPA ranges; [`crate::emulator::Emulator::run_scheduled`] drives it
//! against the FTL and the timed device array.
//!
//! # Cost model
//!
//! The scoreboard is incremental; nothing is recomputed per dispatch.
//!
//! * **Submit is O(qd).** One walk of the window counts the new request's
//!   *blockers* (earlier, still-queued requests with an overlapping LPA
//!   range) and one slice scan seeds its dependency time.
//! * **Complete is O(qd).** One walk of the window advances dependency
//!   times and releases one blocker from every overlapping request.
//! * **Dispatch is O(qd) with O(1) work per candidate.** A request is
//!   eligible iff its blocker count is zero; an eligible candidate costs
//!   one hint evaluation and two `max`es. No range is compared and — on
//!   the emulator's path — **no L2P entry is read** during a pass: the
//!   driver resolves a request's *hint token* (the emulator: the set of
//!   chips holding a read's mapped pages) once, when the request is first
//!   evaluated as eligible, and the scoreboard keeps it on the entry
//!   ([`Scheduler::take_dispatch_cached`]).
//!
//! The token cache rests on two invariants, both owned by the driver:
//!
//! 1. **Per-LPA ordering.** While a request is queued and eligible, no
//!    overlapping request is dispatched (later ones are blocked by it;
//!    earlier ones have already completed), so no host write or trim can
//!    remap its pages.
//! 2. **Intra-chip relocation.** Whatever the FTL moves behind the host's
//!    back (GC, scrub sibling moves, bad-block evacuation) is re-allocated
//!    on the *same chip*, so a mapped page's chip — all the token records —
//!    is stable even when its physical address is not.
//!
//! The one path that breaks them is the chaos guard, which injects and
//! repairs L2P corruption between requests; the driver answers with
//! [`Scheduler::drop_hint_cache`].

use evanesco_ftl::Lpa;
use evanesco_nand::timing::Nanos;
use std::collections::VecDeque;

/// Why a request was rejected at submission.
///
/// Submission-time validation is what keeps the per-LPA scoreboard sound:
/// a range that wrapped around the top of the LPA space would compare as
/// *disjoint* from the requests it actually overlaps, silently breaking
/// the same-LPA ordering invariant the byte-identity gates stand on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// `lpa + npages` overflows the LPA type, so the range cannot even be
    /// represented (let alone ordered against other requests).
    RangeOverflow {
        /// First logical page of the rejected request.
        lpa: Lpa,
        /// Page count of the rejected request.
        npages: u64,
    },
    /// The range is representable but ends beyond the device's logical
    /// capacity.
    OutOfBounds {
        /// First logical page of the rejected request.
        lpa: Lpa,
        /// Page count of the rejected request.
        npages: u64,
        /// The device's logical capacity in pages.
        logical_pages: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::RangeOverflow { lpa, npages } => {
                write!(f, "LPA range [{lpa}, {lpa}+{npages}) overflows the logical address space")
            }
            SubmitError::OutOfBounds { lpa, npages, logical_pages } => write!(
                f,
                "LPA range [{lpa}, {}) ends beyond the {logical_pages}-page logical capacity",
                lpa + npages
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Validates the request range `[lpa, lpa + npages)` against a device of
/// `logical_pages` logical pages, returning the (checked) exclusive upper
/// bound.
///
/// Zero-page requests are legal no-ops: they overlap nothing — an empty
/// range never blocks another request and is never blocked, even when its
/// start lies strictly inside that request's range — and must never
/// panic, but their start still has to lie inside the address space.
///
/// # Errors
///
/// [`SubmitError::RangeOverflow`] when `lpa + npages` wraps;
/// [`SubmitError::OutOfBounds`] when the range ends past `logical_pages`.
pub fn check_lpa_range(lpa: Lpa, npages: u64, logical_pages: u64) -> Result<Lpa, SubmitError> {
    let hi = lpa.checked_add(npages).ok_or(SubmitError::RangeOverflow { lpa, npages })?;
    if hi > logical_pages {
        return Err(SubmitError::OutOfBounds { lpa, npages, logical_pages });
    }
    Ok(hi)
}

/// One host request on the scheduled (multi-queue) submission path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// Write `npages` consecutive pages starting at `lpa`.
    Write {
        /// First logical page of the request.
        lpa: Lpa,
        /// Number of consecutive pages.
        npages: u64,
        /// Security requirement (the paper's non-`O_INSEC` path).
        secure: bool,
    },
    /// Read `npages` consecutive pages starting at `lpa`.
    Read {
        /// First logical page of the request.
        lpa: Lpa,
        /// Number of consecutive pages.
        npages: u64,
    },
    /// Trim (delete) `npages` consecutive pages starting at `lpa`.
    Trim {
        /// First logical page of the request.
        lpa: Lpa,
        /// Number of consecutive pages.
        npages: u64,
    },
}

impl HostOp {
    /// The logical page range `[start, start + len)` this request touches.
    pub fn lpa_range(&self) -> (Lpa, u64) {
        match *self {
            HostOp::Write { lpa, npages, .. }
            | HostOp::Read { lpa, npages }
            | HostOp::Trim { lpa, npages } => (lpa, npages),
        }
    }

    /// Number of logical pages the request touches.
    pub fn npages(&self) -> u64 {
        self.lpa_range().1
    }

    #[cfg(test)]
    fn overlaps(&self, other: &HostOp) -> bool {
        let (a, an) = self.lpa_range();
        let (b, bn) = other.lpa_range();
        ranges_overlap((a, a + an), (b, b + bn))
    }
}

/// The one overlap predicate of the scoreboard: do the half-open LPA
/// ranges `[a.0, a.1)` and `[b.0, b.1)` share a page? Symmetric, and false
/// whenever either range is empty — a zero-page request never blocks and
/// is never blocked, wherever its start lies. Submission (blocker count)
/// and completion (blocker release) must agree on it exactly.
fn ranges_overlap(a: (Lpa, Lpa), b: (Lpa, Lpa)) -> bool {
    a.0.max(b.0) < a.1.min(b.1)
}

/// The host-visible outcome of one scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Content tags assigned to the written pages, plus whether the whole
    /// request was acknowledged (durable before any power cut).
    Write(Vec<u64>, bool),
    /// Per-page read results (tag of the mapped version, `None` if
    /// unmapped).
    Read(Vec<Option<u64>>),
    /// Whether the trim was acknowledged.
    Trim(bool),
    /// The request exceeded its class deadline on every attempt in the
    /// watchdog's retry budget and was failed without reaching the FTL
    /// (see [`crate::watchdog`]).
    TimedOut,
}

/// A dispatch decision: which submitted request to run next and the
/// earliest simulated time its device commands may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Index of the request in the submitted trace.
    pub idx: usize,
    /// The request itself.
    pub op: HostOp,
    /// When the request's NCQ slot became available (queue wait is
    /// measured from here).
    pub submit: Nanos,
    /// Earliest legal start: the request's submission time (slot
    /// availability) joined with the completion of every earlier request
    /// touching an overlapping logical page.
    pub earliest: Nanos,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    idx: usize,
    op: HostOp,
    /// When the request's NCQ slot became available (the closed-loop
    /// submission time).
    submit: Nanos,
    /// Cached LPA range `[lo, hi)` (the submit and complete walks).
    lo: Lpa,
    hi: Lpa,
    /// Completion time of the latest dispatched request overlapping this
    /// one — seeded from the dependency table at submission and advanced
    /// by [`Scheduler::complete`], so dispatch selection reads it instead
    /// of rescanning the table per candidate per call.
    dep: Nanos,
    /// Earlier-submitted requests with an overlapping range that are still
    /// queued (or mid-dispatch): counted once at submission, released one
    /// by one as they [`Scheduler::complete`]. Zero means eligible.
    blockers: usize,
    /// The driver's hint token, resolved when the request was first
    /// evaluated as eligible (`None`: not yet, or dropped by
    /// [`Scheduler::drop_hint_cache`]).
    token: Option<u64>,
}

impl Queued {
    fn range(&self) -> (Lpa, Lpa) {
        (self.lo, self.hi)
    }
}

/// Closed-loop out-of-order request scoreboard.
///
/// Tracks at most `qd` outstanding requests, per-LPA completion times for
/// dependency ordering, and the in-flight completion heap that paces
/// closed-loop submission.
#[derive(Debug, Clone)]
pub struct Scheduler {
    qd: usize,
    /// Logical capacity in pages; every submitted range must end at or
    /// below it (also bounds the dense `last_done` table).
    logical_pages: u64,
    window: VecDeque<Queued>,
    /// Completion times of dispatched-but-still-outstanding requests.
    inflight: Vec<Nanos>,
    /// Completion time of the latest dispatched request touching each LPA,
    /// as a dense table indexed by LPA (grown on demand; `Nanos::ZERO`
    /// means "never touched", which is exactly what a missing entry meant).
    /// Requests address a bounded logical space, so this stays small and
    /// turns the per-page dependency check into a contiguous slice scan.
    last_done: Vec<Nanos>,
    /// LPA range of the request handed out by [`Scheduler::take_dispatch`]
    /// and not yet [`Scheduler::complete`]d.
    dispatched: Option<(Lpa, Lpa)>,
    /// Monotone submission clock (a slot freed in the past cannot admit a
    /// request before one admitted earlier).
    submit_clock: Nanos,
    /// Total requests ever submitted.
    submitted: u64,
    /// High-water mark of outstanding requests (diagnostics).
    max_outstanding: usize,
}

impl Scheduler {
    /// A scoreboard for queue depth `qd` over a device of
    /// `logical_pages` logical pages.
    ///
    /// # Panics
    ///
    /// Panics if `qd` is zero or `logical_pages` does not fit the host's
    /// address width (the dependency table is indexed by `usize`).
    pub fn new(qd: usize, logical_pages: u64) -> Self {
        assert!(qd >= 1, "queue depth must be at least 1");
        assert!(
            usize::try_from(logical_pages).is_ok(),
            "logical capacity ({logical_pages} pages) exceeds the host-indexable range"
        );
        Scheduler {
            qd,
            logical_pages,
            window: VecDeque::new(),
            inflight: Vec::new(),
            last_done: Vec::new(),
            dispatched: None,
            submit_clock: Nanos::ZERO,
            submitted: 0,
            max_outstanding: 0,
        }
    }

    /// The configured queue depth.
    pub fn queue_depth(&self) -> usize {
        self.qd
    }

    /// Requests currently outstanding (queued, mid-dispatch, or in flight).
    pub fn outstanding(&self) -> usize {
        self.window.len() + self.inflight.len() + usize::from(self.dispatched.is_some())
    }

    /// Largest number of requests that were ever outstanding at once.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Tries to admit trace entry `idx` into the device queue. Returns
    /// `Ok(false)` when every slot is held by a not-yet-dispatched
    /// request — the caller must dispatch before submitting more. When
    /// the queue is full of *in-flight* requests, the oldest-completing
    /// one retires and its completion time becomes this request's
    /// submission time (the closed-loop pacing).
    ///
    /// # Errors
    ///
    /// Rejects (without side effects) a request whose LPA range wraps or
    /// ends beyond the device's logical capacity — see [`SubmitError`].
    pub fn try_submit(&mut self, idx: usize, op: HostOp) -> Result<bool, SubmitError> {
        self.try_submit_at(idx, op, Nanos::ZERO)
    }

    /// [`Scheduler::try_submit`] with an open-loop arrival floor: the
    /// request's submission time is at least `arrival`, so a request
    /// cannot reach the device before the front end handed it over. The
    /// submission clock stays monotone — an `arrival` in the past is a
    /// no-op, exactly like a slot that freed in the past.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scheduler::try_submit`].
    pub fn try_submit_at(
        &mut self,
        idx: usize,
        op: HostOp,
        arrival: Nanos,
    ) -> Result<bool, SubmitError> {
        let (lpa, n) = op.lpa_range();
        let hi = check_lpa_range(lpa, n, self.logical_pages)?;
        if self.outstanding() >= self.qd {
            // Retire the earliest-completing in-flight request to free a
            // slot; with none in flight the queue is all undispatched
            // work and submission must wait.
            let Some(min_at) =
                self.inflight.iter().enumerate().min_by_key(|&(_, t)| *t).map(|(i, _)| i)
            else {
                return Ok(false);
            };
            let freed = self.inflight.swap_remove(min_at);
            self.submit_clock = self.submit_clock.max(freed);
        }
        self.submit_clock = self.submit_clock.max(arrival);
        // Everything still in the window was submitted earlier. A request
        // mid-dispatch counts too: its `complete` releases every
        // overlapping entry it finds, this one included.
        let blocks = |range| ranges_overlap(range, (lpa, hi));
        let blockers = self.window.iter().filter(|e| blocks(e.range())).count()
            + usize::from(self.dispatched.is_some_and(blocks));
        self.window.push_back(Queued {
            idx,
            op,
            submit: self.submit_clock,
            lo: lpa,
            hi,
            dep: self.deps_of(lpa, hi),
            blockers,
            token: None,
        });
        self.submitted += 1;
        self.max_outstanding = self.max_outstanding.max(self.outstanding());
        Ok(true)
    }

    /// Picks the next request to dispatch, removes it from the queue, and
    /// returns its earliest legal start time. Returns `None` when the
    /// queue is empty.
    ///
    /// Eligibility: a request may bypass earlier queued requests only when
    /// its LPA range overlaps none of them — per-LPA program order is
    /// inviolable. Among eligible requests the scheduler picks the one
    /// that can *execute* soonest, using `chip_hint` (e.g. the busy-until
    /// of the chip a read targets) to prefer requests aimed at idle
    /// hardware; ties go to submission order.
    ///
    /// # Panics
    ///
    /// Panics if the previous dispatch was not [`Scheduler::complete`]d.
    pub fn take_dispatch<F: Fn(&HostOp) -> Nanos>(&mut self, chip_hint: F) -> Option<Dispatch> {
        self.take_dispatch_cached(|_| 0, |op, _| chip_hint(op))
    }

    /// [`Scheduler::take_dispatch`] for a driver whose hint splits into a
    /// slow part that is stable while a request waits and a fast part that
    /// is not. `resolve` computes the request's *token* once, the first
    /// time the request is evaluated as eligible; `hint` then scores the
    /// request from its token on every pass. (The emulator's token is the
    /// set of chips a read's pages live on; its per-pass part is those
    /// chips' busy-until times.) The token must stay valid while the
    /// request is queued and eligible — see the module's cost model for
    /// the invariants that buys it, and [`Scheduler::drop_hint_cache`] for
    /// when they break.
    ///
    /// # Panics
    ///
    /// Panics if the previous dispatch was not [`Scheduler::complete`]d.
    pub fn take_dispatch_cached(
        &mut self,
        mut resolve: impl FnMut(&HostOp) -> u64,
        mut hint: impl FnMut(&HostOp, u64) -> Nanos,
    ) -> Option<Dispatch> {
        assert!(self.dispatched.is_none(), "previous dispatch not completed");
        let mut best: Option<(usize, Nanos, Nanos)> = None; // (pos, score, earliest)
        for (pos, q) in self.window.iter_mut().enumerate() {
            if q.blockers != 0 {
                continue;
            }
            let token = *q.token.get_or_insert_with(|| resolve(&q.op));
            let earliest = q.submit.max(q.dep);
            let score = earliest.max(hint(&q.op, token));
            if best.is_none_or(|(_, s, _)| score < s) {
                best = Some((pos, score, earliest));
            }
        }
        let (pos, _, earliest) = best?;
        let q = self.window.remove(pos).expect("selected position exists");
        self.dispatched = Some(q.range());
        Some(Dispatch { idx: q.idx, op: q.op, submit: q.submit, earliest })
    }

    /// Forgets every queued request's hint token, so the next pass
    /// resolves them afresh. The driver calls it whenever something other
    /// than a dispatched request may have changed what `resolve` would
    /// return (the emulator: a chaos-guard injection or repair rewrote L2P
    /// entries behind the queue's back).
    pub fn drop_hint_cache(&mut self) {
        for q in &mut self.window {
            q.token = None;
        }
    }

    /// Records the completion time of the request returned by the last
    /// [`Scheduler::take_dispatch`]: its pages' dependency times advance
    /// and the request joins the in-flight set.
    ///
    /// # Panics
    ///
    /// Panics when no dispatch is pending.
    pub fn complete(&mut self, done: Nanos) {
        let (lo, hi) = self.dispatched.take().expect("no dispatch pending");
        // The range was checked at submission, so the casts and slice
        // bounds below cannot wrap.
        let end = hi as usize;
        if self.last_done.len() < end {
            self.last_done.resize(end, Nanos::ZERO);
        }
        for e in &mut self.last_done[lo as usize..end] {
            *e = (*e).max(done);
        }
        // Advance the cached dependency time of every queued request the
        // completed one overlaps, and release it as their blocker (the
        // window is at most `qd` entries). The completed request was
        // eligible, so everything it overlaps was submitted after it and
        // counted it.
        for w in &mut self.window {
            if ranges_overlap(w.range(), (lo, hi)) {
                w.dep = w.dep.max(done);
                debug_assert!(w.blockers > 0, "request {} never counted its blocker", w.idx);
                w.blockers -= 1;
            }
        }
        self.inflight.push(done);
    }

    /// Completion time of the latest dispatched request overlapping the
    /// (already range-checked) span `[lo, hi)`.
    fn deps_of(&self, lo: Lpa, hi: Lpa) -> Nanos {
        let lo = (lo as usize).min(self.last_done.len());
        let hi = (hi as usize).min(self.last_done.len());
        self.last_done[lo..hi].iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// Simulated completion time of the whole run: the latest in-flight
    /// completion (call after the queue drains).
    pub fn drain(&self) -> Nanos {
        assert!(self.window.is_empty() && self.dispatched.is_none(), "queue not drained");
        self.inflight.iter().copied().max().unwrap_or(self.submit_clock)
    }
}

/// Summary of one [`crate::emulator::Emulator::run_scheduled`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedRun {
    /// Per-request host-visible results, in trace order.
    pub results: Vec<OpResult>,
    /// Per-request absolute completion times (device clock), in trace
    /// order. Unlike `results` these are timing, not host-visible data:
    /// they vary with queue depth and are what open-loop callers (the
    /// fleet layer) use to attribute end-to-end sojourn latency.
    pub completions: Vec<Nanos>,
    /// Per-request NCQ slot-acquisition times (device clock), in trace
    /// order. `completions[i] - submits[i]` is the device-side end-to-end
    /// latency; `submits[i] - arrival` is the slot wait the open-loop
    /// front end imposed.
    pub submits: Vec<Nanos>,
    /// Simulated time the run occupied (completion of the last request
    /// minus the device time when the run started).
    pub sim_time: Nanos,
    /// Logical pages touched by dispatched requests.
    pub host_pages: u64,
    /// Requests dispatched.
    pub requests: u64,
    /// High-water mark of outstanding requests.
    pub max_outstanding: usize,
}

impl SchedRun {
    /// Host page operations per simulated second.
    pub fn iops(&self) -> f64 {
        let secs = self.sim_time.as_secs_f64();
        if secs > 0.0 {
            self.host_pages as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(lpa: Lpa, npages: u64) -> HostOp {
        HostOp::Write { lpa, npages, secure: true }
    }

    #[test]
    fn qd1_serializes_every_request() {
        let mut s = Scheduler::new(1, 1 << 20);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(!s.try_submit(1, w(5, 1)).unwrap(), "queue of one is full");
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.idx, 0);
        assert_eq!(d.earliest, Nanos::ZERO);
        s.complete(Nanos::from_micros(700));
        // The next submission waits for the first completion even though
        // the LPAs are disjoint: queue depth, not data dependence.
        assert!(s.try_submit(1, w(5, 1)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.earliest, Nanos::from_micros(700));
    }

    #[test]
    fn same_lpa_requests_never_reorder() {
        let mut s = Scheduler::new(8, 1 << 20);
        assert!(s.try_submit(0, w(3, 2)).unwrap());
        assert!(s.try_submit(1, HostOp::Read { lpa: 4, npages: 1 }).unwrap()); // overlaps 0
        assert!(s.try_submit(2, w(100, 1)).unwrap()); // independent
                                                      // Request 1 is ineligible while request 0 is queued; request 2 may
                                                      // bypass both. Bias the hint so 2 looks cheapest.
        let hint =
            |op: &HostOp| if op.lpa_range().0 == 100 { Nanos::ZERO } else { Nanos::from_micros(9) };
        let d = s.take_dispatch(hint).unwrap();
        assert_eq!(d.idx, 2, "independent request bypasses");
        s.complete(Nanos::from_micros(700));
        let d = s.take_dispatch(hint).unwrap();
        assert_eq!(d.idx, 0, "read must not pass the overlapping write");
        s.complete(Nanos::from_micros(1400));
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.idx, 1);
        assert_eq!(d.earliest, Nanos::from_micros(1400), "RAW dependency honored");
        s.complete(Nanos::from_micros(1480));
        assert!(s.take_dispatch(|_| Nanos::ZERO).is_none());
        assert_eq!(s.drain(), Nanos::from_micros(1480));
    }

    #[test]
    fn closed_loop_paces_submission_on_oldest_completion() {
        let mut s = Scheduler::new(2, 1 << 20);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, w(1, 1)).unwrap());
        let d0 = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(900));
        let d1 = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!((d0.idx, d1.idx), (0, 1));
        assert_eq!(d1.earliest, Nanos::ZERO, "second slot was free at time zero");
        s.complete(Nanos::from_micros(300));
        // Both slots held: the new request's submit time is the *earlier*
        // completion (300 us), not the later one.
        assert!(s.try_submit(2, w(2, 1)).unwrap());
        let d2 = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d2.earliest, Nanos::from_micros(300));
        s.complete(Nanos::from_micros(1100));
        assert_eq!(s.max_outstanding(), 2);
    }

    #[test]
    fn submission_clock_is_monotone() {
        let mut s = Scheduler::new(2, 1 << 20);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, w(1, 1)).unwrap());
        s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(1000));
        s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(400));
        assert!(s.try_submit(2, w(2, 1)).unwrap()); // frees the 400 us slot
        assert!(s.try_submit(3, w(3, 1)).unwrap()); // frees the 1000 us slot
        let d2 = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(1500));
        let d3 = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d2.earliest, Nanos::from_micros(400));
        assert_eq!(d3.earliest, Nanos::from_micros(1000), "submissions stay in host order");
    }

    #[test]
    fn full_window_of_undispatched_work_blocks_submission() {
        let mut s = Scheduler::new(2, 1 << 20);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, w(1, 1)).unwrap());
        assert!(!s.try_submit(2, w(2, 1)).unwrap(), "nothing in flight to retire");
        s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(10));
        assert!(s.try_submit(2, w(2, 1)).unwrap());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_rejected() {
        Scheduler::new(0, 1 << 20);
    }

    #[test]
    fn range_overflow_near_u64_max_is_a_typed_error_not_a_panic() {
        // Regression: `hi: lpa + n` was unchecked — this submission
        // panicked in debug ("attempt to add with overflow") and wrapped
        // in release, making the range compare as disjoint from
        // everything it actually overlaps.
        let mut s = Scheduler::new(4, u64::MAX);
        let err = s.try_submit(0, w(u64::MAX - 2, 4)).unwrap_err();
        assert_eq!(err, SubmitError::RangeOverflow { lpa: u64::MAX - 2, npages: 4 });
        assert_eq!(s.outstanding(), 0, "rejected submissions leave no residue");
        // A representable range at the very top of the space is fine.
        assert!(s.try_submit(0, w(u64::MAX - 4, 4)).unwrap());
    }

    #[test]
    fn out_of_bounds_requests_are_rejected_at_submission() {
        let mut s = Scheduler::new(4, 100);
        let err = s.try_submit(0, w(99, 2)).unwrap_err();
        assert_eq!(err, SubmitError::OutOfBounds { lpa: 99, npages: 2, logical_pages: 100 });
        assert!(err.to_string().contains("100-page logical capacity"), "{err}");
        assert!(s.try_submit(0, w(99, 1)).unwrap(), "the last page is addressable");
    }

    #[test]
    fn zero_page_requests_are_legal_noops() {
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, w(5, 0)).unwrap());
        assert!(s.try_submit(1, w(5, 1)).unwrap(), "empty range blocks nothing");
        assert!(s.try_submit(2, w(100, 0)).unwrap(), "empty range at the boundary");
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.op.npages(), 0);
        s.complete(Nanos::from_micros(1));
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.idx, 1, "the write was never blocked by the empty range");
        s.complete(Nanos::from_micros(2));
        s.take_dispatch(|_| Nanos::ZERO).unwrap();
        s.complete(Nanos::from_micros(3));
    }

    #[test]
    fn empty_range_inside_a_queued_request_neither_blocks_nor_waits() {
        // `w(5, 0)` starts strictly inside `w(3, 5)`, where an interval test
        // that forgets emptiness (`a.lo < b.hi && b.lo < a.hi`) sees an
        // overlap.
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, w(3, 5)).unwrap());
        assert!(s.try_submit(1, w(5, 0)).unwrap());
        assert!(s.try_submit(2, w(4, 2)).unwrap());
        let late = |op: &HostOp| if op.npages() == 0 { Nanos::ZERO } else { Nanos::from_micros(9) };
        let d = s.take_dispatch(late).unwrap();
        assert_eq!(d.idx, 1, "the empty request bypasses the write it sits inside");
        s.complete(Nanos::from_micros(50));
        let d = s.take_dispatch(late).unwrap();
        assert_eq!((d.idx, d.earliest), (0, Nanos::ZERO), "and delayed nothing");
        s.complete(Nanos::from_micros(700));
        let d = s.take_dispatch(late).unwrap();
        assert_eq!((d.idx, d.earliest), (2, Nanos::from_micros(700)), "real overlaps still order");
        s.complete(Nanos::from_micros(1400));
        assert_eq!(s.drain(), Nanos::from_micros(1400));
    }

    #[test]
    fn submission_between_take_and_complete_counts_the_dispatched_request() {
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, w(3, 2)).unwrap());
        assert_eq!(s.take_dispatch(|_| Nanos::ZERO).unwrap().idx, 0);
        assert!(s.try_submit(1, w(4, 1)).unwrap(), "overlaps the request mid-dispatch");
        s.complete(Nanos::from_micros(700));
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!((d.idx, d.earliest), (1, Nanos::from_micros(700)));
        s.complete(Nanos::from_micros(800));
    }

    #[test]
    fn hint_tokens_resolve_once_until_dropped() {
        let mut s = Scheduler::new(4, 100);
        for i in 0..3 {
            assert!(s.try_submit(i, w(10 * i as u64, 1)).unwrap());
        }
        let resolved = std::cell::Cell::new(0);
        let pass = |s: &mut Scheduler| {
            let d = s.take_dispatch_cached(
                |op| {
                    resolved.set(resolved.get() + 1);
                    op.lpa_range().0
                },
                |op, token| {
                    assert_eq!(token, op.lpa_range().0, "each entry keeps its own token");
                    Nanos::ZERO
                },
            );
            s.complete(Nanos::from_micros(1));
            d.unwrap().idx
        };
        assert_eq!(pass(&mut s), 0);
        assert_eq!(resolved.get(), 3, "every eligible entry resolved on the first pass");
        assert_eq!(pass(&mut s), 1);
        assert_eq!(resolved.get(), 3, "and never again while it waits");
        s.drop_hint_cache();
        assert_eq!(pass(&mut s), 2);
        assert_eq!(resolved.get(), 4, "until the driver drops the cache");
    }

    #[test]
    fn arrival_floor_delays_submission_but_stays_monotone() {
        let mut s = Scheduler::new(2, 100);
        assert!(s.try_submit_at(0, w(0, 1), Nanos::from_micros(500)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.earliest, Nanos::from_micros(500), "open-loop arrival floors the start");
        s.complete(Nanos::from_micros(700));
        // An arrival in the past cannot rewind the clock.
        assert!(s.try_submit_at(1, w(1, 1), Nanos::from_micros(100)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.submit, Nanos::from_micros(500));
        s.complete(Nanos::from_micros(900));
    }

    #[test]
    fn overlap_is_range_intersection() {
        assert!(w(0, 4).overlaps(&w(3, 1)));
        assert!(!w(0, 4).overlaps(&w(4, 1)));
        assert!(w(10, 1).overlaps(&HostOp::Trim { lpa: 8, npages: 3 }));
        assert!(!w(10, 1).overlaps(&HostOp::Read { lpa: 11, npages: 2 }));
        assert!(!w(3, 5).overlaps(&w(5, 0)) && !w(5, 0).overlaps(&w(3, 5)), "empty: no pages");
    }
}
