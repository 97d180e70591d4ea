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
//! The window is `qd` fixed **slots in struct-of-arrays** — `lo`/`hi` (a
//! free slot holds the empty range `[0, 0)`), `blockers`, `earliest`,
//! `score` (free, blocked or unscored: `u64::MAX`), `token`, the cold
//! `(idx, op, submit, tag)` record, and `next`, which threads the queued
//! slots into a list in submission order — beside a free-slot list and
//! bitsets of slots. Nothing is shifted or allocated per request. The work of a request scales with what it
//! changed — the chips its commands moved and the requests it blocked —
//! not with the queue depth times the chip count.
//!
//! * **Submit is one pass over `lo`/`hi` and one over the in-flight
//!   list.** The first counts the new request's *blockers* (earlier,
//!   still-queued requests sharing a page; an empty range shares none, so
//!   free slots need no test); the second finds both the oldest completion,
//!   which retires when the window is full, and the latest overlapping one,
//!   which seeds `earliest = max(submit, dependencies)`. A write's tag
//!   offset is numbered here, in submission order. No per-LPA table is
//!   needed: a request leaves the in-flight list only at a submission that
//!   first raises the clock to its completion, and the clock never falls,
//!   so every forgotten completion is already in `earliest` through
//!   `submit`.
//! * **Complete visits only the blocked slots** (a bitset beside `fresh`
//!   and `frontier`): the completed request was eligible, so every slot it
//!   overlaps was submitted after it and counted it. It raises their
//!   `earliest` and releases one blocker each; a request is eligible iff
//!   its count is zero.
//! * **Dispatch is a min over `score` in submission order**: the first
//!   slot holding the lowest score wins, which is `(score, seq)` order
//!   without a sequence number, and the list unlinks the winner. On
//!   the chip-aware path ([`Scheduler::take_dispatch_chips`]) scores are
//!   *maintained*: a read is scored from scratch once, when it first
//!   becomes eligible — which is also when the driver resolves its
//!   *token*, the set of chips holding its mapped pages — and joins its
//!   chips' waiter sets; from then on only a chip the driver names in its
//!   **moved** mask touches its waiters (`score = max(score, free_at(c))`),
//!   and no other chip's busy-until is read. Queued writes all wait on the
//!   allocation frontier's chip and are rescored as a class. No L2P entry
//!   is read during a pass. The closure-hinted [`Scheduler::take_dispatch`]
//!   scores every eligible slot afresh (devices wider than the 64-bit
//!   token, direct timing).
//!
//! A maintained score rests on three invariants:
//!
//! 1. **Busy-until is monotone**, so raising a waiter by the chips that
//!    moved equals rescoring it, and a chip that did not move leaves its
//!    waiters' scores standing — the one the mask rests on. The driver owes
//!    a mask naming every chip whose busy-until changed since the last pass
//!    (a superset is fine; the emulator's executor sets a chip's bit on
//!    every reservation and all of them on a power-on or a restored
//!    checkpoint), and the first pass reads every chip. Monotonicity is not
//!    trusted silently: a moved chip that reads *lower* than last pass
//!    rescans its waiters from all their chips.
//! 2. **`earliest` is fixed once eligible**: everything `complete` overlaps
//!    counted the completed request, so it is still blocked.
//! 3. **The token stays valid while its request waits**; the driver owns
//!    this one. *Per-LPA ordering*: while a request is queued and eligible,
//!    no overlapping request is dispatched (later ones are blocked by it;
//!    earlier ones have completed), so no host write or trim remaps its
//!    pages. *Intra-chip relocation*: whatever the FTL moves behind the
//!    host's back (GC, scrub sibling moves, bad-block evacuation) is
//!    re-allocated on the *same chip*, so a mapped page's chip — all the
//!    token records — is stable even when its physical address is not.
//!    The one path that breaks it is the chaos guard, which injects and
//!    repairs L2P corruption between requests; the driver answers with
//!    [`Scheduler::drop_hint_cache`].

use evanesco_ftl::Lpa;
use evanesco_nand::timing::Nanos;

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
    /// A write's first page among the write pages submitted to this
    /// scheduler, counted from zero in submission order: the driver adds
    /// its own first content tag. Numbering at submission keeps the tags a
    /// request returns independent of the queue depth. Zero for a read or a
    /// trim.
    pub tag: u64,
}

/// Score of a slot no dispatch pass may pick: free, blocked or unscored.
const UNSCORED: Nanos = Nanos(u64::MAX);

/// Blocker count of a free slot: never zero, so never eligible (a free slot
/// is in no slot set, so [`Scheduler::complete`] never decrements it).
const FREE: u32 = u32::MAX;

/// The members of one word of a bitset whose bit 0 stands for `base`: the
/// chips of a token, or 64 slots of a slot set.
fn members(base: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(base + bit)
    })
}

/// The chips below `n` (at most 64), as a token.
fn first_chips(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The latest busy-until among the chips in `token`; zero for the empty
/// set, like a read of unmapped pages.
fn latest_free(token: u64, free_at: &impl Fn(usize) -> Nanos) -> Nanos {
    members(0, token).map(free_at).max().unwrap_or(Nanos::ZERO)
}

/// Closed-loop out-of-order request scoreboard.
///
/// Tracks at most `qd` outstanding requests and the in-flight completions
/// (with their LPA ranges) that both pace closed-loop submission and
/// answer dependency ordering.
#[derive(Debug, Clone)]
pub struct Scheduler {
    qd: usize,
    /// Logical capacity in pages; every submitted range must end at or
    /// below it.
    logical_pages: u64,
    /// The window, one entry per slot in each array (see the module's cost
    /// model): the LPA range `[lo, hi)`; …
    lo: Vec<Lpa>,
    hi: Vec<Lpa>,
    /// … the earlier-submitted requests with an overlapping range that are
    /// still queued (or mid-dispatch), counted at submission and released
    /// one by one as they [`Scheduler::complete`] (zero means eligible; a
    /// free slot holds [`FREE`]); …
    blockers: Vec<u32>,
    /// … the submission time joined with the completion of every dispatched
    /// request overlapping this one: seeded from `inflight` at submission
    /// and advanced by [`Scheduler::complete`]; …
    earliest: Vec<Nanos>,
    /// … the maintained score, the hint token (zero unless the slot is in
    /// its chips' `waiters`) and what [`Dispatch`] hands back: `(idx, op,
    /// submit, tag)`.
    score: Vec<Nanos>,
    token: Vec<u64>,
    req: Vec<(usize, HostOp, Nanos, u64)>,
    /// The queued slots in submission order (the tie-break), as a list
    /// threaded through the slots: `next[i]` follows slot `i`, entry `qd`
    /// is the list's head, and the last queued slot (`tail`, or `qd` when
    /// none is queued) points back at it. Beside it, the free slots.
    next: Vec<usize>,
    tail: usize,
    free: Vec<usize>,
    /// Slot sets of `qd.div_ceil(64)` words each: the eligible requests no
    /// chip-aware pass has scored yet, the scored writes, the blocked
    /// requests, and — per chip, sized by the first such pass — the scored
    /// reads waiting on it, beside its busy-until as the last pass read it.
    fresh: Vec<u64>,
    frontier: Vec<u64>,
    blocked: Vec<u64>,
    waiters: Vec<u64>,
    last_free: Vec<Nanos>,
    /// Completion time and LPA range `[lo, hi)` of every
    /// dispatched-but-still-outstanding request (at most `qd`).
    inflight: Vec<(Nanos, Lpa, Lpa)>,
    /// LPA range of the request handed out by [`Scheduler::take_dispatch`]
    /// and not yet [`Scheduler::complete`]d.
    dispatched: Option<(Lpa, Lpa)>,
    /// Monotone submission clock (a slot freed in the past cannot admit a
    /// request before one admitted earlier).
    submit_clock: Nanos,
    /// Pages of every write submitted so far: the next write's
    /// [`Dispatch::tag`].
    write_pages: u64,
    /// High-water mark of outstanding requests (diagnostics).
    max_outstanding: usize,
}

impl Scheduler {
    /// A scoreboard for queue depth `qd` over a device of
    /// `logical_pages` logical pages.
    ///
    /// # Panics
    ///
    /// Panics if `qd` is zero.
    pub fn new(qd: usize, logical_pages: u64) -> Self {
        assert!(qd >= 1, "queue depth must be at least 1");
        Scheduler {
            qd,
            logical_pages,
            lo: vec![0; qd],
            hi: vec![0; qd],
            blockers: vec![FREE; qd],
            earliest: vec![Nanos::ZERO; qd],
            score: vec![UNSCORED; qd],
            token: vec![0; qd],
            req: vec![(0, HostOp::Trim { lpa: 0, npages: 0 }, Nanos::ZERO, 0); qd],
            next: vec![qd; qd + 1],
            tail: qd,
            free: (0..qd).rev().collect(),
            fresh: vec![0; qd.div_ceil(64)],
            frontier: vec![0; qd.div_ceil(64)],
            blocked: vec![0; qd.div_ceil(64)],
            waiters: Vec::new(),
            last_free: Vec::new(),
            inflight: Vec::with_capacity(qd),
            dispatched: None,
            submit_clock: Nanos::ZERO,
            write_pages: 0,
            max_outstanding: 0,
        }
    }

    /// Requests currently outstanding (queued, mid-dispatch, or in flight).
    pub fn outstanding(&self) -> usize {
        self.qd - self.free.len() + self.inflight.len() + usize::from(self.dispatched.is_some())
    }

    /// Largest number of requests that were ever outstanding at once.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Pages of every write submitted so far (the tags the driver handed
    /// out, counted from its first).
    pub(crate) fn write_pages(&self) -> u64 {
        self.write_pages
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
        // One pass over the in-flight list: the earliest completion (the
        // first of equals), which retires when the window is full, and the
        // latest overlapping one. Counting the retiring entry is harmless:
        // it completes at or before the clock it raises.
        let (mut oldest, mut deps) = (None, Nanos::ZERO);
        for (k, &(done, l, h)) in self.inflight.iter().enumerate() {
            if oldest.is_none_or(|(_, t)| done < t) {
                oldest = Some((k, done));
            }
            if ranges_overlap((l, h), (lpa, hi)) {
                deps = deps.max(done);
            }
        }
        if self.outstanding() >= self.qd {
            // Retire the earliest-completing in-flight request to free a
            // slot; with none in flight the queue is all undispatched
            // work and submission must wait.
            let Some((k, retired)) = oldest else {
                return Ok(false);
            };
            self.inflight.swap_remove(k);
            self.submit_clock = self.submit_clock.max(retired);
        }
        self.submit_clock = self.submit_clock.max(arrival);
        // Everything still in a slot was submitted earlier. A request
        // mid-dispatch counts too: its `complete` releases every
        // overlapping slot it finds, this one included.
        let blocks = |range| ranges_overlap(range, (lpa, hi));
        let mut blockers = u32::from(self.dispatched.is_some_and(blocks));
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            blockers += u32::from(blocks((l, h)));
        }
        let i = self.free.pop().expect("fewer than qd outstanding leaves a free slot");
        (self.lo[i], self.hi[i], self.blockers[i]) = (lpa, hi, blockers);
        // What lets the in-flight list forget retired requests: every one
        // completed at or before the clock (see the cost model).
        self.earliest[i] = self.submit_clock.max(deps);
        let tag = if let HostOp::Write { npages, .. } = op {
            self.write_pages += npages;
            self.write_pages - npages
        } else {
            0
        };
        self.req[i] = (idx, op, self.submit_clock, tag);
        (self.next[i], self.next[self.tail], self.tail) = (self.qd, i, i);
        let set = if blockers == 0 { &mut self.fresh } else { &mut self.blocked };
        set[i / 64] |= 1 << (i % 64);
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
    /// hardware; ties go to submission order. The generic path: every
    /// eligible request is scored afresh, whatever the hint is made of.
    ///
    /// # Panics
    ///
    /// Panics if the previous dispatch was not [`Scheduler::complete`]d.
    pub fn take_dispatch<F: Fn(&HostOp) -> Nanos>(&mut self, chip_hint: F) -> Option<Dispatch> {
        assert!(self.dispatched.is_none(), "previous dispatch not completed");
        let mut best: Option<((usize, usize), Nanos)> = None;
        for (prev, i) in self.queued() {
            if self.blockers[i] == 0 {
                let score = self.earliest[i].max(chip_hint(&self.req[i].1));
                if best.is_none_or(|(_, low)| score < low) {
                    best = Some(((prev, i), score));
                }
            }
        }
        best.map(|((prev, i), _)| self.take(prev, i))
    }

    /// [`Scheduler::take_dispatch`] for a driver whose hint is the
    /// busy-until of chips: a read waits on the chips in its *token*
    /// (bit `c` is chip `c`), a write on `write_chip` (the allocation
    /// frontier), a trim on none. `free_at(c)` is chip `c`'s busy-until now,
    /// for `c` below `n_chips`, and `moved` holds (at least) every chip whose
    /// busy-until changed since the last pass; the first pass reads them
    /// all. `resolve` computes a read's token once, the first time the read
    /// is seen eligible; from then on its score is maintained, not
    /// recomputed — see the module's cost model for the invariants that
    /// buys it, and [`Scheduler::drop_hint_cache`] for when they break.
    ///
    /// # Panics
    ///
    /// Panics if the previous dispatch was not [`Scheduler::complete`]d,
    /// and — naming the request's index — on a token bit or a `write_chip`
    /// at or beyond `n_chips`.
    pub fn take_dispatch_chips(
        &mut self,
        n_chips: usize,
        free_at: impl Fn(usize) -> Nanos,
        moved: u64,
        write_chip: usize,
        mut resolve: impl FnMut(&HostOp) -> u64,
    ) -> Option<Dispatch> {
        assert!(self.dispatched.is_none(), "previous dispatch not completed");
        // Only the first 64 chips can appear in a token, so only they can
        // have waiters; the first pass reads every one of them.
        let (words, tracked) = (self.fresh.len(), n_chips.min(64));
        let chips = first_chips(tracked);
        let mut moved = moved & chips;
        if self.last_free.len() != tracked {
            self.last_free = vec![Nanos::ZERO; tracked];
            self.waiters = vec![0; tracked * words];
            self.drop_hint_cache();
            moved = chips;
        }
        for c in members(0, moved) {
            let now = free_at(c);
            let last = std::mem::replace(&mut self.last_free[c], now);
            if now == last {
                continue;
            }
            // Monotone busy-until makes the raise exact; a chip that went
            // backwards rescans its waiters from all their chips instead.
            for (w, &word) in self.waiters[c * words..][..words].iter().enumerate() {
                for i in members(w * 64, word) {
                    self.score[i] = if now < last {
                        self.earliest[i].max(latest_free(self.token[i], &free_at))
                    } else {
                        self.score[i].max(now)
                    };
                }
            }
        }
        for w in 0..words {
            for i in members(w * 64, std::mem::take(&mut self.fresh[w])) {
                let (idx, op, ..) = self.req[i];
                self.score[i] = self.earliest[i];
                match op {
                    HostOp::Trim { .. } => {}
                    HostOp::Write { .. } => self.frontier[w] |= 1 << (i % 64),
                    HostOp::Read { .. } => {
                        let token = resolve(&op);
                        assert!(
                            token & !chips == 0,
                            "request {idx}: hint token {token:#x} names a chip beyond the {n_chips} given"
                        );
                        self.token[i] = token;
                        self.score[i] = self.earliest[i].max(latest_free(token, &free_at));
                        self.flip_waiter(i);
                    }
                }
            }
            for i in members(w * 64, self.frontier[w]) {
                let idx = self.req[i].0;
                assert!(
                    write_chip < n_chips,
                    "request {idx}: write chip {write_chip} is beyond the {n_chips} given"
                );
                self.score[i] = self.earliest[i].max(free_at(write_chip));
            }
        }
        // The lowest score, ties to the oldest: the first minimum in
        // submission order. A blocked slot reads `UNSCORED` and never wins.
        // (The walk is spelled out: it is the pass's one chain of dependent
        // loads, and an iterator adapter over it measured slower.)
        let (mut best, mut low) = ((self.qd, self.qd), UNSCORED);
        let (mut prev, mut i) = (self.qd, self.next[self.qd]);
        while i != self.qd {
            if self.score[i] < low {
                (best, low) = ((prev, i), self.score[i]);
            }
            (prev, i) = (i, self.next[i]);
        }
        // Nothing is eligible — or every eligible request has the one score
        // that ties with the blocked slots.
        let (prev, i) = if low < UNSCORED {
            best
        } else {
            self.queued().find(|&(_, i)| self.blockers[i] == 0)?
        };
        Some(self.take(prev, i))
    }

    /// The queued slots in submission order, each with the one before it
    /// (`qd` for the first).
    fn queued(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut prev = self.qd;
        std::iter::from_fn(move || {
            let i = self.next[prev];
            (i != self.qd).then(|| (std::mem::replace(&mut prev, i), i))
        })
    }

    /// Flips slot `i`'s membership in the waiter set of every chip in its
    /// token (joining when scored, leaving when taken).
    fn flip_waiter(&mut self, i: usize) {
        for c in members(0, self.token[i]) {
            self.waiters[c * self.fresh.len() + i / 64] ^= 1 << (i % 64);
        }
    }

    /// Empties queued slot `i`, which follows `prev` in submission order,
    /// into the pending dispatch.
    fn take(&mut self, prev: usize, i: usize) -> Dispatch {
        self.next[prev] = self.next[i];
        if self.tail == i {
            self.tail = prev;
        }
        self.flip_waiter(i);
        self.fresh[i / 64] &= !(1 << (i % 64));
        self.frontier[i / 64] &= !(1 << (i % 64));
        let (idx, op, submit, tag) = self.req[i];
        self.dispatched = Some((self.lo[i], self.hi[i]));
        (self.lo[i], self.hi[i], self.blockers[i]) = (0, 0, FREE);
        (self.score[i], self.token[i]) = (UNSCORED, 0);
        self.free.push(i);
        Dispatch { idx, op, submit, earliest: self.earliest[i], tag }
    }

    /// Forgets every queued request's hint token and score, so the next
    /// chip-aware pass resolves them afresh. The driver calls it whenever
    /// something other than a dispatched request may have changed what
    /// `resolve` would return (the emulator: a chaos-guard injection or
    /// repair rewrote L2P entries behind the queue's back).
    pub fn drop_hint_cache(&mut self) {
        self.waiters.fill(0);
        self.frontier.fill(0);
        self.token.fill(0);
        self.score.fill(UNSCORED);
        for (i, &blockers) in self.blockers.iter().enumerate() {
            self.fresh[i / 64] |= u64::from(blockers == 0) << (i % 64);
        }
    }

    /// Every eligible request a chip-aware pass has scored, as `(op,
    /// earliest, maintained score)` — for the driver's debug cross-check.
    pub fn scored(&self) -> impl Iterator<Item = (HostOp, Nanos, Nanos)> + '_ {
        let scored = (0..self.qd).filter(|&i| self.score[i] != UNSCORED);
        scored.map(|i| (self.req[i].1, self.earliest[i], self.score[i]))
    }

    /// Records the completion time of the request returned by the last
    /// [`Scheduler::take_dispatch`]: the queued requests it blocked advance
    /// and the request joins the in-flight set.
    ///
    /// # Panics
    ///
    /// Panics when no dispatch is pending.
    pub fn complete(&mut self, done: Nanos) {
        let (lo, hi) = self.dispatched.take().expect("no dispatch pending");
        // Advance the dependency time of every queued request the completed
        // one overlaps, and release it as their blocker. The completed
        // request was eligible, so everything it overlaps was submitted
        // after it and counted it: only blocked slots can overlap it, and
        // they are unscored.
        for w in 0..self.blocked.len() {
            for i in members(w * 64, self.blocked[w]) {
                if ranges_overlap((self.lo[i], self.hi[i]), (lo, hi)) {
                    self.earliest[i] = self.earliest[i].max(done);
                    self.blockers[i] -= 1;
                    if self.blockers[i] == 0 {
                        self.blocked[w] &= !(1 << (i % 64));
                        self.fresh[w] |= 1 << (i % 64);
                    }
                }
            }
        }
        self.inflight.push((done, lo, hi));
    }

    /// Simulated completion time of the whole run: the latest in-flight
    /// completion (call after the queue drains).
    pub fn drain(&self) -> Nanos {
        assert!(self.free.len() == self.qd && self.dispatched.is_none(), "queue not drained");
        self.inflight.iter().map(|&(done, ..)| done).max().unwrap_or(self.submit_clock)
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
    fn a_retired_completion_never_exceeds_the_submission_clock() {
        // Dependencies come from the in-flight window alone: a request
        // retires only once the clock has reached its completion, so the
        // clock already orders everything that overlapped it.
        let us = Nanos::from_micros;
        let mut s = Scheduler::new(2, 100);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, w(5, 1)).unwrap());
        for done in [900, 300] {
            s.take_dispatch(|_| Nanos::ZERO).unwrap();
            s.complete(us(done));
        }
        // Retires request 1 at 300 us; request 0, in flight, orders this one.
        assert!(s.try_submit(2, w(0, 1)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!((d.submit, d.earliest), (us(300), us(900)));
        s.complete(us(1000));
        // Retires request 0 at 900 us. Request 1, which this one overlaps,
        // left the window at 300 us: the clock covers it.
        assert!(s.try_submit(3, w(5, 1)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!((d.submit, d.earliest), (us(900), us(900)));
        s.complete(us(1100));
        // Retires request 2 at 1000 us; request 3, in flight, orders this one.
        assert!(s.try_submit(4, w(4, 2)).unwrap());
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!((d.submit, d.earliest), (us(1000), us(1100)));
        s.complete(us(1200));
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

    fn r(lpa: Lpa) -> HostOp {
        HostOp::Read { lpa, npages: 1 }
    }

    /// A chip-aware pass over the busy-until table `free_at`, naming the
    /// chips in `moved` as the ones that moved.
    fn chips_pass(
        s: &mut Scheduler,
        free_at: &[Nanos],
        moved: u64,
        write_chip: usize,
        resolve: impl FnMut(&HostOp) -> u64,
    ) -> Option<Dispatch> {
        s.take_dispatch_chips(free_at.len(), |c| free_at[c], moved, write_chip, resolve)
    }

    #[test]
    fn hint_tokens_resolve_once_until_dropped() {
        let mut s = Scheduler::new(4, 100);
        for i in 0..3 {
            assert!(s.try_submit(i, r(10 * i as u64)).unwrap());
        }
        let mut resolved = 0;
        let mut pass = |s: &mut Scheduler| {
            // Each read waits on the chip its LPA names: 0, 1 and 2, ever busier.
            let free_at = [1, 2, 3, 4].map(Nanos::from_micros);
            let d = chips_pass(s, &free_at, u64::MAX, 3, |op| {
                resolved += 1;
                1 << (op.lpa_range().0 / 10)
            });
            s.complete(Nanos::from_micros(1));
            (d.unwrap().idx, resolved)
        };
        assert_eq!(pass(&mut s), (0, 3), "every eligible read resolved on the first pass");
        assert_eq!(pass(&mut s), (1, 3), "and never again while it waits");
        s.drop_hint_cache();
        assert_eq!(pass(&mut s), (2, 4), "until the driver drops the cache");
    }

    #[test]
    fn writes_wait_on_the_frontier_reads_on_their_chips_trims_on_nothing() {
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, r(10)).unwrap());
        assert!(s.try_submit(2, HostOp::Trim { lpa: 20, npages: 1 }).unwrap());
        let mut free_at = [9, 5, 7].map(Nanos::from_micros);
        let pass = |s: &mut Scheduler, free_at: &[Nanos], write_chip| {
            let d = chips_pass(s, free_at, u64::MAX, write_chip, |_| 0b110).unwrap();
            s.complete(Nanos::from_micros(1));
            d.idx
        };
        assert_eq!(pass(&mut s, &free_at, 0), 2, "the trim scores zero");
        assert!(s.try_submit(3, w(30, 1)).unwrap());
        // The frontier moves to an idle chip: both writes now beat the read,
        // in submission order, although the older one sits in a later slot.
        free_at[1] = Nanos::from_micros(6);
        assert_eq!(pass(&mut s, &free_at, 1), 0);
        assert_eq!(pass(&mut s, &free_at, 0), 1, "the read's later chip: 7 us against 9");
        assert_eq!(pass(&mut s, &free_at, 0), 3);
    }

    #[test]
    fn a_chip_that_reads_lower_than_last_pass_rescans_its_waiters() {
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, r(0)).unwrap()); // chips 0 and 1
        assert!(s.try_submit(1, r(10)).unwrap()); // chip 2
        assert!(s.try_submit(2, r(20)).unwrap()); // chip 2
        let tokens = |op: &HostOp| [0b011, 0b100, 0b100][(op.lpa_range().0 / 10) as usize];
        let us = |t: [u64; 3]| t.map(Nanos::from_micros);
        assert_eq!(chips_pass(&mut s, &us([8, 3, 5]), u64::MAX, 0, tokens).unwrap().idx, 1);
        s.complete(Nanos::from_micros(1));
        let scores = |s: &Scheduler| s.scored().map(|(_, _, score)| score.0).collect::<Vec<_>>();
        assert_eq!(scores(&s), [8_000, 5_000]);
        // Chip 0 goes backwards, its bit set: request 0 falls to its other
        // chip's time, which a `max` alone could never reach, and now wins.
        assert_eq!(chips_pass(&mut s, &us([2, 3, 5]), 0b001, 0, tokens).unwrap().idx, 0);
        assert_eq!(scores(&s), [5_000]);
    }

    #[test]
    fn a_chip_whose_bit_is_clear_is_not_rescored() {
        let mut s = Scheduler::new(4, 100);
        for i in 0..3 {
            assert!(s.try_submit(i, r(10 * i as u64)).unwrap());
        }
        // Request `i` reads chip `i`; the first pass reads every chip.
        let tokens = |op: &HostOp| 1 << (op.lpa_range().0 / 10);
        let us = |t: [u64; 3]| t.map(Nanos::from_micros);
        assert_eq!(chips_pass(&mut s, &us([1, 6, 7]), 0, 0, tokens).unwrap().idx, 0);
        s.complete(Nanos::from_micros(1));
        let scores = |s: &Scheduler| s.scored().map(|(_, _, score)| score.0).collect::<Vec<_>>();
        assert_eq!(scores(&s), [6_000, 7_000]);
        // Both chips move; only chip 2's bit says so. Chip 1's waiter keeps
        // the score the last pass gave it, and wins on it.
        let read = std::cell::Cell::new(0u64);
        let free_at = |c: usize| {
            read.set(read.get() | 1 << c);
            us([1, 9, 8])[c]
        };
        let d = s.take_dispatch_chips(3, free_at, 0b100, 0, tokens);
        assert_eq!((d.unwrap().idx, read.get()), (1, 0b100), "chip 1 was never read");
        assert_eq!(scores(&s), [8_000]);
        s.complete(Nanos::from_micros(2));
        assert_eq!(chips_pass(&mut s, &us([1, 9, 8]), 0, 0, tokens).unwrap().idx, 2);
    }

    #[test]
    fn complete_visits_only_the_blocked_slots() {
        let mut s = Scheduler::new(4, 100);
        assert!(s.try_submit(0, w(3, 2)).unwrap());
        assert!(s.try_submit(1, w(4, 1)).unwrap(), "blocked by request 0");
        assert!(s.try_submit(2, w(50, 1)).unwrap(), "eligible");
        let d = s.take_dispatch(|_| Nanos::ZERO).unwrap();
        assert_eq!(d.idx, 0);
        // Give the eligible request 0's range behind the scoreboard's back:
        // a completion that scanned every slot would release (and underflow)
        // its zero blocker count and move its start.
        let slot = |s: &Scheduler, idx| s.queued().map(|(_, i)| i).find(|&i| s.req[i].0 == idx);
        let eligible = slot(&s, 2).unwrap();
        (s.lo[eligible], s.hi[eligible]) = (3, 5);
        s.complete(Nanos::from_micros(700));
        assert_eq!((s.blockers[eligible], s.earliest[eligible]), (0, Nanos::ZERO));
        let blocked = slot(&s, 1).unwrap();
        assert_eq!((s.blockers[blocked], s.earliest[blocked]), (0, Nanos::from_micros(700)));
        assert!(s.blocked.iter().all(|&word| word == 0), "released: no longer blocked");
    }

    #[test]
    #[should_panic(expected = "request 7: hint token 0x10 names a chip beyond the 4 given")]
    fn a_token_naming_a_chip_out_of_range_panics_with_the_request_index() {
        let mut s = Scheduler::new(2, 100);
        assert!(s.try_submit(7, r(0)).unwrap());
        chips_pass(&mut s, &[Nanos::ZERO; 4], u64::MAX, 0, |_| 1 << 4);
    }

    #[test]
    #[should_panic(expected = "request 9: write chip 4 is beyond the 4 given")]
    fn a_write_chip_out_of_range_panics_with_the_request_index() {
        let mut s = Scheduler::new(2, 100);
        assert!(s.try_submit(9, w(0, 1)).unwrap());
        chips_pass(&mut s, &[Nanos::ZERO; 4], u64::MAX, 4, |_| 0);
    }

    #[test]
    #[should_panic(expected = "previous dispatch not completed")]
    fn a_second_dispatch_before_complete_panics_on_either_path() {
        let mut s = Scheduler::new(2, 100);
        assert!(s.try_submit(0, w(0, 1)).unwrap());
        assert!(s.try_submit(1, w(1, 1)).unwrap());
        s.take_dispatch(|_| Nanos::ZERO).unwrap();
        chips_pass(&mut s, &[Nanos::ZERO], u64::MAX, 0, |_| 0);
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
        let overlaps = |a: HostOp, b: HostOp| {
            let ((a, an), (b, bn)) = (a.lpa_range(), b.lpa_range());
            ranges_overlap((a, a + an), (b, b + bn))
        };
        assert!(overlaps(w(0, 4), w(3, 1)));
        assert!(!overlaps(w(0, 4), w(4, 1)));
        assert!(overlaps(w(10, 1), HostOp::Trim { lpa: 8, npages: 3 }));
        assert!(!overlaps(w(10, 1), HostOp::Read { lpa: 11, npages: 2 }));
        assert!(!overlaps(w(3, 5), w(5, 0)) && !overlaps(w(5, 0), w(3, 5)), "empty: no pages");
    }
}
