//! The SSD emulator facade: host interface + FTL + timed device array.
//!
//! This is the reproduction of the paper's FlashBench-based SecureSSD
//! prototype (§6–7): host requests carry a security requirement (the
//! `O_INSEC` / `REQ_OP_INSEC_WRITE` path), the FTL manages page states and
//! locks, and the device array accounts simulated time for IOPS.

use crate::anatomy::AnatomyRecorder;
use crate::checkpoint::SalvageReport;
use crate::config::SsdConfig;
use crate::device::TimedExecutor;
use crate::gauges::LiveGauges;
use crate::metrics::{LatencyBreakdown, RecoveryTotals, RunResult};
use crate::sched::{Dispatch, HostOp, OpResult, SchedRun, Scheduler};
use crate::timeseries::TimeSeries;
use crate::trace::{ReqKind, TraceRecorder};
use crate::watchdog::{DeadlineConfig, Verdict, Watchdog, WatchdogStats};
use evanesco_core::fault::{CorruptionConfig, CorruptionStats};
use evanesco_core::threat::Attacker;
use evanesco_ftl::ftl::Ftl;
use evanesco_ftl::observer::{FtlObserver, NullObserver, Tee};
use evanesco_ftl::{GlobalPpa, Lpa, RecoveryReport, SanitizePolicy};
use evanesco_nand::chip::PageData;
use evanesco_nand::snapshot::{Dec, Enc, SnapshotError};
use evanesco_nand::timing::Nanos;
use std::collections::HashSet;

/// An emulated flash storage device.
#[derive(Debug, Clone)]
pub struct Emulator {
    cfg: SsdConfig,
    ftl: Ftl,
    ex: TimedExecutor,
    next_tag: u64,
    host_ops: u64,
    latency: LatencyBreakdown,
    recovery: RecoveryTotals,
    /// Live T_insecure / VAF gauges ([`Emulator::enable_gauges`]).
    gauges: Option<LiveGauges>,
    /// Per-request span recorder ([`Emulator::enable_tracing`]).
    trace: Option<TraceRecorder>,
    /// Recycled LPA list for the trim arm of [`Emulator::execute`]: like
    /// the FTL's own trim worklists, the bracket allocates nothing per
    /// request.
    trim_scratch: Vec<Lpa>,
    /// Per-request latency-anatomy recorder
    /// ([`Emulator::enable_anatomy`]); fed from each finished trace.
    anatomy: Option<AnatomyRecorder>,
    /// Windowed telemetry ring ([`Emulator::enable_timeseries`]).
    timeseries: Option<TimeSeries>,
    /// Deadline watchdog on the scheduled path
    /// ([`Emulator::enable_watchdog`]). Like tracing, never checkpointed:
    /// re-enable after restore.
    watchdog: Option<Watchdog>,
}

/// The page contents one request moves across [`Emulator::execute`].
enum Payload<'a> {
    /// A write whose page `i` carries only the content tag `base + i`.
    Tags(u64),
    /// A one-page write with explicit contents (the host file system).
    Page(PageData),
    /// A read: the sink is handed what each page returned, in LPA order.
    Read(&'a mut dyn FnMut(Option<PageData>)),
    /// A trim moves no data.
    None,
}

impl Emulator {
    /// Creates an emulated SSD with the given sanitization policy.
    pub fn new(cfg: SsdConfig, policy: SanitizePolicy) -> Self {
        cfg.validate();
        let ftl = Ftl::new(cfg.ftl, policy);
        Emulator {
            ex: TimedExecutor::new(&cfg),
            next_tag: 1,
            host_ops: 0,
            latency: LatencyBreakdown::default(),
            recovery: RecoveryTotals::default(),
            gauges: None,
            trace: None,
            trim_scratch: Vec::new(),
            anatomy: None,
            timeseries: None,
            watchdog: None,
            cfg,
            ftl,
        }
    }

    /// Arms the metadata-corruption chaos harness: deterministic bit-level
    /// corruption of the FTL's RAM tables at host-op boundaries, guarded
    /// by shadow checksums, verify-before-serve repair, and an incremental
    /// audit scrubber (see `evanesco_ftl`'s guard module). Accounting is
    /// exposed through [`Emulator::chaos_stats`] and the FTL stats'
    /// `meta_*` counters.
    pub fn enable_chaos(&mut self, cfg: CorruptionConfig) -> &mut Self {
        self.ftl.enable_guard(cfg);
        self
    }

    /// The corruption injector's own accounting (`None` when chaos is
    /// off); the chaos gate cross-checks it against the FTL stats.
    pub fn chaos_stats(&self) -> Option<CorruptionStats> {
        self.ftl.guard_corruption_stats()
    }

    /// Settles the chaos guard at end of run: one final verify-and-repair
    /// pass (no new injection) so every injected corruption is detected
    /// and accounted before results are read.
    pub fn chaos_finalize(&mut self) {
        self.ftl.guard_finalize(&mut self.ex, &mut Tee(self.gauges.as_mut(), NullObserver));
    }

    /// Pre-op half of the chaos bracket: verify seals, repair divergence,
    /// advance the audit scrubber. Runs before the trace bracket opens so
    /// repair/scrub device work is attributed as maintenance, not to the
    /// host request.
    fn chaos_preop<O: FtlObserver>(&mut self, obs: &mut O) {
        if self.ftl.guard_enabled() {
            self.ftl.guard_preop(&mut self.ex, &mut Tee(self.gauges.as_mut(), &mut *obs));
        }
    }

    /// Post-op half of the chaos bracket: reseal over the mutated state,
    /// then maybe inject the next corruption (RAM-only, no device work).
    fn chaos_postop(&mut self) {
        if self.ftl.guard_enabled() {
            self.ftl.guard_postop();
        }
    }

    /// Attaches a deadline watchdog to the scheduled path (see
    /// [`crate::watchdog`]): wedged requests are aborted at their class
    /// deadline, retried with exponential backoff, and failed with
    /// [`OpResult::TimedOut`] once the retry budget is exhausted. With a
    /// zero stall rate the path is byte-identical to running without a
    /// watchdog.
    pub fn enable_watchdog(&mut self, cfg: DeadlineConfig) -> &mut Self {
        self.watchdog = Some(Watchdog::new(cfg));
        self
    }

    /// The watchdog's accounting, if one is attached.
    pub fn watchdog_stats(&self) -> Option<WatchdogStats> {
        self.watchdog.as_ref().map(|w| w.stats())
    }

    /// Attaches the live T_insecure / VAF gauges (see [`LiveGauges`]).
    /// They observe every FTL event from this point on, alongside any
    /// caller-supplied observer. Idempotent; returns `&mut self` for
    /// chaining at construction.
    pub fn enable_gauges(&mut self) -> &mut Self {
        if self.gauges.is_none() {
            self.gauges = Some(LiveGauges::new(&self.cfg.ftl));
        }
        self
    }

    /// The live gauges, if enabled.
    pub fn gauges(&self) -> Option<&LiveGauges> {
        self.gauges.as_ref()
    }

    /// Enables op-level tracing with a ring of `capacity` request traces
    /// (see [`TraceRecorder`]). Simulated timing is unaffected: the same
    /// reservations are made with tracing on or off.
    pub fn enable_tracing(&mut self, capacity: usize) -> &mut Self {
        self.trace = Some(TraceRecorder::new(capacity));
        self.ex.set_tracing(true);
        self
    }

    /// The trace recorder, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Detaches and returns the trace recorder. Tracing stops unless the
    /// anatomy is attached: it is fed from the trace sweep, so recording
    /// continues into an empty ring of the same capacity whose ids carry
    /// on from the taken one's, and [`Emulator::anatomy`] keeps advancing.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        let next = self.trace.as_ref().filter(|_| self.anatomy.is_some());
        let next = next.map(TraceRecorder::successor);
        self.ex.set_tracing(next.is_some());
        std::mem::replace(&mut self.trace, next)
    }

    /// Enables the latency-anatomy layer (see [`crate::anatomy`]): every
    /// finished trace is decomposed into exact stages with
    /// sanitization/GC/retry blame, keeping at most `capacity` rows and
    /// a top-`top_k` slowest digest. Implies tracing with a ring of the
    /// same capacity if tracing is not already on. Timing-neutral, like
    /// tracing itself.
    pub fn enable_anatomy(&mut self, capacity: usize, top_k: usize) -> &mut Self {
        if self.trace.is_none() {
            self.enable_tracing(capacity);
        }
        self.anatomy = Some(AnatomyRecorder::new(capacity, top_k));
        self
    }

    /// The anatomy recorder, if enabled. Its aggregates are always
    /// current: rows are resolved as they are recorded.
    pub fn anatomy(&self) -> Option<&AnatomyRecorder> {
        self.anatomy.as_ref()
    }

    /// Nothing to do: rows are resolved as they are recorded, there is no
    /// pending blame. The repo benchmark ends its observed runs with this
    /// call.
    pub fn finalize_anatomy(&mut self) {}

    /// Detaches and returns the anatomy recorder, leaving tracing in its
    /// current state.
    pub fn take_anatomy(&mut self) -> Option<AnatomyRecorder> {
        self.anatomy.take()
    }

    /// Enables windowed telemetry: every `interval` of simulated time a
    /// [`crate::timeseries::WindowSample`] closes (a `RunResult::since`
    /// delta plus gauge snapshots), keeping the most recent `capacity`
    /// windows. Timing-neutral, like tracing. Enable gauges first (or
    /// too) if the samples should carry VAF / T_insecure.
    pub fn enable_timeseries(&mut self, interval: Nanos, capacity: usize) -> &mut Self {
        self.timeseries = Some(TimeSeries::new(interval, capacity, self));
        self
    }

    /// The telemetry series, if enabled.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.timeseries.as_ref()
    }

    /// Force-closes a final partial telemetry window at the current clock
    /// (call at end of run so the tail of the run is represented).
    pub fn sample_timeseries_now(&mut self) {
        if let Some(mut ts) = self.timeseries.take() {
            ts.sample_now(self);
            self.timeseries = Some(ts);
        }
    }

    /// Closes due telemetry windows after a host-operation boundary.
    fn poll_timeseries(&mut self) {
        if let Some(mut ts) = self.timeseries.take() {
            ts.poll(self);
            self.timeseries = Some(ts);
        }
    }

    /// Turns on the FTL decision log ("explain why" records for GC victim
    /// picks, lock-coalescing traffic, escalation rungs, and degraded-mode
    /// transitions), keeping at most `capacity` records at `min_level` and
    /// above. Observational only — simulated results are unchanged.
    pub fn enable_decision_log(
        &mut self,
        capacity: usize,
        min_level: evanesco_ftl::DecisionLevel,
    ) -> &mut Self {
        self.ftl.enable_decision_log(capacity, min_level);
        self
    }

    /// The FTL decision log (disabled and empty by default).
    pub fn decision_log(&self) -> &evanesco_ftl::DecisionLog {
        self.ftl.decision_log()
    }

    /// Finishes the open trace bracket for one host request, if tracing.
    /// `retry` is the watchdog penalty window (absolute) and `req_idx` the
    /// request's submission-order index, both for the anatomy row.
    #[allow(clippy::too_many_arguments)]
    fn trace_finish(
        &mut self,
        kind: ReqKind,
        lpa: Lpa,
        npages: u64,
        acked: bool,
        submit: Nanos,
        earliest: Nanos,
        end: Nanos,
        retry: Option<(Nanos, Nanos)>,
        req_idx: Option<usize>,
    ) {
        if let Some(tr) = self.trace.as_mut() {
            let events = self.ex.trace_events();
            // Zero-work brackets (e.g. a maintenance flush with nothing
            // queued) are not worth a ring slot.
            if !events.is_empty() || end > submit {
                // The ring packs its own copy straight out of the
                // executor's buffer, which is then emptied in place.
                let t = tr.record(kind, lpa, npages, acked, submit, earliest, end, events);
                if let Some(a) = self.anatomy.as_mut() {
                    a.record(t, retry, req_idx);
                }
            }
            self.ex.discard_trace_events();
        }
    }

    /// Discards device events that accrued outside any request bracket
    /// (maintenance work between traced requests).
    fn trace_discard_leftovers(&mut self) {
        if self.trace.is_some() {
            self.ex.discard_trace_events();
        }
    }

    /// Schedules a power cut at absolute simulated time `at`. The device
    /// command in flight at `at` is interrupted mid-operation, every later
    /// command is lost before reaching a chip, and host requests submitted
    /// after the cut fires are rejected until [`Emulator::recover`].
    pub fn power_cut_at(&mut self, at: Nanos) {
        self.ex.arm_power_cut(at);
    }

    /// True once a scheduled power cut has fired.
    pub fn powered_off(&self) -> bool {
        self.ex.powered_off()
    }

    /// Powers the device back on and runs the FTL's recovery scan (see
    /// `evanesco_ftl::recovery`): RAM tables are rebuilt from on-flash OOB
    /// metadata and every lock lost mid-flight is re-established before
    /// any host request is served. Returns this scan's report; totals
    /// (including the measured scan time) accumulate into
    /// [`Emulator::result`].
    pub fn recover(&mut self) -> RecoveryReport {
        self.recover_with(&mut NullObserver)
    }

    /// [`Emulator::recover`] with an observer attached.
    pub fn recover_with<O: FtlObserver>(&mut self, obs: &mut O) -> RecoveryReport {
        self.trace_discard_leftovers();
        self.ex.power_on();
        let before = self.ex.simulated_time();
        let report = self.ftl.recover(&mut self.ex, &mut Tee(self.gauges.as_mut(), &mut *obs));
        let end = self.ex.simulated_time();
        let scan_time = end.saturating_sub(before);
        self.recovery.absorb(&report, scan_time);
        let scanned = report.scanned_pages;
        self.trace_finish(ReqKind::Recovery, 0, scanned, true, before, before, end, None, None);
        report
    }

    /// The configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// The FTL (for introspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// The device array (read-only: timing and utilization queries).
    pub fn device(&self) -> &TimedExecutor {
        &self.ex
    }

    /// The device array (for attacker access in tests).
    pub fn device_mut(&mut self) -> &mut TimedExecutor {
        &mut self.ex
    }

    /// Settles every deferred sanitization lock still queued by the lock
    /// coalescing pass (no-op unless `lock_coalescing` is enabled). Call
    /// before end-of-run attacker verification so queued pages are locked
    /// rather than merely scheduled to be.
    pub fn flush_coalesced_locks(&mut self) {
        self.trace_discard_leftovers();
        let before = self.ex.simulated_time();
        self.ftl.flush_coalesced(&mut self.ex, &mut Tee(self.gauges.as_mut(), NullObserver));
        // The flush mutates guarded tables outside any op bracket: reseal
        // so the next pre-op check does not misread it as corruption.
        self.ftl.guard_reseal();
        let end = self.ex.simulated_time();
        self.trace_finish(ReqKind::Maintenance, 0, 0, true, before, before, end, None, None);
        self.poll_timeseries();
    }

    /// Panics with the typed [`crate::sched::SubmitError`] on a range that
    /// wraps or ends beyond the logical capacity. Every host entry point
    /// checks before any side effect, tag allocation included.
    fn check_range(&self, who: impl std::fmt::Display, lpa: Lpa, npages: u64) {
        if let Err(e) = crate::sched::check_lpa_range(lpa, npages, self.ftl.logical_pages()) {
            panic!("{who} rejected: {e}");
        }
    }

    /// Executes one host request: the one bracket every host path runs
    /// through (DESIGN.md §8).
    ///
    /// `window` is the only timing input. `None` sets no dispatch floor:
    /// the request spans two horizon readings and its commands may
    /// backfill chips idle below the horizon (the serialized API). `Some`
    /// — the scheduler's dispatch of this `op` — floors every reservation
    /// at its earliest legal start plus any watchdog backoff.
    ///
    /// Returns whether the request was acknowledged (`None`: the watchdog
    /// failed it before it reached the FTL) and its completion time.
    // Inlined so each caller's constant op kind and window fold the matches
    // away (outlined, `table2_policies/host_pages_per_s` loses ~5 %).
    #[inline(always)]
    fn execute<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        op: HostOp,
        payload: Payload<'_>,
        window: Option<&Dispatch>,
    ) -> (Option<bool>, Nanos) {
        use evanesco_ftl::executor::NandExecutor;
        // Watchdog verdict first (keyed on the submission index, so it is
        // queue-depth-invariant): a wedged request is aborted at its class
        // deadline and retried after backoff — the penalty delays its
        // start — or, past the retry budget, failed.
        let verdict = match (self.watchdog.as_mut(), window) {
            (Some(wd), Some(w)) => wd.judge(w.idx, &op),
            _ => Verdict::Clean,
        };
        let (penalty, served) = match verdict {
            Verdict::Clean => (Nanos::ZERO, true),
            Verdict::Retried { penalty } => (penalty, true),
            Verdict::Failed { penalty } => (penalty, false),
        };
        if served {
            self.chaos_preop(obs);
        }
        self.trace_discard_leftovers();
        let now = self.ex.simulated_time();
        let (submit, earliest) = window.map_or((now, now), |w| (w.submit, w.earliest));
        let start = earliest + penalty;
        let (lpa, npages) = op.lpa_range();
        let (mut acked, mut done) = (false, start);
        if served {
            if window.is_some() {
                self.ex.begin_dispatch(start);
            }
            self.ex.begin_commit();
            // Each arm yields whether the FTL accepted the request.
            let tee = &mut Tee(self.gauges.as_mut(), &mut *obs);
            let accepted = match (op, payload) {
                (HostOp::Write { secure, .. }, Payload::Tags(base)) => {
                    let mut accepted = true;
                    for i in 0..npages {
                        accepted &= self.ftl.write(&mut self.ex, tee, lpa + i, secure, base + i);
                    }
                    accepted
                }
                (HostOp::Write { secure, npages: 1, .. }, Payload::Page(data)) => {
                    self.ftl.write_data(&mut self.ex, tee, lpa, secure, data)
                }
                (HostOp::Read { .. }, Payload::Read(sink)) => {
                    (0..npages).for_each(|i| sink(self.ftl.read(&mut self.ex, lpa + i)));
                    true
                }
                (HostOp::Trim { .. }, Payload::None) => {
                    let mut lpas = std::mem::take(&mut self.trim_scratch);
                    lpas.clear();
                    lpas.extend(lpa..lpa + npages);
                    self.ftl.trim(&mut self.ex, tee, &lpas);
                    self.trim_scratch = lpas;
                    true
                }
                _ => unreachable!("{op:?} carries the wrong payload"),
            };
            // A write the degraded-mode gate rejected is never acked.
            acked = accepted && self.ex.commit_clean();
            if acked {
                self.host_ops += npages;
            }
            done = if window.is_some() { self.ex.end_dispatch() } else { self.ex.simulated_time() };
        }
        // Service latency, acked or not: completion minus the earliest legal
        // start (queueing behind one's own dependencies excluded).
        let (kind, hist) = match op {
            HostOp::Write { .. } => (ReqKind::Write, &mut self.latency.write),
            HostOp::Read { .. } => (ReqKind::Read, &mut self.latency.read),
            HostOp::Trim { .. } => (ReqKind::Trim, &mut self.latency.trim),
        };
        hist.record(done.saturating_sub(earliest));
        // The anatomy charges the backoff window to retry interference.
        let retry = (start > earliest).then_some((earliest, start));
        let idx = window.map(|w| w.idx);
        self.trace_finish(kind, lpa, npages, acked, submit, earliest, done, retry, idx);
        self.poll_timeseries();
        if served {
            self.chaos_postop();
        }
        (served.then_some(acked), done)
    }

    /// Writes `npages` consecutive logical pages starting at `lpa`.
    /// Returns the content tags assigned to the written pages.
    ///
    /// # Panics
    ///
    /// Like every host entry point, panics with the typed
    /// [`crate::sched::SubmitError`] on an out-of-range request.
    pub fn write(&mut self, lpa: Lpa, npages: u64, secure: bool) -> Vec<u64> {
        self.write_with(&mut NullObserver, lpa, npages, secure)
    }

    /// [`Emulator::write`] with an observer attached (VerTrace).
    pub fn write_with<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        lpa: Lpa,
        npages: u64,
        secure: bool,
    ) -> Vec<u64> {
        self.write_tracked_with(obs, lpa, npages, secure).into_iter().map(|(t, _)| t).collect()
    }

    /// Writes like [`Emulator::write`] but also reports, per page, whether
    /// the write was **acknowledged**: it completed durably before any
    /// power cut. An unacknowledged write's data may be partially on
    /// flash (torn) or absent entirely; either way the device owes the
    /// host nothing for it, and recovery sanitizes any decodable secured
    /// remnant as an orphan.
    pub fn write_tracked(&mut self, lpa: Lpa, npages: u64, secure: bool) -> Vec<(u64, bool)> {
        self.write_tracked_with(&mut NullObserver, lpa, npages, secure)
    }

    /// [`Emulator::write_tracked`] with an observer attached.
    pub fn write_tracked_with<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        lpa: Lpa,
        npages: u64,
        secure: bool,
    ) -> Vec<(u64, bool)> {
        self.check_range("write", lpa, npages);
        let base = self.next_tag;
        self.next_tag += npages;
        self.write_each(obs, lpa, secure, (base..base + npages).map(|t| (t, Payload::Tags(t))))
    }

    /// Writes explicit page payloads to `npages = pages.len()` consecutive
    /// logical pages (the byte-carrying path used by the host file system).
    /// Returns the content tags.
    pub fn write_pages(&mut self, lpa: Lpa, pages: Vec<PageData>, secure: bool) -> Vec<u64> {
        self.check_range("write_pages", lpa, pages.len() as u64);
        let pages = pages.into_iter().map(|d| (d.tag(), Payload::Page(d)));
        let tracked = self.write_each(&mut NullObserver, lpa, secure, pages);
        tracked.into_iter().map(|(t, _)| t).collect()
    }

    /// The serialized write loop: one request per page, yielding its tag
    /// and ack. A dark device rejects the page before the bracket.
    fn write_each<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        lpa: Lpa,
        secure: bool,
        pages: impl Iterator<Item = (u64, Payload<'static>)>,
    ) -> Vec<(u64, bool)> {
        pages
            .zip(lpa..)
            .map(|((tag, payload), lpa)| {
                let op = HostOp::Write { lpa, npages: 1, secure };
                let acked =
                    !self.ex.powered_off() && self.execute(obs, op, payload, None).0 == Some(true);
                (tag, acked)
            })
            .collect()
    }

    /// Reads full page contents (payload included where stored).
    pub fn read_pages(&mut self, lpa: Lpa, npages: u64) -> Vec<Option<PageData>> {
        self.read_each(lpa, npages, |page| page)
    }

    /// Reads `npages` consecutive logical pages; returns the tags of the
    /// pages that were mapped and readable.
    pub fn read(&mut self, lpa: Lpa, npages: u64) -> Vec<Option<u64>> {
        self.read_each(lpa, npages, |page| page.map(|d| d.tag()))
    }

    /// The serialized read loop: one request per page, `view`ing what it
    /// returned. A dark device serves nothing.
    fn read_each<T>(
        &mut self,
        lpa: Lpa,
        npages: u64,
        view: impl Fn(Option<PageData>) -> T,
    ) -> Vec<T> {
        self.check_range("read", lpa, npages);
        let mut out = Vec::with_capacity(npages as usize);
        for lpa in lpa..lpa + npages {
            if self.ex.powered_off() {
                out.push(view(None));
                continue;
            }
            let op = HostOp::Read { lpa, npages: 1 };
            self.execute(&mut NullObserver, op, Payload::Read(&mut |p| out.push(view(p))), None);
        }
        out
    }

    /// Trims (deletes) `npages` consecutive logical pages.
    pub fn trim(&mut self, lpa: Lpa, npages: u64) {
        self.trim_with(&mut NullObserver, lpa, npages);
    }

    /// [`Emulator::trim`] with an observer attached.
    ///
    /// Returns `true` when the trim was acknowledged (it completed durably
    /// before any power cut). An unacknowledged trim may have sanitized
    /// some of the range and not the rest; the host must re-issue it.
    pub fn trim_with<O: FtlObserver>(&mut self, obs: &mut O, lpa: Lpa, npages: u64) -> bool {
        self.check_range("trim", lpa, npages);
        !self.ex.powered_off()
            && self.execute(obs, HostOp::Trim { lpa, npages }, Payload::None, None).0 == Some(true)
    }

    /// Runs a request trace through the out-of-order multi-queue scheduler
    /// at queue depth `qd` (see [`crate::sched`]).
    ///
    /// At most `qd` requests are outstanding at once; independent requests
    /// dispatch out of order onto idle chips, while requests touching a
    /// common logical page never reorder. Host-visible results are
    /// therefore **byte-identical at every queue depth** (write tags are
    /// assigned in submission order, before dispatch); only the timing
    /// changes. The serialized host API ([`Emulator::write`] and friends)
    /// returns the same results again but **not** the timing of `qd == 1`,
    /// where request *n + 1* starts only after request *n* completes: it
    /// sets no dispatch floor, so later requests backfill chips idle below
    /// the device horizon and a trace never takes longer than at `qd == 1`.
    ///
    /// Each request is one commit window: it is acknowledged only if every
    /// command it issued survived any power cut intact.
    ///
    /// # Panics
    ///
    /// Panics with the offending trace index and the typed
    /// [`crate::sched::SubmitError`] when a request's LPA range wraps or
    /// ends beyond the device's logical capacity — a wrapped range would
    /// silently break the per-LPA ordering invariant.
    pub fn run_scheduled(&mut self, ops: &[HostOp], qd: usize) -> SchedRun {
        self.run_scheduled_with(&mut NullObserver, ops, qd)
    }

    /// [`Emulator::run_scheduled`] with an observer attached.
    pub fn run_scheduled_with<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        ops: &[HostOp],
        qd: usize,
    ) -> SchedRun {
        self.run_scheduled_core(obs, ops, None, qd)
    }

    /// Open-loop variant of [`Emulator::run_scheduled_with`]: request `i`
    /// cannot be submitted to the device before `arrivals[i]` (the instant
    /// the front end handed it over). Arrival floors only delay
    /// submission times; host-visible results stay byte-identical to the
    /// closed-loop run at every queue depth. The fleet layer uses this to
    /// model shaped multi-tenant traffic, attributing end-to-end sojourn
    /// latency from [`SchedRun::completions`].
    ///
    /// # Panics
    ///
    /// Panics when `arrivals.len() != ops.len()`, or on an out-of-range
    /// request like [`Emulator::run_scheduled`].
    pub fn run_scheduled_open_loop<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        ops: &[HostOp],
        arrivals: &[Nanos],
        qd: usize,
    ) -> SchedRun {
        assert_eq!(arrivals.len(), ops.len(), "one arrival time per request");
        self.run_scheduled_core(obs, ops, Some(arrivals), qd)
    }

    fn run_scheduled_core<O: FtlObserver>(
        &mut self,
        obs: &mut O,
        ops: &[HostOp],
        arrivals: Option<&[Nanos]>,
        qd: usize,
    ) -> SchedRun {
        let start = self.ex.simulated_time();
        for (i, op) in ops.iter().enumerate() {
            let (lpa, n) = op.lpa_range();
            self.check_range(format_args!("run_scheduled: request {i}"), lpa, n);
        }
        let mut sched = Scheduler::new(qd, self.ftl.logical_pages());
        // Write tags are assigned in submission order, before any dispatch
        // decision, so the tags a request returns cannot depend on the
        // queue depth.
        let mut tag_base = vec![0u64; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            if let HostOp::Write { npages, .. } = *op {
                tag_base[i] = self.next_tag;
                self.next_tag += npages;
            }
        }
        let mut results: Vec<Option<OpResult>> = vec![None; ops.len()];
        let mut completions = vec![Nanos::ZERO; ops.len()];
        let mut submits = vec![Nanos::ZERO; ops.len()];
        let mut host_pages = 0u64;
        let mut next = 0usize;
        let n_chips = self.cfg.n_chips();
        let mut free_at: Vec<Nanos> = Vec::with_capacity(n_chips);
        // A read's hint token is the set of chips holding its mapped pages,
        // one bit per chip. A device too wide for the mask keeps no token
        // and hints every request afresh each pass.
        let wide = n_chips > u64::BITS as usize;
        loop {
            while next < ops.len() {
                let arrival = arrivals.map_or(Nanos::ZERO, |a| a[next]);
                if !sched
                    .try_submit_at(next, ops[next], arrival)
                    .expect("ops validated before the loop")
                {
                    break;
                }
                next += 1;
            }
            // One pass reads each chip's busy-until once and no L2P entry: a
            // read's chip set is resolved when it first becomes eligible and
            // its score maintained from then on (`sched`'s cost model says
            // why that is sound); queued writes all wait on the frontier's.
            let picked = if wide {
                sched.take_dispatch(|op| self.chip_hint(op))
            } else {
                free_at.clear();
                free_at.extend((0..n_chips).map(|c| self.ex.chip_free_at(c)));
                sched.take_dispatch_chips(&free_at, self.ftl.peek_alloc_chip(), |op| {
                    let (lpa, npages) = op.lpa_range();
                    self.mapped_chips(lpa, npages).fold(0, |set, chip| set | 1 << chip)
                })
            };
            let Some(d) = picked else { break };
            if cfg!(debug_assertions) && !wide {
                // Every score the scoreboard maintains, against one derived
                // from the L2P and the chips now; the winner has left it.
                let best = d.earliest.max(self.chip_hint(&d.op));
                for (op, earliest, score) in sched.scored() {
                    assert_eq!(score, earliest.max(self.chip_hint(&op)), "stale score: {op:?}");
                    assert!(best <= score, "{:?} dispatched past {op:?}", d.op);
                }
            }
            host_pages += d.op.npages();
            let base = tag_base[d.idx];
            let reads = if let HostOp::Read { npages, .. } = d.op { npages as usize } else { 0 };
            let mut got = Vec::with_capacity(reads);
            let mut sink = |p: Option<PageData>| got.push(p.map(|d| d.tag()));
            let payload = match d.op {
                HostOp::Write { .. } => Payload::Tags(base),
                HostOp::Read { .. } => Payload::Read(&mut sink),
                HostOp::Trim { .. } => Payload::None,
            };
            let epoch = self.chaos_epoch();
            let (acked, done) = self.execute(obs, d.op, payload, Some(&d));
            sched.complete(done);
            if self.chaos_epoch() != epoch {
                // The guard injected or repaired a corruption inside the
                // bracket: L2P entries changed under queued reads.
                sched.drop_hint_cache();
            }
            results[d.idx] = Some(match (acked, d.op) {
                (None, _) => OpResult::TimedOut,
                (Some(acked), HostOp::Write { npages, .. }) => {
                    OpResult::Write((base..base + npages).collect(), acked)
                }
                (Some(_), HostOp::Read { .. }) => OpResult::Read(got),
                (Some(acked), HostOp::Trim { .. }) => OpResult::Trim(acked),
            });
            completions[d.idx] = done;
            submits[d.idx] = d.submit;
        }
        SchedRun {
            results: results.into_iter().map(|r| r.expect("every request dispatched")).collect(),
            completions,
            submits,
            sim_time: self.ex.simulated_time().saturating_sub(start),
            host_pages,
            requests: ops.len() as u64,
            max_outstanding: sched.max_outstanding(),
        }
    }

    /// Counts the chaos guard's L2P rewrites (corruptions injected plus
    /// repairs run): when it moves across a request, cached read chip sets
    /// may be stale. Constant with the guard off.
    fn chaos_epoch(&self) -> u64 {
        if !self.ftl.guard_enabled() {
            return 0;
        }
        let s = self.ftl.stats();
        s.meta_corruptions_injected + s.meta_corruptions_detected + s.audit_divergences
    }

    /// Selection hint for the scheduler, from scratch: when could this
    /// request's device work plausibly start, given current chip
    /// occupancy? Writes go to the allocation frontier's chip; reads to
    /// the chips holding their mapped pages. The scheduled path maintains
    /// the same value from cached chip sets and checks every score against
    /// this one under debug assertions.
    fn chip_hint(&self, op: &HostOp) -> Nanos {
        match *op {
            HostOp::Write { .. } => self.ex.chip_free_at(self.ftl.peek_alloc_chip()),
            HostOp::Read { lpa, npages } => self
                .mapped_chips(lpa, npages)
                .map(|chip| self.ex.chip_free_at(chip))
                .max()
                .unwrap_or(Nanos::ZERO),
            HostOp::Trim { .. } => Nanos::ZERO,
        }
    }

    /// The chip of every mapped page in `[lpa, lpa + npages)`, from the L2P.
    fn mapped_chips(&self, lpa: Lpa, npages: u64) -> impl Iterator<Item = usize> + '_ {
        (0..npages).filter_map(move |i| self.ftl.mapped(lpa + i)).map(|p| p.chip)
    }

    /// Switches every chip to device-mode flags (physical pAP/bAP cells;
    /// see `evanesco_core::device_flags`). Call before any locks are
    /// issued.
    pub fn enable_device_flags(
        &mut self,
        pap: evanesco_core::pap::PapConfig,
        bap: evanesco_core::bap::BapConfig,
        seed: u64,
    ) {
        for (i, chip) in self.ex.chips_mut().iter_mut().enumerate() {
            chip.enable_device_flags(pap, bap, seed.wrapping_add(i as u64));
        }
    }

    /// Ages every chip's physical flags by `days` (device mode only).
    ///
    /// # Errors
    ///
    /// Rejects a negative or non-finite span before any chip has aged.
    pub fn age_flags(&mut self, days: f64) -> Result<(), evanesco_core::InvalidRetention> {
        let days = evanesco_core::InvalidRetention::check(days)?;
        self.ex.chips_mut().iter_mut().try_for_each(|chip| chip.age_flags(days))
    }

    /// Per-block erase-count statistics across the device: `(min, max,
    /// mean)` — the lifetime/wear view behind the paper's "reduces the
    /// number of block erasures" claims.
    pub fn erase_count_stats(&mut self) -> (u64, u64, f64) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut n = 0u64;
        for chip in self.ex.chips_mut() {
            let blocks = chip.geometry().blocks;
            for b in 0..blocks {
                let c = chip.erase_count(evanesco_nand::geometry::BlockId(b));
                min = min.min(c);
                max = max.max(c);
                sum += c;
                n += 1;
            }
        }
        if n == 0 {
            (0, 0, 0.0)
        } else {
            (min, max, sum as f64 / n as f64)
        }
    }

    /// The raw-chip attacker's sweep (§5.1) over every chip, in ascending
    /// [`GlobalPpa`] order: `f` sees each page that returned data.
    fn interface_sweep(&mut self, mut f: impl FnMut(GlobalPpa, &PageData)) {
        for (chip, ec) in self.ex.chips_mut().iter_mut().enumerate() {
            Attacker::new().sweep(ec, |ppa, d| f(GlobalPpa { chip, ppa }, d));
        }
    }

    /// Every content tag a raw-chip attacker can currently recover from any
    /// chip of this SSD (after de-soldering).
    pub fn attacker_recoverable_tags(&mut self) -> HashSet<u64> {
        let mut tags = HashSet::new();
        self.interface_sweep(|_, d| {
            tags.insert(d.tag());
        });
        tags
    }

    /// Verifies sanitization conditions C1/C2 for the logical range
    /// `[lpa, lpa + npages)` against what the flash returns: no page the
    /// attacker can read holds a **secured** version of an LPA in the range
    /// other than the one the FTL currently maps it to.
    ///
    /// One attacker sweep collects every readable page's position, tag and
    /// OOB `(lpa, secure)`. The range fails iff some readable page has
    /// secure OOB, an OOB LPA inside the range, and a tag other than the
    /// one readable at the position the FTL maps that LPA to. An unmapped
    /// LPA, or one whose mapped page is unreadable, has no current tag, so
    /// every readable secured copy of it is a leak. Data written insecurely
    /// (`O_INSEC`) is exempt by definition (§6). Whether the map itself is
    /// right is the read-back oracles' question, not this one's.
    pub fn verify_sanitized(&mut self, lpa: Lpa, npages: u64) -> bool {
        let range = lpa..lpa.saturating_add(npages);
        // Sorted by position: the sweep visits positions in order.
        let mut readable = Vec::new();
        let mut secured = Vec::new();
        self.interface_sweep(|at, d| {
            readable.push((at, d.tag()));
            if let Some(oob) = d.oob().filter(|o| o.secure && range.contains(&o.lpa)) {
                secured.push((oob.lpa, d.tag()));
            }
        });
        let current = |l: Lpa| {
            let at = self.ftl.mapped(l)?;
            readable.binary_search_by_key(&at, |&(p, _)| p).ok().map(|i| readable[i].1)
        };
        secured.into_iter().all(|(l, tag)| current(l) == Some(tag))
    }

    /// Run summary so far.
    pub fn result(&self) -> RunResult {
        RunResult::new(
            self.host_ops,
            self.ex.simulated_time(),
            self.ftl.stats(),
            self.ex.lock_totals(),
            self.ex.erase_total(),
            self.recovery,
            self.ex.fault_totals(),
            self.latency,
        )
    }

    /// Renders every run metric — host counters, FTL/fault/recovery
    /// stats, per-resource utilization, latency histograms, and the live
    /// gauges — as one Prometheus text-exposition scrape.
    pub fn prometheus_scrape(&self) -> String {
        crate::prom::render(self)
    }

    /// Serializes the complete device state into one self-contained,
    /// versioned checkpoint: configuration, sanitization policy, FTL
    /// tables, every chip's NAND/flag/fault state, busy timelines, the
    /// simulated clock, host counters, latency histograms, recovery
    /// totals, and — when enabled — the live gauges
    /// and telemetry ring. A run restored from these bytes continues
    /// bit-identically to one that never stopped (see
    /// `tests/checkpoint_resume.rs`).
    ///
    /// Format v2: each layer is framed as its own CRC-guarded section
    /// (see [`crate::checkpoint::section`]), so corruption is pinned to
    /// the section it landed in and
    /// [`Emulator::restore_checkpoint_salvaging`] can rebuild or drop
    /// that section instead of losing the whole checkpoint. The device
    /// section precedes the FTL section because a salvaged FTL is rebuilt
    /// *from* the restored flash.
    ///
    /// Not captured (observational only, never affecting results): the
    /// op-level trace recorder, the FTL decision log, the chaos guard,
    /// and the watchdog.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        use crate::checkpoint::section;
        let mut e = Enc::with_header();
        e.section(section::CONFIG, |e| crate::checkpoint::encode_config(&self.cfg, e));
        e.section(section::POLICY, |e| crate::checkpoint::encode_policy(self.ftl.policy(), e));
        e.section(section::DEVICE, |e| self.ex.encode_state(e));
        e.section(section::FTL, |e| self.ftl.encode_state(e));
        e.section(section::HOST, |e| self.encode_host_state(e));
        e.section(section::GAUGES, |e| e.opt(&self.gauges, |e, g| g.encode_state(e)));
        e.section(section::TIMESERIES, |e| e.opt(&self.timeseries, |e, ts| ts.encode_state(e)));
        e.into_bytes()
    }

    /// Host-side bookkeeping: op counters, latency histograms, recovery
    /// totals.
    fn encode_host_state(&self, e: &mut Enc) {
        e.tag(0x50);
        e.u64(self.next_tag);
        e.u64(self.host_ops);
        self.latency.encode_snapshot(e);
        self.recovery.encode_snapshot(e);
    }

    /// Inverse of [`Emulator::encode_host_state`].
    fn decode_host_state(&mut self, d: &mut Dec<'_>) -> Result<(), SnapshotError> {
        d.expect_tag(0x50, "emulator")?;
        self.next_tag = d.u64()?;
        self.host_ops = d.u64()?;
        self.latency = LatencyBreakdown::decode_snapshot(d)?;
        self.recovery = RecoveryTotals::decode_snapshot(d)?;
        Ok(())
    }

    /// Reconstructs an emulator from bytes written by
    /// [`Emulator::save_checkpoint`]: builds a fresh device from the
    /// embedded configuration and policy, then overlays every piece of
    /// dynamic state, enforcing every section checksum.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`SnapshotError`] —
    /// never a panic — on truncation, a wrong magic, an unsupported
    /// format version, a section checksum failure, structural corruption,
    /// or internally inconsistent state.
    pub fn restore_checkpoint(bytes: &[u8]) -> Result<Emulator, SnapshotError> {
        Self::restore_walk(bytes, false).map(|(em, _)| em)
    }

    /// Restores a v2 checkpoint, salvaging what a strict restore would
    /// reject: a section whose CRC (or decode) fails is rebuilt from
    /// ground truth where one exists, or dropped where the state is
    /// purely observational. The [`SalvageReport`] names every section
    /// that was given up.
    ///
    /// Salvage policy, in stream order:
    ///
    /// * `config` / `policy` / `device` — **required**. Nothing can
    ///   rebuild the configuration or the flash array itself; damage here
    ///   is a hard error.
    /// * `ftl` — rebuilt by re-running the recovery scan over the
    ///   restored flash (the same OOB-driven rebuild a power cut uses).
    ///   Costs simulated scan time and resets cumulative FTL counters,
    ///   so the salvaged run is consistent but no longer bit-identical
    ///   to the original.
    /// * `host` — reset: counters, histograms and recovery totals restart
    ///   from zero. [`Emulator::verify_sanitized`] reads only the flash and
    ///   the FTL map, so its coverage does not depend on this section.
    /// * `gauges` / `timeseries` — dropped (observational).
    ///
    /// # Errors
    ///
    /// Fails on header damage, frame-level damage (a section length
    /// running past the buffer), or damage to a required section.
    pub fn restore_checkpoint_salvaging(
        bytes: &[u8],
    ) -> Result<(Emulator, SalvageReport), SnapshotError> {
        Self::restore_walk(bytes, true)
    }

    /// The one checkpoint walk behind both restores, section by section in
    /// stream order. `salvage` decides only what a failing optional section
    /// does: a strict restore fails with its error, a salvaging one
    /// rebuilds or drops it and names it in the report.
    fn restore_walk(
        bytes: &[u8],
        salvage: bool,
    ) -> Result<(Emulator, SalvageReport), SnapshotError> {
        use crate::checkpoint::section;
        let mut d = Dec::with_header(bytes)?;
        let mut report = SalvageReport::default();
        let mut s = d.section(section::CONFIG, "config")?;
        let cfg = crate::checkpoint::decode_config(&mut s)?;
        s.finish()?;
        let mut s = d.section(section::POLICY, "policy")?;
        let policy = crate::checkpoint::decode_policy(&mut s)?;
        s.finish()?;
        let mut em = Emulator::new(cfg, policy);
        let mut s = d.section(section::DEVICE, "device")?;
        em.ex.decode_state(&mut s)?;
        s.finish()?;

        if optional_section(&mut d, salvage, section::FTL, "ftl", |s| em.ftl.decode_state(s))?
            .is_none()
        {
            // A partial decode may have half-written the tables: start
            // from a fresh FTL and rebuild every RAM table from the
            // restored flash's OOB metadata, exactly as crash recovery
            // does.
            em.ftl = Ftl::new(em.cfg.ftl, policy);
            em.recover_with(&mut NullObserver);
            report.salvaged.push("ftl");
        }
        if optional_section(&mut d, salvage, section::HOST, "host", |s| em.decode_host_state(s))?
            .is_none()
        {
            em.next_tag = 1;
            em.host_ops = 0;
            em.latency = LatencyBreakdown::default();
            // Keep the scan totals an FTL salvage just accumulated; with
            // no salvage the totals restart from zero like the rest.
            if !report.salvaged.contains(&"ftl") {
                em.recovery = RecoveryTotals::default();
            }
            report.salvaged.push("host");
        }
        // The two observational sections stay off when given up.
        let gauges = |s: &mut Dec<'_>| s.opt(|d| LiveGauges::decode_state(&cfg.ftl, d));
        match optional_section(&mut d, salvage, section::GAUGES, "gauges", gauges)? {
            Some(g) => em.gauges = g,
            None => report.salvaged.push("gauges"),
        }
        let timeseries = |s: &mut Dec<'_>| s.opt(TimeSeries::decode_state);
        match optional_section(&mut d, salvage, section::TIMESERIES, "timeseries", timeseries)? {
            Some(ts) => em.timeseries = ts,
            None => report.salvaged.push("timeseries"),
        }
        d.finish()?;
        Ok((em, report))
    }

    /// Restores this emulator from checkpoint bytes **all-or-nothing**:
    /// the bytes decode into a fresh staging emulator first and replace
    /// this one only on full success, so a truncated or corrupt blob
    /// leaves the device byte-identical to before the call.
    ///
    /// Observational attachments (tracing, decision log, chaos guard,
    /// watchdog) follow the checkpoint's contents: they are *not* carried
    /// over from the pre-restore device.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Emulator::restore_checkpoint`]; on error
    /// `self` is untouched.
    pub fn restore_in_place(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        *self = Emulator::restore_checkpoint(bytes)?;
        Ok(())
    }
}

/// Decodes one section the restore walk may give up: `Ok(None)` when
/// `salvage` drops a damaged one (its CRC or its decode fails); a strict
/// restore fails with the error instead.
fn optional_section<'a, T>(
    d: &mut Dec<'a>,
    salvage: bool,
    id: u8,
    name: &str,
    decode: impl FnOnce(&mut Dec<'a>) -> Result<T, SnapshotError>,
) -> Result<Option<T>, SnapshotError> {
    if !salvage {
        let mut s = d.section(id, name)?;
        let v = decode(&mut s)?;
        s.finish()?;
        return Ok(Some(v));
    }
    let (mut s, crc_ok) = d.section_frame(id, name)?;
    Ok(crc_ok.then(|| decode(&mut s).and_then(|v| s.finish().map(|()| v)).ok()).flatten())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd(policy: SanitizePolicy) -> Emulator {
        Emulator::new(SsdConfig::tiny_for_tests(), policy)
    }

    #[test]
    fn quickstart_flow() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 4, true);
        s.trim(0, 4);
        assert!(s.verify_sanitized(0, 4));
    }

    #[test]
    fn baseline_fails_verification() {
        let mut s = ssd(SanitizePolicy::none());
        s.write(0, 4, true);
        s.trim(0, 4);
        assert!(!s.verify_sanitized(0, 4), "baseline must leak deleted data");
    }

    #[test]
    fn insecure_writes_are_not_sanitized_even_by_secssd() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let tags = s.write(0, 2, false); // O_INSEC file
        s.trim(0, 2);
        // C1/C2 only covers secured data, so verification passes vacuously...
        assert!(s.verify_sanitized(0, 2));
        // ...while the deleted insecure data genuinely lingers on-chip.
        let rec = s.attacker_recoverable_tags();
        assert!(tags.iter().all(|t| rec.contains(t)), "insecure data lingers by design");
    }

    #[test]
    fn overwrite_version_is_sanitized() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let first = s.write(0, 1, true)[0];
        s.write(0, 1, true);
        let rec = s.attacker_recoverable_tags();
        assert!(!rec.contains(&first));
        assert!(s.verify_sanitized(0, 1));
    }

    #[test]
    fn a_remnant_the_host_never_wrote_is_judged_by_its_oob() {
        use evanesco_nand::{chip::PageOob, geometry::Ppa};
        // Planted in the last block of chip 0, which the FTL has not
        // opened: `lpa` 2 is mapped to another tag, 9 is unmapped.
        for (lpa, secure, leaks) in [(2, true, true), (9, true, true), (2, false, false)] {
            let mut s = ssd(SanitizePolicy::evanesco());
            s.write(0, 4, true);
            let at = Ppa::new(s.config().ftl.geometry.blocks - 1, 0);
            let remnant = PageData::tagged(0xF0E1).with_oob(PageOob { lpa, secure, seq: 0 });
            s.device_mut().chips_mut()[0].program(at, remnant).unwrap();
            assert_eq!(s.verify_sanitized(0, 16), !leaks, "lpa {lpa} secure {secure}");
            assert!(s.verify_sanitized(10, 6), "a remnant outside the range is not judged");
            s.device_mut().chips_mut()[0].p_lock(at).unwrap();
            assert!(s.verify_sanitized(0, 16), "a locked remnant is unreadable");
        }
    }

    #[test]
    fn verification_runs_on_a_scaled_device() {
        let mut s = Emulator::new(SsdConfig::scaled(12), SanitizePolicy::evanesco());
        let mut x = 11u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.write(x % 512, 1 + x % 4, !x.is_multiple_of(3));
            if x.is_multiple_of(5) {
                s.trim(x % 256, 2);
            }
        }
        let logical = s.logical_pages();
        assert!(s.verify_sanitized(0, logical));
    }

    #[test]
    fn read_returns_latest_tags() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let tags = s.write(10, 3, true);
        let got = s.read(10, 3);
        assert_eq!(got, tags.into_iter().map(Some).collect::<Vec<_>>());
        assert_eq!(s.read(13, 1), vec![None]);
    }

    #[test]
    fn result_contains_time_and_waf() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 8, true);
        let r = s.result();
        assert!(r.sim_time > evanesco_nand::timing::Nanos::ZERO);
        assert!(r.iops > 0.0);
        assert!((r.waf - 1.0).abs() < 1e-9, "no GC yet: waf {}", r.waf);
        assert_eq!(r.host_ops, 8);
    }

    #[test]
    fn power_cut_mid_workload_recovers_and_serves_acked_data() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let first = s.write(0, 8, true);
        let horizon = s.result().sim_time;
        // Cut partway through a second batch of secure overwrites: some
        // complete, one is interrupted mid-flight, the rest never reach
        // the device.
        s.power_cut_at(horizon + Nanos::from_micros(1800));
        let tracked = s.write_tracked(0, 8, true);
        assert!(s.powered_off());
        assert!(tracked.iter().any(|&(_, a)| a), "early overwrites complete before the cut");
        let idx = tracked
            .iter()
            .position(|&(_, a)| !a)
            .expect("an 8-overwrite batch cannot finish in 1.8 ms");
        // The dark device rejects host requests.
        assert_eq!(s.read(0, 1), vec![None]);

        let report = s.recover();
        assert!(report.scanned_pages > 0);
        assert!(report.rebuilt_mappings > 0);

        let after = s.read(0, 8);
        for (i, &(tag, acked)) in tracked.iter().enumerate().take(idx) {
            assert!(acked);
            assert_eq!(after[i], Some(tag), "acked overwrite served after recovery");
        }
        // The interrupted overwrite is atomic: either nothing happened
        // (the old version is still current) or the old version was
        // invalidated and the unacked new one was sanitized — never a
        // half-written mix, never the new tag.
        match after[idx] {
            Some(t) => assert_eq!(t, first[idx], "old version or nothing"),
            None => {
                let rec = s.attacker_recoverable_tags();
                assert!(
                    !rec.contains(&first[idx]),
                    "invalidated old version must be sanitized, not just unmapped"
                );
            }
        }
        // Overwrites after the interrupted one never reached the device.
        for i in idx + 1..8 {
            assert_eq!(after[i], Some(first[i]));
        }
        // No superseded secured version is attacker-recoverable.
        assert!(s.verify_sanitized(0, 8));

        // Recovery metrics flow into the run result.
        let r = s.result();
        assert_eq!(r.recovery.recoveries, 1);
        assert!(r.recovery.scan_time > evanesco_nand::timing::Nanos::ZERO);
        assert_eq!(r.recovery.report.scanned_pages, report.scanned_pages);

        // The device accepts and acknowledges new work after recovery.
        assert!(s.write_tracked(3, 1, true)[0].1);
    }

    /// A deterministic mixed trace: writes, overwrites, reads and trims
    /// over a small LPA range so requests genuinely collide.
    fn mixed_trace(n: usize, lpa_span: u64, seed: u64) -> Vec<HostOp> {
        let mut x = seed | 1;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        (0..n)
            .map(|_| {
                let lpa = step() % lpa_span;
                let npages = 1 + step() % 3;
                let npages = npages.min(lpa_span - lpa);
                match step() % 10 {
                    0..=5 => HostOp::Write { lpa, npages, secure: step() % 2 == 0 },
                    6..=8 => HostOp::Read { lpa, npages },
                    _ => HostOp::Trim { lpa, npages },
                }
            })
            .collect()
    }

    #[test]
    fn scheduled_results_are_byte_identical_across_queue_depths() {
        let ops = mixed_trace(120, 40, 0xBADC0FFE);
        let run = |qd: usize| {
            let mut s = ssd(SanitizePolicy::evanesco());
            let r = s.run_scheduled(&ops, qd);
            let readback = s.read(0, 40);
            assert!(s.verify_sanitized(0, 40), "qd {qd} leaks superseded secured data");
            (r.results, readback)
        };
        let base = run(1);
        for qd in [2, 8, 32] {
            assert_eq!(run(qd), base, "qd {qd} changed host-visible results");
        }
    }

    #[test]
    fn devices_wider_than_the_chip_mask_schedule_identically() {
        // 66 chips do not fit the 64-bit read chip set: reads fall back to
        // a fresh hint per pass (and `1 << chip` must never be evaluated).
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.channels = 66;
        cfg.ftl.n_chips = 66;
        let ops = mixed_trace(300, 200, 0x51DE);
        let run = |qd: usize| {
            let mut s = Emulator::new(cfg, SanitizePolicy::evanesco());
            s.write(0, 200, false);
            (s.run_scheduled(&ops, qd).results, s.read(0, 200))
        };
        assert_eq!(run(32), run(1), "qd 32 changed host-visible results");
    }

    #[test]
    fn deeper_queues_overlap_independent_requests() {
        let ops: Vec<HostOp> =
            (0..64).map(|l| HostOp::Write { lpa: l, npages: 1, secure: true }).collect();
        let time_at = |qd: usize| {
            let mut s = ssd(SanitizePolicy::evanesco());
            let r = s.run_scheduled(&ops, qd);
            assert_eq!(r.requests, 64);
            assert_eq!(r.host_pages, 64);
            assert!(r.max_outstanding <= qd);
            r.sim_time
        };
        let qd1 = time_at(1);
        let qd8 = time_at(8);
        assert!(qd8 < qd1, "deeper queue must not be slower");
        let speedup = qd1.0 as f64 / qd8.0 as f64;
        // Two chips on two channels: independent writes stripe across
        // both, so QD >= 2 approaches 2x over the serialized baseline.
        assert!(speedup > 1.5, "speedup {speedup} at qd 8 on a 2-chip device");
    }

    #[test]
    fn queue_depth_one_serializes_requests() {
        let ops: Vec<HostOp> =
            (0..8).map(|l| HostOp::Write { lpa: l, npages: 1, secure: true }).collect();
        let mut s = ssd(SanitizePolicy::evanesco());
        let r = s.run_scheduled(&ops, 1);
        assert_eq!(r.max_outstanding, 1);
        // Serialized: total time is at least requests x (transfer + program)
        // even though the writes land on alternating chips.
        let t = s.config().ftl.timing;
        let per = t.t_xfer_page + t.t_prog;
        assert!(r.sim_time >= Nanos(per.0 * 8), "qd 1 must not overlap requests");
    }

    #[test]
    fn checkpoint_roundtrip_continues_bit_identically() {
        let mut live = ssd(SanitizePolicy::evanesco());
        live.enable_gauges();
        live.enable_timeseries(Nanos::from_micros(200), 64);
        let mut x = 7u64;
        for _ in 0..150 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            live.write(x % 48, 1, !x.is_multiple_of(3));
            if x.is_multiple_of(5) {
                live.trim(x % 32, 1);
            }
        }
        let bytes = live.save_checkpoint();
        let mut restored = Emulator::restore_checkpoint(&bytes).expect("valid checkpoint");
        assert_eq!(restored.result(), live.result());
        assert_eq!(restored.prometheus_scrape(), live.prometheus_scrape());
        // A restored emulator re-encodes to the exact same bytes.
        assert_eq!(restored.save_checkpoint(), bytes);
        // Continue both in lockstep: every host-visible result and every
        // metric stays identical.
        for _ in 0..150 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = live.write_tracked(x % 48, 1, !x.is_multiple_of(3));
            let b = restored.write_tracked(x % 48, 1, !x.is_multiple_of(3));
            assert_eq!(a, b);
            if x.is_multiple_of(4) {
                assert_eq!(live.read(x % 48, 2), restored.read(x % 48, 2));
            }
            if x.is_multiple_of(5) {
                live.trim(x % 32, 1);
                restored.trim(x % 32, 1);
            }
        }
        live.sample_timeseries_now();
        restored.sample_timeseries_now();
        assert_eq!(restored.result(), live.result());
        assert_eq!(restored.prometheus_scrape(), live.prometheus_scrape());
        assert_eq!(restored.save_checkpoint(), live.save_checkpoint());
    }

    /// Byte range of section `id`'s payload within a v2 checkpoint
    /// (frame header: id + u64 length + u32 crc = 13 bytes).
    fn section_payload_range(bytes: &[u8], id: u8) -> std::ops::Range<usize> {
        let mut pos = 12; // 8-byte magic + u32 version
        loop {
            let sid = bytes[pos];
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let start = pos + 13;
            if sid == id {
                return start..start + len;
            }
            pos = start + len;
        }
    }

    #[test]
    fn failed_in_place_restore_leaves_device_untouched() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 6, true);
        s.trim(0, 2);
        let before = s.save_checkpoint();
        let mut other = ssd(SanitizePolicy::evanesco());
        other.write(3, 3, true);
        let good = other.save_checkpoint();
        // A truncated blob and a bit-flipped blob must both fail without
        // mutating the target device.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        for bad in [&good[..good.len() - 7], &flipped[..]] {
            assert!(s.restore_in_place(bad).is_err());
            assert_eq!(s.save_checkpoint(), before, "failed restore must leave state untouched");
        }
        // A valid blob swaps wholesale.
        s.restore_in_place(&good).unwrap();
        assert_eq!(s.save_checkpoint(), good);
    }

    #[test]
    fn strict_restore_names_the_damaged_section() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 4, true);
        let mut bytes = s.save_checkpoint();
        let r = section_payload_range(&bytes, crate::checkpoint::section::FTL);
        bytes[r.start + 10] ^= 0xFF;
        match Emulator::restore_checkpoint(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("ftl"), "error must name the section: {msg}");
            }
            other => panic!("expected a CRC failure naming 'ftl', got {other:?}"),
        }
    }

    #[test]
    fn salvage_rebuilds_a_corrupt_ftl_section_from_flash() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let tags = s.write(0, 8, true);
        s.trim(0, 3);
        let mut bytes = s.save_checkpoint();
        let r = section_payload_range(&bytes, crate::checkpoint::section::FTL);
        bytes[r.start + 20] ^= 0xFF;
        let (mut em, report) =
            Emulator::restore_checkpoint_salvaging(&bytes).expect("ftl damage is salvageable");
        assert_eq!(report.salvaged, vec!["ftl"]);
        assert!(!report.is_clean());
        // The rebuilt tables serve the exact logical contents.
        assert_eq!(em.read(0, 3), vec![None; 3], "trimmed pages stay trimmed");
        let got = em.read(3, 5);
        assert_eq!(got, tags[3..].iter().map(|&t| Some(t)).collect::<Vec<_>>());
        // Acked secure deletes stay unrecoverable through the salvage.
        assert!(em.verify_sanitized(0, 3));
        // The salvaged device keeps working.
        assert!(em.write_tracked(0, 1, true)[0].1);
    }

    #[test]
    fn salvage_resets_a_corrupt_host_section() {
        let mut s = ssd(SanitizePolicy::evanesco());
        let tags = s.write(0, 4, true);
        let mut bytes = s.save_checkpoint();
        let r = section_payload_range(&bytes, crate::checkpoint::section::HOST);
        bytes[r.start] ^= 0xFF; // clobbers the host tag byte
        let (mut em, report) = Emulator::restore_checkpoint_salvaging(&bytes).unwrap();
        assert_eq!(report.salvaged, vec!["host"]);
        // Bookkeeping restarted; the flash and FTL state survived.
        assert_eq!(em.result().host_ops, 0);
        assert_eq!(em.read(0, 4), tags.into_iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn salvage_drops_corrupt_observational_sections() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.enable_gauges();
        s.enable_timeseries(Nanos::from_micros(200), 16);
        s.write(0, 6, true);
        let mut bytes = s.save_checkpoint();
        for id in [crate::checkpoint::section::GAUGES, crate::checkpoint::section::TIMESERIES] {
            let r = section_payload_range(&bytes, id);
            bytes[r.start] ^= 0xFF;
        }
        let (em, report) = Emulator::restore_checkpoint_salvaging(&bytes).unwrap();
        assert_eq!(report.salvaged, vec!["gauges", "timeseries"]);
        assert!(em.gauges().is_none());
        assert!(em.timeseries().is_none());
    }

    #[test]
    fn salvage_refuses_damage_to_required_sections() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 4, true);
        let bytes = s.save_checkpoint();
        for id in [
            crate::checkpoint::section::CONFIG,
            crate::checkpoint::section::POLICY,
            crate::checkpoint::section::DEVICE,
        ] {
            let mut bad = bytes.clone();
            let r = section_payload_range(&bad, id);
            bad[r.start] ^= 0xFF;
            assert!(
                Emulator::restore_checkpoint_salvaging(&bad).is_err(),
                "section {id} is required"
            );
        }
    }

    #[test]
    fn hostile_ftl_tables_decode_to_corrupt_and_salvage_as_a_corrupt_ftl_section() {
        use evanesco_nand::snapshot::crc32;
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.ftl.lock_coalescing = true;
        let mut s = Emulator::new(cfg, SanitizePolicy::evanesco());
        s.write(0, 8, true);
        s.write(0, 1, true); // queues one deferred pLock
        assert_eq!(s.ftl().pending_coalesced_locks(), 1);
        let bytes = s.save_checkpoint();
        let r = section_payload_range(&bytes, crate::checkpoint::section::FTL);
        // Offsets into the payload: lpa 0's L2P entry (tag byte, len, then
        // `[1][chip:u64][block:u32][page:u32]`), the first occupied P2L
        // slot's `[1][lpa:u64]`, and the queued page, which the 8-byte
        // `since` and the 1-byte degraded mode close.
        let payload = &bytes[r.clone()];
        let mut d = Dec::new(payload);
        d.u8().unwrap();
        for _ in 0..d.usize().unwrap() {
            d.opt(|d| Ok((d.usize()?, d.u32()?, d.u32()?))).unwrap();
        }
        d.usize().unwrap();
        d.usize().unwrap();
        let p2l = (0..).map(|_| (d.offset(), d.opt(|d| d.u64()).unwrap())).find(|e| e.1.is_some());
        let p2l = p2l.unwrap().0 + 1;
        let queued = payload.len() - 25;
        // One flipped bit each (little-endian fields): chip 0 or 1 becomes
        // 8 or 9 of 2; the LPA gains 2^32; the queued page's chip or block
        // moves off its entry's, or its page id gains 32 (of 24).
        let cases = [
            ("L2P entry of lpa 0 outside the device", 10, 0x08),
            ("P2L entry names lpa", p2l + 4, 0x01),
            ("queued page", queued, 0x01),
            ("queued page", queued + 8, 0x01),
            ("queued page", queued + 12, 0x20),
        ];
        for (want, at, bit) in cases {
            let mut bad = bytes.clone();
            bad[r.start + at] ^= bit;
            let crc = crc32(&bad[r.clone()]).to_le_bytes();
            bad[r.start - 4..r.start].copy_from_slice(&crc);
            match Emulator::restore_checkpoint(&bad) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("{want}: want Corrupt, got {:?}", other.map(|_| ())),
            }
            let (em, report) = Emulator::restore_checkpoint_salvaging(&bad).expect(want);
            assert_eq!(report.salvaged, vec!["ftl"], "{want}");
            em.ftl().check_invariants();
        }
    }

    #[test]
    fn salvaging_a_clean_checkpoint_is_a_strict_restore() {
        let mut s = ssd(SanitizePolicy::evanesco());
        s.enable_gauges();
        s.write(0, 6, true);
        s.trim(2, 2);
        let bytes = s.save_checkpoint();
        let (em, report) = Emulator::restore_checkpoint_salvaging(&bytes).unwrap();
        assert!(report.is_clean());
        assert_eq!(em.save_checkpoint(), bytes);
    }

    #[test]
    fn watchdog_zero_stall_rate_is_byte_identical_to_no_watchdog() {
        let ops = mixed_trace(80, 32, 0xFEED);
        let mut plain = ssd(SanitizePolicy::evanesco());
        let rp = plain.run_scheduled(&ops, 8);
        let mut guarded = ssd(SanitizePolicy::evanesco());
        guarded.enable_watchdog(crate::watchdog::DeadlineConfig::for_tests(5, 0.0));
        let rg = guarded.run_scheduled(&ops, 8);
        assert_eq!(rp, rg, "an idle watchdog must not change results or timing");
        assert_eq!(plain.save_checkpoint(), guarded.save_checkpoint());
        assert_eq!(guarded.watchdog_stats().unwrap(), crate::watchdog::WatchdogStats::default());
    }

    #[test]
    fn watchdog_failures_are_typed_accounted_and_qd_invariant() {
        let ops = mixed_trace(120, 40, 0xD00D);
        let run = |qd: usize| {
            let mut s = ssd(SanitizePolicy::evanesco());
            s.enable_watchdog(crate::watchdog::DeadlineConfig::for_tests(21, 0.35));
            let r = s.run_scheduled(&ops, qd);
            let stats = s.watchdog_stats().unwrap();
            assert!(stats.reconciles(), "qd {qd}: {stats:?}");
            let timed_out =
                r.results.iter().filter(|x| matches!(x, OpResult::TimedOut)).count() as u64;
            assert_eq!(stats.deadline_failures, timed_out, "every failure surfaces as TimedOut");
            assert!(timed_out > 0, "rate 0.35 over a budget of 3 must fail someone");
            assert!(stats.retries > 0);
            (r.results, s.read(0, 40), stats)
        };
        let base = run(1);
        for qd in [2, 8] {
            assert_eq!(run(qd), base, "qd {qd} changed watchdog outcomes");
        }
    }

    #[test]
    fn chaos_storm_serves_identical_results_and_accounts_every_injection() {
        let ops = mixed_trace(150, 40, 0x0C0C0A);
        let mut plain = ssd(SanitizePolicy::evanesco());
        let rp = plain.run_scheduled(&ops, 8);
        let mut noisy = ssd(SanitizePolicy::evanesco());
        noisy.enable_chaos(evanesco_core::fault::CorruptionConfig::storm(0.25, 0xA5));
        let rn = noisy.run_scheduled(&ops, 8);
        noisy.chaos_finalize();
        assert_eq!(rp.results, rn.results, "repaired tables must serve identical results");
        assert_eq!(plain.read(0, 40), noisy.read(0, 40));
        let st = noisy.ftl().stats();
        assert!(st.meta_corruptions_injected > 0, "storm at 0.25 must fire");
        assert!(st.meta_accounting_balanced(), "{st:?}");
        let model = noisy.chaos_stats().unwrap();
        assert_eq!(model.injected, st.meta_corruptions_injected);
        assert!(noisy.verify_sanitized(0, 40), "corruption must never leak a secured delete");
    }

    #[test]
    fn restore_rejects_garbage_without_panicking() {
        assert!(Emulator::restore_checkpoint(b"").is_err());
        assert!(Emulator::restore_checkpoint(b"EVSCCKP1").is_err());
        assert!(Emulator::restore_checkpoint(&[0u8; 64]).is_err());
        let mut s = ssd(SanitizePolicy::evanesco());
        s.write(0, 4, true);
        let bytes = s.save_checkpoint();
        // Truncation at any prefix must error, never panic.
        for cut in [12, bytes.len() / 2, bytes.len() - 1] {
            assert!(Emulator::restore_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn secssd_is_faster_than_erssd_on_update_heavy_load() {
        // A miniature Figure 14a: random secured overwrites.
        let run = |policy| {
            let mut s = ssd(policy);
            let logical = s.logical_pages();
            for l in 0..logical {
                s.write(l, 1, true);
            }
            let mut x = 99u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                s.write(x % logical, 1, true);
            }
            s.result()
        };
        let base = run(SanitizePolicy::none());
        let sec = run(SanitizePolicy::evanesco());
        let er = run(SanitizePolicy::erase_based());
        let scr = run(SanitizePolicy::scrub());
        assert!(sec.iops_vs(&base) > 0.7, "secSSD {}", sec.iops_vs(&base));
        assert!(er.iops_vs(&base) < 0.5, "erSSD {}", er.iops_vs(&base));
        assert!(sec.iops > er.iops);
        assert!(sec.iops > scr.iops);
        assert!(er.waf_vs(&base) > scr.waf_vs(&base));
    }
}
