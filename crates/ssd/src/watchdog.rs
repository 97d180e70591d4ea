//! Host-op deadlines with bounded retry and backoff.
//!
//! Real storage stacks do not wait forever: a command that wedges —
//! firmware livelock, a hung erase, a flaky channel — is aborted at a
//! per-class deadline, retried with exponential backoff, and failed up
//! the stack once a retry budget is exhausted. This module reproduces
//! that contract on the scheduled host path as a **simulated-time
//! watchdog** over the NCQ scoreboard:
//!
//! * every dispatched request draws a deterministic number of
//!   consecutive *stalls* keyed on `(seed, submission index)` alone, so
//!   the verdict for request *n* is identical at every queue depth —
//!   the same qd-invariance contract as the chip fault model;
//! * each stall models one wedged attempt: the watchdog aborts it at
//!   the class deadline and schedules a retry after an exponentially
//!   growing backoff. A request whose stall count fits the retry budget
//!   eventually executes normally, just later (the penalty is added to
//!   its earliest legal start);
//! * a request that stalls through its whole budget is **failed by
//!   deadline**: it never reaches the FTL, consumes the full
//!   abort-and-backoff penalty on the scoreboard, and completes with the
//!   typed [`crate::sched::OpResult::TimedOut`].
//!
//! Accounting identities (checked by the chaos gate): every injected
//! stall is an abort (`stalls_injected == aborts`) and every abort is
//! followed by either a retry or the final deadline failure
//! (`aborts == retries + deadline_failures`).
//!
//! A draw of zero stalls takes the byte-identical fast path — with
//! `stall_rate == 0` (or the watchdog disabled) the scheduled path's
//! reservations, results, and timings are exactly those of a device
//! with no watchdog at all, which is what keeps the scheduler
//! equivalence and host-performance gates unchanged.

use crate::sched::HostOp;
use evanesco_nand::timing::Nanos;

/// Deadline and retry policy for the scheduled-path watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Deadline for read requests.
    pub read_deadline: Nanos,
    /// Deadline for write requests.
    pub write_deadline: Nanos,
    /// Deadline for trim requests.
    pub trim_deadline: Nanos,
    /// Aborted attempts retried before the request fails by deadline.
    pub retry_budget: u32,
    /// Backoff before retry `k` is `backoff_base << k` (saturating).
    pub backoff_base: Nanos,
    /// Per-attempt probability that the attempt wedges and must be
    /// aborted at its deadline. Zero disables injection (and the
    /// watchdog becomes timing-neutral).
    pub stall_rate: f64,
    /// Seed for the deterministic stall draws.
    pub seed: u64,
}

impl DeadlineConfig {
    /// A tight policy sized for the test geometry: short class deadlines,
    /// a budget of 3 retries, 100 µs base backoff.
    pub fn for_tests(seed: u64, stall_rate: f64) -> Self {
        DeadlineConfig {
            read_deadline: Nanos::from_micros(500),
            write_deadline: Nanos::from_micros(2_000),
            trim_deadline: Nanos::from_micros(5_000),
            retry_budget: 3,
            backoff_base: Nanos::from_micros(100),
            stall_rate,
            seed,
        }
    }
}

evanesco_nand::counters! {
    /// The watchdog's accounting. See the module docs for the identities
    /// these counters satisfy.
    WatchdogStats;
    /// Wedged attempts injected by the stall model.
    stalls_injected: "Wedged attempts injected by the stall model.",
    /// Attempts aborted at their class deadline.
    aborts: "Attempts aborted at their class deadline.",
    /// Aborted attempts that were retried.
    retries: "Aborted attempts retried with backoff.",
    /// Requests failed after exhausting the retry budget.
    deadline_failures: "Requests failed after exhausting the retry budget.",
}

impl WatchdogStats {
    /// The exact accounting identity: every injected stall was aborted,
    /// and every abort was either retried or ended in a deadline failure.
    pub fn reconciles(&self) -> bool {
        self.stalls_injected == self.aborts && self.aborts == self.retries + self.deadline_failures
    }
}

/// What the watchdog decided for one dispatched request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// No stall drawn: execute on the byte-identical fast path.
    Clean,
    /// Some attempts wedged but the budget held: execute normally after
    /// the accumulated abort-and-backoff penalty.
    Retried {
        /// Simulated time the aborted attempts and backoffs consumed.
        penalty: Nanos,
    },
    /// Every attempt in the budget wedged: fail the request without FTL
    /// work after consuming the full penalty.
    Failed {
        /// Simulated time the aborted attempts and backoffs consumed.
        penalty: Nanos,
    },
}

/// Simulated-time deadline watchdog for the scheduled host path
/// (attach with [`crate::emulator::Emulator::enable_watchdog`]).
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: DeadlineConfig,
    stats: WatchdogStats,
}

impl Watchdog {
    /// A watchdog with the given policy and zeroed accounting.
    pub fn new(cfg: DeadlineConfig) -> Self {
        Watchdog { cfg, stats: WatchdogStats::default() }
    }

    /// The configured policy.
    pub fn config(&self) -> DeadlineConfig {
        self.cfg
    }

    /// Accounting so far.
    pub fn stats(&self) -> WatchdogStats {
        self.stats
    }

    fn deadline_of(&self, op: &HostOp) -> Nanos {
        match op {
            HostOp::Read { .. } => self.cfg.read_deadline,
            HostOp::Write { .. } => self.cfg.write_deadline,
            HostOp::Trim { .. } => self.cfg.trim_deadline,
        }
    }

    /// Judges one dispatched request. Draws are keyed on the submission
    /// index (never on dispatch order or the clock), so a fixed trace
    /// gets the same verdicts at every queue depth.
    pub(crate) fn judge(&mut self, idx: usize, op: &HostOp) -> Verdict {
        let mut stalls: u32 = 0;
        while stalls <= self.cfg.retry_budget
            && stall_draw(self.cfg.seed, idx as u64, u64::from(stalls)) < self.cfg.stall_rate
        {
            stalls += 1;
        }
        if stalls == 0 {
            return Verdict::Clean;
        }
        let deadline = self.deadline_of(op);
        let mut penalty = Nanos::ZERO;
        for attempt in 0..stalls {
            let backoff = self.cfg.backoff_base.0.saturating_mul(1u64 << attempt.min(20));
            penalty = Nanos(penalty.0.saturating_add(deadline.0).saturating_add(backoff));
        }
        self.stats.stalls_injected += u64::from(stalls);
        self.stats.aborts += u64::from(stalls);
        if stalls <= self.cfg.retry_budget {
            self.stats.retries += u64::from(stalls);
            Verdict::Retried { penalty }
        } else {
            self.stats.retries += u64::from(self.cfg.retry_budget);
            self.stats.deadline_failures += 1;
            Verdict::Failed { penalty }
        }
    }
}

/// One uniform draw in `[0, 1)` from a splitmix-style hash of
/// `(seed, request index, attempt)`.
fn stall_draw(seed: u64, idx: u64, attempt: u64) -> f64 {
    let mut z = seed
        ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx.wrapping_add(1))
        ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(attempt.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> HostOp {
        HostOp::Write { lpa: 0, npages: 1, secure: true }
    }

    #[test]
    fn zero_rate_is_always_clean() {
        let mut wd = Watchdog::new(DeadlineConfig::for_tests(7, 0.0));
        for idx in 0..500 {
            assert_eq!(wd.judge(idx, &w()), Verdict::Clean);
        }
        assert_eq!(wd.stats(), WatchdogStats::default());
        assert!(wd.stats().reconciles());
    }

    #[test]
    fn verdicts_depend_only_on_the_submission_index() {
        let mut a = Watchdog::new(DeadlineConfig::for_tests(42, 0.4));
        let mut b = Watchdog::new(DeadlineConfig::for_tests(42, 0.4));
        // Judge the same indices in different orders: identical verdicts.
        let fwd: Vec<_> = (0..200).map(|i| a.judge(i, &w())).collect();
        let rev: Vec<_> = (0..200).rev().map(|i| b.judge(i, &w())).collect();
        let rev_fwd: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().reconciles());
    }

    #[test]
    fn accounting_identity_holds_at_every_rate() {
        for rate in [0.05, 0.3, 0.7, 0.95] {
            let mut wd = Watchdog::new(DeadlineConfig::for_tests(9, rate));
            let mut failed = 0u64;
            for idx in 0..400 {
                if matches!(wd.judge(idx, &w()), Verdict::Failed { .. }) {
                    failed += 1;
                }
            }
            let s = wd.stats();
            assert!(s.reconciles(), "rate {rate}: {s:?}");
            assert_eq!(s.deadline_failures, failed);
        }
        // A certain stall rate fails every request after the full budget.
        let cfg = DeadlineConfig::for_tests(1, 1.0);
        let mut wd = Watchdog::new(cfg);
        assert!(matches!(wd.judge(0, &w()), Verdict::Failed { .. }));
        let s = wd.stats();
        assert_eq!(s.aborts, u64::from(cfg.retry_budget) + 1);
        assert_eq!(s.retries, u64::from(cfg.retry_budget));
        assert_eq!(s.deadline_failures, 1);
        assert!(s.reconciles());
    }

    #[test]
    fn penalty_grows_with_the_stall_count() {
        let cfg = DeadlineConfig::for_tests(0, 0.0);
        let mut wd = Watchdog::new(DeadlineConfig { stall_rate: 1.0, ..cfg });
        let Verdict::Failed { penalty } = wd.judge(3, &w()) else {
            panic!("certain stalls must fail");
        };
        // budget + 1 deadlines plus the geometric backoff series.
        let attempts = u64::from(cfg.retry_budget) + 1;
        let deadlines = cfg.write_deadline.0 * attempts;
        let backoffs = cfg.backoff_base.0 * ((1u64 << attempts) - 1);
        assert_eq!(penalty, Nanos(deadlines + backoffs));
    }
}
