//! Deterministic power-cut schedules.
//!
//! A [`FaultPlan`] is a reproducible list of absolute simulated-time
//! instants at which power is cut. Crash tests drive the emulator through
//! one cut at a time: arm the next cut with
//! [`crate::emulator::Emulator::power_cut_at`], run the workload until the
//! cut fires, then [`crate::emulator::Emulator::recover`] and continue.
//! Because the cut instants, the torn-state draws they seed, and every
//! other random stream in the workspace are pure functions of explicit
//! seeds, a failing schedule replays bit-identically from
//! `(config, workload seed, fault seed)`.

use evanesco_nand::timing::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible schedule of power-cut instants, consumed in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    cuts: Vec<Nanos>,
    next: usize,
}

impl FaultPlan {
    /// A plan that never cuts power.
    pub fn none() -> Self {
        FaultPlan { cuts: Vec::new(), next: 0 }
    }

    /// A single cut at `at`.
    pub fn single(at: Nanos) -> Self {
        FaultPlan { cuts: vec![at], next: 0 }
    }

    /// `n` cuts drawn uniformly from `(0, horizon)`, sorted ascending and
    /// deduplicated — the same `(seed, horizon, n)` always yields the same
    /// plan.
    pub fn from_seed(seed: u64, horizon: Nanos, n: usize) -> Self {
        assert!(horizon > Nanos(1), "fault-plan horizon must exceed 1 ns");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cuts: Vec<Nanos> = (0..n).map(|_| Nanos(rng.gen_range(1..horizon.0))).collect();
        cuts.sort_unstable();
        cuts.dedup();
        FaultPlan { cuts, next: 0 }
    }

    /// Takes the next cut instant off the schedule.
    pub fn next_cut(&mut self) -> Option<Nanos> {
        let c = self.cuts.get(self.next).copied();
        if c.is_some() {
            self.next += 1;
        }
        c
    }

    /// The full schedule (consumed or not).
    pub fn cuts(&self) -> &[Nanos] {
        &self.cuts
    }

    /// Cuts not yet taken by [`FaultPlan::next_cut`].
    pub fn remaining(&self) -> usize {
        self.cuts.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_sorted() {
        let h = Nanos::from_micros(10_000);
        let a = FaultPlan::from_seed(42, h, 8);
        let b = FaultPlan::from_seed(42, h, 8);
        assert_eq!(a, b);
        assert!(a.cuts().windows(2).all(|w| w[0] < w[1]));
        assert!(a.cuts().iter().all(|&c| c > Nanos::ZERO && c < h));
        let c = FaultPlan::from_seed(43, h, 8);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn consumption_order_and_remaining() {
        let mut p = FaultPlan::from_seed(7, Nanos::from_micros(1000), 3);
        let total = p.cuts().len();
        assert_eq!(p.remaining(), total);
        let first = p.next_cut().unwrap();
        assert_eq!(first, p.cuts()[0]);
        assert_eq!(p.remaining(), total - 1);
        while p.next_cut().is_some() {}
        assert_eq!(p.remaining(), 0);
        assert_eq!(p.next_cut(), None);
    }

    #[test]
    fn single_and_none() {
        let mut s = FaultPlan::single(Nanos(500));
        assert_eq!(s.next_cut(), Some(Nanos(500)));
        assert_eq!(s.next_cut(), None);
        assert_eq!(FaultPlan::none().remaining(), 0);
    }
}
