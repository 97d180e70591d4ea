//! The benchmark's own oracle for host-visible results: a flat LPA → tag
//! shadow replayed in trace order, plus the set of tags that were written
//! secure and have since been overwritten or trimmed. It knows nothing of
//! GC, timing or policies, so it cannot share a bug with the device.
//!
//! Per-LPA order is preserved at every queue depth, so replaying results
//! in submission order is valid for scheduled runs too.

use evanesco_ssd::{HostOp, OpResult};
use std::collections::HashSet;

/// Shadow device. `attempted` / `failed` count host requests.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// Current `(tag, secure)` of each logical page.
    map: Vec<Option<(u64, bool)>>,
    /// Tags written secure and since overwritten or trimmed: the paper's
    /// contract is that none of them is ever recoverable again.
    dead_secure: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Shadow {
    pub fn new(logical_pages: u64) -> Self {
        Shadow {
            map: vec![None; logical_pages as usize],
            dead_secure: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn retire(&mut self, lpa: u64) {
        if let Some((tag, true)) = self.map[lpa as usize].take() {
            self.dead_secure.push(tag);
        }
    }

    /// Checks one request's result against the shadow and applies it. A
    /// request fails when a read returns anything but the shadow's tags,
    /// a write or trim is not acknowledged, the result is of the wrong
    /// kind or length, or it timed out. (A submission the device refuses
    /// outright panics inside `run_scheduled`, which fails the whole run.)
    pub fn apply(&mut self, op: &HostOp, result: &OpResult) {
        self.attempted += 1;
        let ok = match (op, result) {
            (HostOp::Write { lpa, npages, secure }, OpResult::Write(tags, acked)) => {
                let ok = *acked && tags.len() as u64 == *npages;
                if ok {
                    for (i, &tag) in tags.iter().enumerate() {
                        self.retire(lpa + i as u64);
                        self.map[(lpa + i as u64) as usize] = Some((tag, *secure));
                    }
                }
                ok
            }
            (HostOp::Read { lpa, npages }, OpResult::Read(got)) => {
                got.len() as u64 == *npages
                    && got
                        .iter()
                        .enumerate()
                        .all(|(i, g)| *g == self.map[(lpa + i as u64) as usize].map(|(tag, _)| tag))
            }
            (HostOp::Trim { lpa, npages }, OpResult::Trim(acked)) => {
                if *acked {
                    (*lpa..lpa + npages).for_each(|l| self.retire(l));
                }
                *acked
            }
            _ => false,
        };
        self.failed += u64::from(!ok);
    }

    /// How many dead secure tags a chip-level attacker can still recover
    /// (`recoverable` is `Emulator::attacker_recoverable_tags()` taken
    /// after `flush_coalesced_locks()`).
    pub fn leaks(&self, recoverable: &HashSet<u64>) -> u64 {
        self.dead_secure.iter().filter(|t| recoverable.contains(t)).count() as u64
    }

    pub fn dead_secure_tags(&self) -> usize {
        self.dead_secure.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(lpa: u64, npages: u64, secure: bool) -> HostOp {
        HostOp::Write { lpa, npages, secure }
    }

    #[test]
    fn overwrite_and_trim_retire_only_secure_tags() {
        let mut s = Shadow::new(16);
        s.apply(&w(0, 2, true), &OpResult::Write(vec![1, 2], true));
        s.apply(&w(2, 1, false), &OpResult::Write(vec![3], true));
        s.apply(&w(0, 1, false), &OpResult::Write(vec![4], true)); // kills secure tag 1
        s.apply(&w(2, 1, true), &OpResult::Write(vec![5], true)); // kills insecure tag 3
        s.apply(&HostOp::Trim { lpa: 0, npages: 3 }, &OpResult::Trim(true)); // kills 2 and 5
        assert_eq!((s.attempted, s.failed), (5, 0));
        let mut dead = s.dead_secure.clone();
        dead.sort_unstable();
        assert_eq!(dead, vec![1, 2, 5], "insecure tags 3 and 4 are exempt");
        assert_eq!(s.leaks(&HashSet::from([2, 3, 4, 9])), 1, "only dead secure tag 2 leaks");
        assert_eq!(s.leaks(&HashSet::new()), 0);
    }

    #[test]
    fn reads_are_checked_against_the_shadow() {
        let mut s = Shadow::new(8);
        s.apply(&w(1, 2, true), &OpResult::Write(vec![10, 11], true));
        let r = HostOp::Read { lpa: 0, npages: 4 };
        s.apply(&r, &OpResult::Read(vec![None, Some(10), Some(11), None]));
        assert_eq!(s.failed, 0, "unmapped pages read as None");
        s.apply(&r, &OpResult::Read(vec![None, Some(10), Some(12), None]));
        assert_eq!(s.failed, 1, "a wrong tag fails the read");
        s.apply(&r, &OpResult::Read(vec![None, Some(10), Some(11)]));
        assert_eq!(s.failed, 2, "a short read fails");
        s.apply(&HostOp::Trim { lpa: 1, npages: 1 }, &OpResult::Trim(true));
        s.apply(&r, &OpResult::Read(vec![None, None, Some(11), None]));
        assert_eq!(s.failed, 2, "a trimmed page reads as None");
        s.apply(&r, &OpResult::Read(vec![None, Some(10), Some(11), None]));
        assert_eq!(s.failed, 3, "a trimmed page must not come back");
    }

    #[test]
    fn unacknowledged_timed_out_and_mismatched_requests_fail() {
        let mut s = Shadow::new(8);
        s.apply(&w(0, 1, true), &OpResult::Write(vec![1], false));
        assert_eq!(s.failed, 1);
        s.apply(&HostOp::Read { lpa: 0, npages: 1 }, &OpResult::Read(vec![None]));
        assert_eq!(s.failed, 1, "an unacknowledged write never superseded anything");
        s.apply(&HostOp::Trim { lpa: 0, npages: 1 }, &OpResult::Trim(false));
        s.apply(&HostOp::Read { lpa: 0, npages: 1 }, &OpResult::TimedOut);
        s.apply(&w(0, 1, true), &OpResult::Read(vec![None]));
        assert_eq!((s.attempted, s.failed), (5, 4));
        assert_eq!(s.dead_secure_tags(), 0);
    }
}
