//! Request-trace generators. Every input the benchmark feeds the emulator
//! is made here (or by the product's own `workloads::generate` /
//! `generate_fleet`, called with the seed) — a pure function of `--seed`.

use evanesco_ssd::HostOp;

/// SplitMix64: small, fast, and good enough to pick addresses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (the modulo bias is far below anything the
    /// benchmark could resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Pages of the hot region the churn mix keeps rewriting.
pub const HOT_PAGES: u64 = 768;

/// The hot-sweep mix. Two interleaved components:
///
/// * **background** — bursts of 256 random 1–4-page requests (60 %
///   writes, half of them secure; 30 % reads; 10 % trims) over a cold
///   range half the size of the rest of the device;
/// * **hot sweeps** — after each burst, one sequential secure rewrite of
///   the [`HOT_PAGES`]-page hot region. A sweep fills whole blocks with
///   hot pages only, so the next sweep kills whole blocks back to back:
///   the pattern lock coalescing promotes to single `bLock`s.
///
/// Touches at most `HOT_PAGES + (logical − HOT_PAGES) / 2` pages, so the
/// device never fills past ~52 %.
pub fn churn(logical_pages: u64, requests: usize, seed: u64) -> Vec<HostOp> {
    assert!(logical_pages > 4 * HOT_PAGES, "device too small for the hot region");
    let cold_span = (logical_pages - HOT_PAGES - 4) / 2;
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(requests + 512);
    while ops.len() < requests {
        for _ in 0..256 {
            let lpa = HOT_PAGES + rng.below(cold_span);
            let npages = 1 + rng.below(4);
            ops.push(match rng.below(10) {
                0..=5 => HostOp::Write { lpa, npages, secure: rng.below(2) == 0 },
                6..=8 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            });
        }
        ops.extend((0..HOT_PAGES).step_by(4).map(|lpa| HostOp::Write {
            lpa,
            npages: 4,
            secure: true,
        }));
    }
    ops.truncate(requests);
    ops
}

/// Sequential insecure fill of `[0, pages)` in 64-page requests.
pub fn fill(pages: u64) -> Vec<HostOp> {
    (0..pages)
        .step_by(64)
        .map(|lpa| HostOp::Write { lpa, npages: 64.min(pages - lpa), secure: false })
        .collect()
}

/// The read-mostly mix: 1–4-page requests uniformly over `[0, filled)`,
/// 90 % reads, 8 % insecure writes, 2 % trims. Nothing is ever secure, so
/// no lock command is issued under any policy.
///
/// A trim deletes the range of the request before it (read a file, then
/// delete it). Trimming insecure data is free on the device, so a trim's
/// latency is the wait for that earlier request on the same pages: the
/// scheduler's per-LPA ordering, which is what this mix is about — and
/// it keeps the trim percentile from reading exactly zero.
pub fn read_mostly(filled: u64, requests: usize, seed: u64) -> Vec<HostOp> {
    let mut rng = Rng::new(seed);
    let mut ops: Vec<HostOp> = Vec::with_capacity(requests);
    for _ in 0..requests {
        let npages = 1 + rng.below(4);
        let lpa = rng.below(filled - npages + 1);
        ops.push(match (rng.below(50), ops.last()) {
            (45..=48, _) => HostOp::Write { lpa, npages, secure: false },
            (49, Some(prev)) => {
                let (lpa, npages) = prev.lpa_range();
                HostOp::Trim { lpa, npages }
            }
            _ => HostOp::Read { lpa, npages },
        });
    }
    ops
}

/// Host pages a trace covers.
pub fn pages(ops: &[HostOp]) -> u64 {
    ops.iter().map(HostOp::npages).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOGICAL: u64 = 48_384; // SsdConfig::scaled(12)

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(churn(LOGICAL, 5000, 42), churn(LOGICAL, 5000, 42));
        assert_ne!(churn(LOGICAL, 5000, 42), churn(LOGICAL, 5000, 43));
        assert_eq!(read_mostly(30_000, 5000, 42), read_mostly(30_000, 5000, 42));
        assert_ne!(read_mostly(30_000, 5000, 42), read_mostly(30_000, 5000, 7));
    }

    #[test]
    fn a_shorter_churn_trace_is_a_prefix_of_a_longer_one() {
        // observed_churn relies on this to compare itself with sanitize_churn.
        let long = churn(LOGICAL, 9000, 42);
        assert_eq!(churn(LOGICAL, 2500, 42)[..], long[..2500]);
    }

    #[test]
    fn churn_stays_in_range_and_below_the_fill_guard() {
        let ops = churn(LOGICAL, 50_000, 1);
        let mut touched = vec![false; LOGICAL as usize];
        for op in &ops {
            let (lpa, n) = op.lpa_range();
            assert!(lpa + n <= LOGICAL);
            touched[lpa as usize..(lpa + n) as usize].fill(true);
        }
        let share = touched.iter().filter(|&&t| t).count() as f64 / LOGICAL as f64;
        assert!(share <= 0.52, "touched {share}");
        let trims = ops.iter().filter(|o| matches!(o, HostOp::Trim { .. })).count();
        let writes = ops.iter().filter(|o| matches!(o, HostOp::Write { .. })).count();
        assert!(trims * 20 > ops.len() && writes * 2 > ops.len(), "{trims} trims, {writes} writes");
    }

    #[test]
    fn read_mostly_mix_and_fill_cover_what_they_claim() {
        let ops = read_mostly(36_288, 100_000, 3);
        let reads = ops.iter().filter(|o| matches!(o, HostOp::Read { .. })).count();
        let trims = ops.iter().filter(|o| matches!(o, HostOp::Trim { .. })).count();
        assert!((89_000..91_000).contains(&reads), "{reads} reads");
        assert!((1_700..2_300).contains(&trims), "{trims} trims");
        assert!(ops.iter().all(|o| {
            let (lpa, n) = o.lpa_range();
            lpa + n <= 36_288 && !matches!(o, HostOp::Write { secure: true, .. })
        }));
        assert_eq!(pages(&fill(1000)), 1000);
        assert_eq!(fill(1000).last(), Some(&HostOp::Write { lpa: 960, npages: 40, secure: false }));
    }
}
