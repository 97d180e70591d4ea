//! Run-level metrics: IOPS, WAF, erases, lock mix, recovery, latency
//! histograms.

use evanesco_core::fault::FaultStats;
use evanesco_ftl::{FtlStats, RecoveryReport};
use evanesco_nand::timing::Nanos;

/// A log₂-bucketed latency histogram (nanosecond samples, 48 buckets up to
/// ~3 days) with O(1) recording and approximate percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 48],
    count: u64,
    sum: Nanos,
    max: Nanos,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; 48], count: 0, sum: Nanos::ZERO, max: Nanos::ZERO }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Nanos) {
        let idx = (64 - sample.0.max(1).leading_zeros() as usize - 1).min(47);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
    }

    /// Folds another histogram into this one (bucket-wise sum; exact for
    /// count/sum/max). The fleet layer uses this to aggregate one
    /// tenant's latency across devices.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact, unlike the bucketed shape).
    pub fn sum(&self) -> Nanos {
        self.sum
    }

    /// Mean recorded sample (exact); zero for an empty histogram.
    pub fn mean(&self) -> Nanos {
        Nanos(self.sum.0.checked_div(self.count).unwrap_or(0))
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))` nanoseconds
    /// (bucket 0 also absorbs zero samples, bucket 47 everything above).
    pub fn buckets(&self) -> &[u64; 48] {
        &self.buckets
    }

    /// Approximate percentile, `p` in `[0, 100]`. Returns zero for an
    /// empty histogram.
    ///
    /// Reports the **geometric midpoint** of the bucket holding the
    /// nearest-rank sample (`2^(i+0.5)` for bucket `[2^i, 2^(i+1))`),
    /// clamped to the observed maximum. Under the log₂ bucketing this is
    /// off by at most `√2×` from the exact nearest-rank value, in either
    /// direction — comparisons between two histograms (e.g. the fleet
    /// QoS-on/QoS-off p99 gate) therefore need a margin wider than `2×`
    /// or enough samples to land in different buckets.
    pub fn percentile(&self, p: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if target >= self.count {
            // The nearest-rank sample is the largest one, which is tracked
            // exactly.
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The overflow bucket has no finite midpoint: report the max.
                if i + 1 >= self.buckets.len() {
                    return self.max;
                }
                let mid = ((1u64 << i) as f64 * std::f64::consts::SQRT_2) as u64;
                return Nanos(mid).min(self.max);
            }
        }
        self.max
    }

    /// Serializes the histogram into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
        for &b in &self.buckets {
            e.u64(b);
        }
        e.u64(self.count);
        e.u64(self.sum.0);
        e.u64(self.max.0);
    }

    /// Inverse of [`LatencyHistogram::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        let mut buckets = [0u64; 48];
        for b in buckets.iter_mut() {
            *b = d.u64()?;
        }
        Ok(LatencyHistogram {
            buckets,
            count: d.u64()?,
            sum: Nanos(d.u64()?),
            max: Nanos(d.u64()?),
        })
    }

    /// The samples accumulated since an `earlier` snapshot of the same
    /// histogram (bucket-wise difference). The `max` of the difference is
    /// this histogram's max — the per-phase maximum is not recoverable
    /// from bucketed state.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = [0u64; 48];
        for (b, (s, e)) in buckets.iter_mut().zip(self.buckets.iter().zip(earlier.buckets.iter())) {
            *b = s - e;
        }
        LatencyHistogram {
            buckets,
            count: self.count - earlier.count,
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-operation host service-latency histograms, one per host op class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Read service latency.
    pub read: LatencyHistogram,
    /// Write service latency.
    pub write: LatencyHistogram,
    /// Trim (secure-delete) service latency.
    pub trim: LatencyHistogram,
}

impl LatencyBreakdown {
    /// Field-wise [`LatencyHistogram::since`].
    pub fn since(&self, earlier: &LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            read: self.read.since(&earlier.read),
            write: self.write.since(&earlier.write),
            trim: self.trim.since(&earlier.trim),
        }
    }

    /// Serializes all three histograms into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
        self.read.encode_snapshot(e);
        self.write.encode_snapshot(e);
        self.trim.encode_snapshot(e);
    }

    /// Inverse of [`LatencyBreakdown::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        Ok(LatencyBreakdown {
            read: LatencyHistogram::decode_snapshot(d)?,
            write: LatencyHistogram::decode_snapshot(d)?,
            trim: LatencyHistogram::decode_snapshot(d)?,
        })
    }
}

/// Aggregated power-up recovery work across a run (zero until the first
/// [`crate::emulator::Emulator::recover`] call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Number of recovery scans performed.
    pub recoveries: u64,
    /// Simulated device time spent scanning and re-locking.
    pub scan_time: Nanos,
    /// Every scan's report summed (see [`RecoveryReport::absorb`]): its
    /// `retired_blocks` is the grown-bad-block table size after the most
    /// recent scan, a snapshot, not a running sum.
    pub report: RecoveryReport,
}

impl RecoveryTotals {
    /// Folds one scan's report (and its measured device time) in.
    pub fn absorb(&mut self, r: &RecoveryReport, scan_time: Nanos) {
        self.recoveries += 1;
        self.scan_time += scan_time;
        self.report.absorb(r);
    }

    /// Serializes every counter into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.u64(self.recoveries);
        e.u64(self.scan_time.0);
        self.report.encode_snapshot(e);
    }

    /// Inverse of [`RecoveryTotals::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        Ok(RecoveryTotals {
            recoveries: d.u64()?,
            scan_time: Nanos(d.u64()?),
            report: RecoveryReport::decode_snapshot(d)?,
        })
    }

    /// Difference against an earlier snapshot of the same run.
    pub fn since(&self, earlier: &RecoveryTotals) -> RecoveryTotals {
        RecoveryTotals {
            recoveries: self.recoveries - earlier.recoveries,
            scan_time: self.scan_time.saturating_sub(earlier.scan_time),
            report: self.report.since(&earlier.report),
        }
    }
}

/// Summary of an emulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Host page operations executed (reads + writes + trimmed pages).
    pub host_ops: u64,
    /// Total simulated device time.
    pub sim_time: Nanos,
    /// Host page operations per simulated second.
    pub iops: f64,
    /// Write amplification factor.
    pub waf: f64,
    /// Block erases performed.
    pub erases: u64,
    /// `pLock` commands issued (chip-level count).
    pub plocks: u64,
    /// `bLock` commands issued (chip-level count).
    pub blocks_locked: u64,
    /// Full FTL counters.
    pub ftl: FtlStats,
    /// Power-up recovery work (zero if the run never lost power).
    pub recovery: RecoveryTotals,
    /// Chip-level injected-fault counters (zero unless a fault model is
    /// configured).
    pub faults: FaultStats,
    /// Host service-latency histograms per op class (reads included; see
    /// the read path in `emulator::dispatch_scheduled` and the sync ops).
    pub latency: LatencyBreakdown,
}

impl RunResult {
    /// Builds a result from raw counters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        host_ops: u64,
        sim_time: Nanos,
        ftl: FtlStats,
        locks: (u64, u64),
        erases: u64,
        recovery: RecoveryTotals,
        faults: FaultStats,
        latency: LatencyBreakdown,
    ) -> Self {
        let secs = sim_time.as_secs_f64();
        RunResult {
            host_ops,
            sim_time,
            iops: if secs > 0.0 { host_ops as f64 / secs } else { 0.0 },
            waf: ftl.waf(),
            erases,
            plocks: locks.0,
            blocks_locked: locks.1,
            ftl,
            recovery,
            faults,
            latency,
        }
    }

    /// Serializes the full result — including the derived `iops`/`waf`
    /// floats, bit-exact via [`f64::to_bits`] — into a checkpoint stream.
    pub fn encode_snapshot(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.u64(self.host_ops);
        e.u64(self.sim_time.0);
        e.f64(self.iops);
        e.f64(self.waf);
        e.u64(self.erases);
        e.u64(self.plocks);
        e.u64(self.blocks_locked);
        self.ftl.encode_snapshot(e);
        self.recovery.encode_snapshot(e);
        e.u64(self.faults.program_failures);
        e.u64(self.faults.erase_failures);
        e.u64(self.faults.plock_failures);
        e.u64(self.faults.block_lock_failures);
        e.u64(self.faults.read_retries);
        e.u64(self.faults.unc_reads);
        self.latency.encode_snapshot(e);
    }

    /// Inverse of [`RunResult::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_snapshot(
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        Ok(RunResult {
            host_ops: d.u64()?,
            sim_time: Nanos(d.u64()?),
            iops: d.f64()?,
            waf: d.f64()?,
            erases: d.u64()?,
            plocks: d.u64()?,
            blocks_locked: d.u64()?,
            ftl: FtlStats::decode_snapshot(d)?,
            recovery: RecoveryTotals::decode_snapshot(d)?,
            faults: FaultStats {
                program_failures: d.u64()?,
                erase_failures: d.u64()?,
                plock_failures: d.u64()?,
                block_lock_failures: d.u64()?,
                read_retries: d.u64()?,
                unc_reads: d.u64()?,
            },
            latency: LatencyBreakdown::decode_snapshot(d)?,
        })
    }

    /// IOPS normalized to a baseline run (the paper's Figure 14a unit).
    pub fn iops_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.iops > 0.0 {
            self.iops / baseline.iops
        } else {
            0.0
        }
    }

    /// WAF normalized to a baseline run (Figure 14b unit).
    pub fn waf_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.waf > 0.0 {
            self.waf / baseline.waf
        } else {
            0.0
        }
    }

    /// The metrics accumulated since an `earlier` snapshot of the same run
    /// (used to exclude warm-up phases from measurement).
    pub fn since(&self, earlier: &RunResult) -> RunResult {
        RunResult::new(
            self.host_ops - earlier.host_ops,
            self.sim_time.saturating_sub(earlier.sim_time),
            self.ftl.since(&earlier.ftl),
            (self.plocks - earlier.plocks, self.blocks_locked - earlier.blocks_locked),
            self.erases - earlier.erases,
            self.recovery.since(&earlier.recovery),
            self.faults.since(&earlier.faults),
            self.latency.since(&earlier.latency),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(host_ops: u64, micros: u64, programs: u64, writes: u64) -> RunResult {
        let ftl =
            FtlStats { host_write_pages: writes, nand_programs: programs, ..Default::default() };
        RunResult::new(
            host_ops,
            Nanos::from_micros(micros),
            ftl,
            (0, 0),
            0,
            RecoveryTotals::default(),
            FaultStats::default(),
            LatencyBreakdown::default(),
        )
    }

    #[test]
    fn iops_and_waf() {
        let r = result(1000, 1_000_000, 300, 100);
        assert!((r.iops - 1000.0).abs() < 1e-9);
        assert!((r.waf - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let base = result(1000, 1_000_000, 100, 100);
        let slow = result(1000, 4_000_000, 300, 100);
        assert!((slow.iops_vs(&base) - 0.25).abs() < 1e-9);
        assert!((slow.waf_vs(&base) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_gives_zero_iops() {
        let r = result(10, 0, 0, 0);
        assert_eq!(r.iops, 0.0);
    }

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(99.0), Nanos::ZERO);
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record(Nanos::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), Nanos::from_micros(5000));
        // p50 lands in the 10us bucket (upper bound 16.384us).
        assert!(h.percentile(50.0) <= Nanos::from_micros(17));
        // p100 reaches the outlier.
        assert_eq!(h.percentile(100.0), Nanos::from_micros(5000));
        // Monotone in p.
        assert!(h.percentile(99.0) >= h.percentile(50.0));
    }

    /// Exact nearest-rank percentile over raw samples (the reference the
    /// bucketed estimate is regression-tested against).
    fn nearest_rank(samples: &mut [u64], p: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
        samples[rank - 1]
    }

    #[test]
    fn percentile_tracks_nearest_rank_within_sqrt2() {
        // A mixed distribution spanning several log2 buckets: a cluster of
        // fast ops, a mid band, and slow outliers.
        let mut samples: Vec<u64> = Vec::new();
        samples.extend(std::iter::repeat_n(9_800, 50)); // ~10us cluster
        samples.extend((0..30).map(|i| 90_000 + i * 1_000)); // ~90-120us band
        samples.extend((0..15).map(|i| 700_000 + i * 10_000)); // ~0.7-0.85ms
        samples.extend([4_000_000, 4_100_000, 4_200_000, 9_000_000, 30_000_000]);
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(Nanos(s));
        }
        assert_eq!(h.sum(), Nanos(samples.iter().sum::<u64>()));
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let exact = nearest_rank(&mut samples, p) as f64;
            let approx = h.percentile(p).0 as f64;
            // The geometric bucket midpoint is within sqrt(2) of any sample
            // in its bucket; the old upper-bound convention failed this for
            // the clusters sitting just above a power of two.
            assert!(
                approx <= exact * std::f64::consts::SQRT_2 + 1.0
                    && approx >= exact / std::f64::consts::SQRT_2 - 1.0,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
        // Regression: p50 of the ~9.8us cluster must not report the 16.4us
        // bucket upper bound (the old behaviour, a 1.7x overstatement).
        assert!(h.percentile(50.0) < Nanos(13_000));
        // The estimate never exceeds the observed maximum.
        assert_eq!(h.percentile(100.0), Nanos(30_000_000));
    }

    #[test]
    fn histogram_since_subtracts_phases() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos(1_000));
        h.record(Nanos(2_000));
        let warmup = h;
        h.record(Nanos(70_000));
        h.record(Nanos(80_000));
        h.record(Nanos(90_000));
        let main = h.since(&warmup);
        assert_eq!(main.count(), 3);
        assert_eq!(main.sum(), Nanos(240_000));
        // All main-phase samples live in the 65.5..131us bucket; its
        // geometric midpoint (~92.7us) clamps to the observed max.
        assert!(main.percentile(50.0) >= Nanos(65_536));
        assert!(main.percentile(50.0) <= Nanos(90_000));
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos(0));
        h.record(Nanos(u64::MAX));
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100.0), Nanos(u64::MAX));
    }

    #[test]
    fn recovery_totals_absorb_and_since() {
        let mut t = RecoveryTotals::default();
        let r = RecoveryReport {
            scanned_pages: 40,
            relocked_pages: 3,
            retired_blocks: 1,
            ..RecoveryReport::default()
        };
        t.absorb(&r, Nanos::from_micros(500));
        let snapshot = t;
        t.absorb(&r, Nanos::from_micros(700));
        assert_eq!(t.recoveries, 2);
        assert_eq!(t.report.scanned_pages, 80);
        assert_eq!(t.report.retired_blocks, 1, "a snapshot, not a sum");
        assert_eq!(t.scan_time, Nanos::from_micros(1200));
        let d = t.since(&snapshot);
        assert_eq!(d.recoveries, 1);
        assert_eq!(d.scan_time, Nanos::from_micros(700));
        assert_eq!(d.report.scanned_pages, 40);
        assert_eq!(d.report.relocked_pages, 3);
    }

    #[test]
    fn since_isolates_the_measured_phase() {
        let warmup = result(1000, 2_000_000, 1500, 1000);
        let full = result(3000, 6_000_000, 3500, 3000);
        let main = full.since(&warmup);
        assert_eq!(main.host_ops, 2000);
        assert_eq!(main.sim_time, Nanos::from_micros(4_000_000));
        assert_eq!(main.ftl.nand_programs, 2000);
        assert_eq!(main.ftl.host_write_pages, 2000);
        // WAF recomputed from the deltas, not inherited.
        assert!((main.waf - 1.0).abs() < 1e-12);
        // IOPS from delta ops over delta time.
        assert!((main.iops - 2000.0 / 4.0).abs() < 1e-9);
    }
}
