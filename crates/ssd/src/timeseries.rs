//! Windowed run telemetry: a bounded ring of periodic samples.
//!
//! PR 4's instrumentation exposes instantaneous gauges and end-of-run
//! totals; this module adds the time axis. At a fixed simulated-time
//! interval the emulator closes a *window*: a [`RunResult::since`] delta
//! over the window (windowed IOPS, WAF, lock/erase/GC/reliability
//! counters, latency histograms) plus a [`GaugeSnapshot`] of the live
//! VAF / T_insecure gauges and per-resource utilization fractions. The
//! paper's Figure 4 timeplots (N_valid / N_invalid over time) fall out of
//! the gauge fields of consecutive samples.
//!
//! Simulated time only advances at host-operation boundaries, so a window
//! closes at the first boundary at or after its due time; its recorded
//! `end` is that boundary. Quiet periods produce no empty windows — the
//! next window simply spans the gap. The ring keeps the most recent
//! `capacity` samples and counts evictions in [`TimeSeries::dropped`]; it
//! is an [`Arena`] ring, so it never holds more than its capacity plus one
//! chunk.
//!
//! Sampling is observational: it reads the clock and copies counters but
//! never issues device work, so runs with the series enabled are
//! byte-identical (simulated-time-wise) to runs without.

use crate::config::SsdConfig;
use crate::emulator::Emulator;
use crate::gauges::GaugeSnapshot;
use crate::metrics::RunResult;
use evanesco_nand::arena::Arena;
use evanesco_nand::timing::Nanos;

/// Most windows one chunk of the ring holds (57 KiB).
const CHUNK: usize = 32;

/// Mean and peak busy fraction over one window for one resource class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilWindow {
    /// Mean busy fraction across the class's resources.
    pub mean: f64,
    /// Busiest single resource's busy fraction.
    pub max: f64,
}

/// One closed telemetry window.
#[derive(Debug, Clone, Copy)]
pub struct WindowSample {
    /// Zero-based window number (monotone across ring eviction).
    pub index: u64,
    /// Simulated time the window opened (previous window's `end`).
    pub start: Nanos,
    /// Simulated time the window closed (first host-op boundary at or
    /// after the due time).
    pub end: Nanos,
    /// Everything that happened inside the window, as a whole-run delta:
    /// `iops` and `waf` are the *windowed* rates.
    pub delta: RunResult,
    /// Live gauges at `end` (present when gauges are enabled).
    pub gauges: Option<GaugeSnapshot>,
    /// T_insecure at `end`, normalized by device capacity (0 without
    /// gauges).
    pub t_insecure: f64,
    /// Chip busy fractions over the window.
    pub chip_util: UtilWindow,
    /// Channel busy fractions over the window.
    pub channel_util: UtilWindow,
}

/// The bounded ring of [`WindowSample`]s plus the cumulative baselines
/// needed to close the next window.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: Nanos,
    capacity: usize,
    ring: Arena<WindowSample>,
    /// Samples evicted because the ring was full.
    pub dropped: u64,
    next_index: u64,
    next_due: Nanos,
    window_start: Nanos,
    baseline: RunResult,
    chip_busy: Vec<Nanos>,
    channel_busy: Vec<Nanos>,
    capacity_pages: u64,
}

impl TimeSeries {
    /// Creates a series sampling every `interval` of simulated time,
    /// keeping at most `capacity` windows, armed on `em`'s current state.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or zero capacity (both would be
    /// degenerate: an unbounded ring or an infinite loop of windows).
    /// Allocates no window before the first closes.
    pub fn new(interval: Nanos, capacity: usize, em: &Emulator) -> Self {
        assert!(interval > Nanos::ZERO, "timeseries interval must be positive");
        assert!(capacity > 0, "timeseries capacity must be positive");
        let now = em.device().simulated_time();
        TimeSeries {
            interval,
            capacity,
            ring: Arena::for_ring(capacity, CHUNK),
            dropped: 0,
            next_index: 0,
            next_due: Nanos(now.0 + interval.0),
            window_start: now,
            baseline: em.result(),
            chip_busy: em.device().chip_utilized(),
            channel_busy: em.device().channel_utilized(),
            capacity_pages: em.logical_pages(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    /// Closes a window if the clock has reached the due time (called by
    /// the emulator after each host-operation boundary).
    pub fn poll(&mut self, em: &Emulator) {
        let now = em.device().simulated_time();
        if now < self.next_due {
            return;
        }
        self.close_window(em, now);
        // One window spans the whole gap when the clock jumped several
        // intervals (e.g. across an erase); re-arm past it.
        while self.next_due <= now {
            self.next_due = Nanos(self.next_due.0 + self.interval.0);
        }
    }

    /// Force-closes a final partial window at the current clock (end of
    /// run). No-op when nothing happened since the last close. The window
    /// may be zero-span: operations overlapping earlier ones on parallel
    /// chips complete without advancing the device horizon.
    pub fn sample_now(&mut self, em: &Emulator) {
        let now = em.device().simulated_time();
        if now > self.window_start || em.result() != self.baseline {
            self.close_window(em, now);
            while self.next_due <= now {
                self.next_due = Nanos(self.next_due.0 + self.interval.0);
            }
        }
    }

    fn close_window(&mut self, em: &Emulator, now: Nanos) {
        let cur = em.result();
        let delta = cur.since(&self.baseline);
        let span = now.saturating_sub(self.window_start);
        let chip_now = em.device().chip_utilized();
        let channel_now = em.device().channel_utilized();
        let gauges = em.gauges().map(|g| g.snapshot());
        let t_insecure = gauges.map_or(0.0, |g| g.t_insecure(self.capacity_pages));
        let sample = WindowSample {
            index: self.next_index,
            start: self.window_start,
            end: now,
            delta,
            gauges,
            t_insecure,
            chip_util: util_window(&self.chip_busy, &chip_now, span),
            channel_util: util_window(&self.channel_busy, &channel_now, span),
        };
        self.next_index += 1;
        self.window_start = now;
        self.baseline = cur;
        self.chip_busy = chip_now;
        self.channel_busy = channel_now;
        self.dropped += u64::from(self.ring.push_evicting(self.capacity, sample));
    }

    /// Serializes the full series — interval, ring of closed windows, and
    /// the cumulative baselines arming the next window — into a
    /// checkpoint stream. The resource counts and the logical capacity are
    /// the device's configuration, so the stream does not restate them.
    pub fn encode_state(&self, e: &mut evanesco_nand::snapshot::Enc) {
        e.tag(0x41);
        e.u64(self.interval.0);
        e.usize(self.capacity);
        e.usize(self.ring.len());
        for s in self.ring.iter() {
            encode_window_sample(s, e);
        }
        e.u64(self.dropped);
        e.u64(self.next_index);
        e.u64(self.next_due.0);
        e.u64(self.window_start.0);
        self.baseline.encode_snapshot(e);
        for &n in self.chip_busy.iter().chain(&self.channel_busy) {
            e.u64(n.0);
        }
    }

    /// Reconstructs a series for the device `cfg` describes from a stream
    /// written by [`TimeSeries::encode_state`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption, and on a ring longer
    /// than its capacity.
    pub fn decode_state(
        cfg: &SsdConfig,
        d: &mut evanesco_nand::snapshot::Dec<'_>,
    ) -> Result<Self, evanesco_nand::snapshot::SnapshotError> {
        use evanesco_nand::snapshot::SnapshotError;
        d.expect_tag(0x41, "timeseries")?;
        let interval = Nanos(d.u64()?);
        let capacity = d.usize()?;
        if interval == Nanos::ZERO || capacity == 0 {
            return Err(SnapshotError::Corrupt(
                "timeseries interval/capacity must be positive".into(),
            ));
        }
        let n_ring = d.usize()?;
        if n_ring > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "timeseries ring of {n_ring} windows exceeds its capacity {capacity}"
            )));
        }
        let mut ring = Arena::for_ring(capacity, CHUNK);
        for _ in 0..n_ring {
            ring.push(decode_window_sample(d)?);
        }
        let dropped = d.u64()?;
        let next_index = d.u64()?;
        let next_due = Nanos(d.u64()?);
        let window_start = Nanos(d.u64()?);
        let baseline = RunResult::decode_snapshot(d)?;
        let mut busy = |n: usize| -> Result<Vec<Nanos>, SnapshotError> {
            (0..n).map(|_| Ok(Nanos(d.u64()?))).collect()
        };
        let chip_busy = busy(cfg.n_chips())?;
        let channel_busy = busy(cfg.channels())?;
        Ok(TimeSeries {
            interval,
            capacity,
            ring,
            dropped,
            next_index,
            next_due,
            window_start,
            baseline,
            chip_busy,
            channel_busy,
            capacity_pages: cfg.ftl.logical_pages(),
        })
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &WindowSample> {
        self.ring.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no window has closed yet (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total windows closed over the run (retained + dropped).
    pub fn total(&self) -> u64 {
        self.next_index
    }

    /// Renders the retained samples as an aligned text table (one row per
    /// window), for reports and debugging.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "window      start_ns        end_ns     iops      waf  valid_sec  invalid_sec  t_insec  chip_util\n",
        );
        if self.dropped > 0 {
            out.push_str(&format!("... {} older windows dropped ...\n", self.dropped));
        }
        for s in self.ring.iter() {
            let (v, i) = s.gauges.map_or((0, 0), |g| (g.valid_secured, g.invalid_secured));
            out.push_str(&format!(
                "{:>6} {:>13} {:>13} {:>8.0} {:>8.3} {:>10} {:>12} {:>8.4} {:>10.3}\n",
                s.index,
                s.start.0,
                s.end.0,
                s.delta.iops,
                s.delta.waf,
                v,
                i,
                s.t_insecure,
                s.chip_util.mean,
            ));
        }
        out
    }
}

fn encode_window_sample(s: &WindowSample, e: &mut evanesco_nand::snapshot::Enc) {
    e.u64(s.index);
    e.u64(s.start.0);
    e.u64(s.end.0);
    s.delta.encode_snapshot(e);
    e.opt(&s.gauges, |e, g| {
        e.u64(g.tick);
        e.u64(g.valid_secured);
        e.u64(g.invalid_secured);
        e.u64(g.max_valid);
        e.u64(g.max_invalid);
        e.u64(g.insecure_ticks);
        e.u64(g.sanitized_immediately);
        e.u64(g.exposed_then_erased);
        e.f64(g.vaf);
    });
    e.f64(s.t_insecure);
    e.f64(s.chip_util.mean);
    e.f64(s.chip_util.max);
    e.f64(s.channel_util.mean);
    e.f64(s.channel_util.max);
}

fn decode_window_sample(
    d: &mut evanesco_nand::snapshot::Dec<'_>,
) -> Result<WindowSample, evanesco_nand::snapshot::SnapshotError> {
    let index = d.u64()?;
    let start = Nanos(d.u64()?);
    let end = Nanos(d.u64()?);
    let delta = RunResult::decode_snapshot(d)?;
    let gauges = d.opt(|d| {
        Ok(GaugeSnapshot {
            tick: d.u64()?,
            valid_secured: d.u64()?,
            invalid_secured: d.u64()?,
            max_valid: d.u64()?,
            max_invalid: d.u64()?,
            insecure_ticks: d.u64()?,
            sanitized_immediately: d.u64()?,
            exposed_then_erased: d.u64()?,
            vaf: d.f64()?,
        })
    })?;
    Ok(WindowSample {
        index,
        start,
        end,
        delta,
        gauges,
        t_insecure: d.f64()?,
        chip_util: UtilWindow { mean: d.f64()?, max: d.f64()? },
        channel_util: UtilWindow { mean: d.f64()?, max: d.f64()? },
    })
}

/// Busy fractions of one resource class over a window of length `span`.
fn util_window(before: &[Nanos], now: &[Nanos], span: Nanos) -> UtilWindow {
    if span == Nanos::ZERO || before.is_empty() {
        return UtilWindow::default();
    }
    let fracs: Vec<f64> = now
        .iter()
        .zip(before)
        .map(|(n, b)| n.saturating_sub(*b).0 as f64 / span.0 as f64)
        .collect();
    UtilWindow {
        mean: fracs.iter().sum::<f64>() / fracs.len() as f64,
        max: fracs.iter().cloned().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use evanesco_ftl::SanitizePolicy;

    fn ssd() -> Emulator {
        Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco())
    }

    #[test]
    fn windows_tile_the_run_and_deltas_sum() {
        let mut em = ssd();
        em.enable_timeseries(Nanos::from_micros(200), 1024);
        let before = em.result();
        for i in 0..200 {
            em.write(i % 64, 1, true);
        }
        em.sample_timeseries_now();
        let after = em.result();
        let ts = em.timeseries().unwrap();
        assert!(ts.len() >= 2, "expected several windows, got {}", ts.len());
        // Adjacent windows tile [enable, last-close) exactly.
        let samples: Vec<&WindowSample> = ts.samples().collect();
        for pair in samples.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Window deltas sum to the whole-run delta.
        let total_pages: u64 = samples.iter().map(|s| s.delta.host_ops).sum();
        assert_eq!(total_pages, after.since(&before).host_ops);
        let total_erases: u64 = samples.iter().map(|s| s.delta.erases).sum();
        assert_eq!(total_erases, after.since(&before).erases);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut em = ssd();
        em.enable_timeseries(Nanos::from_micros(100), 2);
        for i in 0..300 {
            em.write(i % 64, 1, true);
        }
        let ts = em.timeseries().unwrap();
        assert_eq!(ts.len(), 2);
        assert!(ts.dropped > 0);
        assert_eq!(ts.total(), ts.len() as u64 + ts.dropped);
    }

    #[test]
    fn a_series_fed_three_times_its_capacity_holds_one_chunk_more() {
        for capacity in [2 * CHUNK, 40, 3] {
            let mut em = ssd();
            em.enable_timeseries(Nanos::from_micros(1), capacity);
            let mut i = 0;
            while em.timeseries().unwrap().total() < 3 * capacity as u64 {
                em.write(i % 64, 1, true);
                i += 1;
            }
            let ts = em.timeseries().unwrap();
            assert_eq!(ts.len() as u64 + ts.dropped, ts.total());
            assert_eq!(ts.len(), capacity);
            let chunk = ts.ring.chunk_len();
            let bound = capacity.next_multiple_of(chunk) + chunk;
            assert!(ts.ring.slots() <= bound, "{} slots for {capacity}", ts.ring.slots());
        }
    }

    #[test]
    fn gauge_fields_populate_when_gauges_enabled() {
        let mut em = ssd();
        em.enable_gauges();
        em.enable_timeseries(Nanos::from_micros(200), 256);
        for i in 0..120 {
            em.write(i % 48, 1, true);
        }
        let ts = em.timeseries().unwrap();
        let last = ts.samples().last().unwrap();
        let g = last.gauges.expect("gauges attached");
        assert!(g.valid_secured > 0);
        assert!(last.chip_util.mean > 0.0);
        assert!(last.chip_util.max <= 1.0 + 1e-9);
    }

    #[test]
    fn timeseries_is_timing_neutral() {
        let run = |enable: bool| {
            let mut em = ssd();
            if enable {
                em.enable_gauges();
                em.enable_timeseries(Nanos::from_micros(50), 128);
            }
            for i in 0..150 {
                em.write(i % 64, 1, true);
                if i % 7 == 0 {
                    em.trim(i % 32, 1);
                }
            }
            em.result()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn render_has_one_row_per_window() {
        let mut em = ssd();
        em.enable_timeseries(Nanos::from_micros(200), 64);
        for i in 0..100 {
            em.write(i % 64, 1, true);
        }
        let ts = em.timeseries().unwrap();
        let text = ts.render();
        assert_eq!(text.lines().count(), 1 + ts.len());
    }
}
