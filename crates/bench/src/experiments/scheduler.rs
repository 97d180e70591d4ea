//! Out-of-order multi-queue scheduler throughput (`BENCH_scheduler.json`).
//!
//! Runs one deterministic mixed read/write/trim request trace through
//! [`evanesco_ssd::Emulator::run_scheduled`] at several queue depths on
//! the paper's 2-channel × 4-chip topology, with die-interleaved write
//! allocation and lock coalescing enabled. Queue depth 1 is the fully
//! serialized baseline (request *n + 1* starts only after request *n*
//! completes); deeper queues let independent requests overlap on idle
//! chips. Host-visible results are byte-identical at every depth — the
//! benchmark measures pure scheduling gain.
//!
//! The `scheduler` subcommand of the `experiments` binary renders the
//! table below, writes the machine-readable `BENCH_scheduler.json`, and
//! **fails (exit 1)** when the queue-depth-8 speedup over the serialized
//! baseline drops below [`GATE_MIN_SPEEDUP`] — a CI regression gate for
//! the scheduling and allocation fast paths.

use crate::scale::Scale;
use evanesco_core::fault::FaultStats;
use evanesco_ftl::config::WriteAlloc;
use evanesco_ftl::{FtlStats, SanitizePolicy};
use evanesco_nand::timing::Nanos;
use evanesco_ssd::jsonlite::Obj;
use evanesco_ssd::{Emulator, HostOp, SsdConfig};
use std::fmt::Write as _;

/// Queue depths measured, smallest first. Index 0 must be 1 (the
/// serialized baseline every other point is normalized against).
pub const QUEUE_DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// The queue depth the CI gate checks.
pub const GATE_QD: usize = 8;

/// Minimum acceptable speedup at [`GATE_QD`] over the serialized
/// baseline before the `scheduler` subcommand fails the run.
pub const GATE_MIN_SPEEDUP: f64 = 1.5;

/// Measurements for one queue depth.
#[derive(Debug, Clone, PartialEq)]
pub struct QdPoint {
    /// Queue depth.
    pub qd: usize,
    /// Simulated duration of the measured trace.
    pub sim_time: Nanos,
    /// Host page operations per simulated second.
    pub iops: f64,
    /// Simulated-time speedup over the queue-depth-1 baseline.
    pub speedup: f64,
    /// Largest number of requests ever outstanding.
    pub max_outstanding: usize,
    /// Per-channel busy fraction (busy time / simulated duration).
    pub channel_util: Vec<f64>,
    /// Mean per-chip busy fraction.
    pub mean_chip_util: f64,
    /// The run's FTL counters: its lock mix (`plocks`, `blocks_locked`,
    /// `coalesced_plocks`, `coalesce_flushed_plocks`) and its
    /// reliability-ladder responses, which read zero unless the config
    /// arms a fault model.
    pub ftl: FtlStats,
    /// Chip-level injected faults during this run (its JSON row reports
    /// command failures plus uncorrectable reads).
    pub faults: FaultStats,
}

/// The full benchmark result: one [`QdPoint`] per entry of
/// [`QUEUE_DEPTHS`], plus the trace composition.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerReport {
    /// Scale preset name (for the JSON provenance field).
    pub scale_name: String,
    /// Requests in the trace.
    pub requests: u64,
    /// Logical pages the trace touches.
    pub host_pages: u64,
    /// Write / read / trim request counts.
    pub op_mix: (u64, u64, u64),
    /// One measurement per queue depth.
    pub points: Vec<QdPoint>,
}

/// The benchmark's SSD: the paper's 2-channel × 4-chip topology with
/// die-interleaved allocation and lock coalescing on. At smoke scale the
/// miniature block shape keeps the run in milliseconds.
pub fn sched_config(scale: &Scale) -> SsdConfig {
    let mut cfg = scale.ssd_config();
    if scale.tiny_blocks {
        cfg.ftl.chips_per_channel = 4;
        cfg.ftl.n_chips = 8;
    }
    cfg.ftl.write_alloc = WriteAlloc::ChannelInterleaved;
    cfg.ftl.lock_coalescing = true;
    // Wide enough that a block whose pages die across one hot-region
    // rewrite sweep (a few hundred host writes) is promoted to one bLock
    // instead of aging out page by page.
    cfg.ftl.coalesce_window = 1024;
    cfg
}

/// The deterministic mixed trace. Two interleaved components:
///
/// * **background** — random 1–4-page requests (~60% writes, half
///   secured, ~30% reads, ~10% trims) over a cold range;
/// * **hot sweeps** — periodic sequential secure rewrites of a small hot
///   region. A sweep is contiguous in the trace, so the blocks it fills
///   hold hot pages only; the *next* sweep then invalidates whole blocks
///   back-to-back — exactly the pattern lock coalescing promotes to
///   single `bLock`s (paper §4.3).
pub fn mixed_trace(logical_pages: u64, requests: usize, seed: u64) -> Vec<HostOp> {
    let hot = 768.min((logical_pages / 4).max(8) & !3);
    let cold_span = (logical_pages.saturating_sub(hot + 4) / 2).max(8);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut ops = Vec::with_capacity(requests);
    while ops.len() < requests {
        for _ in 0..256 {
            let lpa = hot + step() % cold_span;
            let npages = 1 + step() % 4;
            ops.push(match step() % 10 {
                0..=5 => HostOp::Write { lpa, npages, secure: step() % 2 == 0 },
                6..=8 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            });
        }
        let mut l = 0;
        while l < hot {
            ops.push(HostOp::Write { lpa: l, npages: 4.min(hot - l), secure: true });
            l += 4;
        }
    }
    ops.truncate(requests);
    ops
}

fn run_at(cfg: SsdConfig, ops: &[HostOp], qd: usize) -> (Emulator, evanesco_ssd::SchedRun) {
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    let run = ssd.run_scheduled(ops, qd);
    // Settle deferred locks so the lock mix below reflects the whole
    // trace, not whatever happened to age out of the window.
    ssd.flush_coalesced_locks();
    (ssd, run)
}

/// Runs the benchmark at every queue depth.
pub fn run(scale: &Scale, scale_name: &str) -> SchedulerReport {
    let cfg = sched_config(scale);
    let logical = cfg.ftl.logical_pages();
    // Enough requests that every chip sees real work, capped so `full`
    // scale stays interactive.
    let requests = ((logical / 2) as usize).clamp(512, 20_000);
    let ops = mixed_trace(logical, requests, scale.seed);
    let op_mix = ops.iter().fold((0u64, 0u64, 0u64), |mut m, op| {
        match op {
            HostOp::Write { .. } => m.0 += 1,
            HostOp::Read { .. } => m.1 += 1,
            HostOp::Trim { .. } => m.2 += 1,
        }
        m
    });

    let mut points = Vec::new();
    let mut base_time = Nanos::ZERO;
    let mut host_pages = 0;
    for &qd in &QUEUE_DEPTHS {
        let (ssd, run) = run_at(cfg, &ops, qd);
        if qd == 1 {
            base_time = run.sim_time;
            host_pages = run.host_pages;
        }
        let secs = run.sim_time.as_secs_f64().max(f64::MIN_POSITIVE);
        points.push(QdPoint {
            qd,
            sim_time: run.sim_time,
            iops: run.iops(),
            speedup: base_time.0 as f64 / run.sim_time.0.max(1) as f64,
            max_outstanding: run.max_outstanding,
            channel_util: ssd
                .device()
                .channel_utilized()
                .iter()
                .map(|u| u.0 as f64 / secs / 1e9)
                .collect(),
            mean_chip_util: {
                let chips = ssd.device().chip_utilized();
                chips.iter().map(|u| u.0 as f64 / secs / 1e9).sum::<f64>() / chips.len() as f64
            },
            ftl: ssd.ftl().stats(),
            faults: ssd.result().faults,
        });
    }
    SchedulerReport {
        scale_name: scale_name.to_string(),
        requests: requests as u64,
        host_pages,
        op_mix,
        points,
    }
}

impl SchedulerReport {
    /// The measured speedup at the CI gate's queue depth.
    pub fn gate_speedup(&self) -> f64 {
        self.points.iter().find(|p| p.qd == GATE_QD).map_or(0.0, |p| p.speedup)
    }

    /// All gate violations (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.doc(false).non_finite();
        let speedup = self.gate_speedup();
        if speedup.is_nan() || speedup < GATE_MIN_SPEEDUP {
            v.push(format!("qd {GATE_QD} speedup {speedup:.2}x < {GATE_MIN_SPEEDUP:.1}x"));
        }
        v
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== Scheduler: out-of-order multi-queue throughput ==").unwrap();
        writeln!(
            out,
            "{} requests ({} writes / {} reads / {} trims), {} pages, scale {}",
            self.requests,
            self.op_mix.0,
            self.op_mix.1,
            self.op_mix.2,
            self.host_pages,
            self.scale_name,
        )
        .unwrap();
        writeln!(
            out,
            "{:>4} {:>12} {:>9} {:>10} {:>16} {:>9} {:>8} {:>7} {:>10} {:>8}",
            "qd",
            "iops",
            "speedup",
            "sim_ms",
            "chan_util",
            "chip_util",
            "plocks",
            "blocks",
            "coalesced",
            "flushed"
        )
        .unwrap();
        for p in &self.points {
            let chan =
                p.channel_util.iter().map(|u| format!("{u:.2}")).collect::<Vec<_>>().join("/");
            writeln!(
                out,
                "{:>4} {:>12.0} {:>8.2}x {:>10.2} {:>16} {:>9.2} {:>8} {:>7} {:>10} {:>8}",
                p.qd,
                p.iops,
                p.speedup,
                p.sim_time.0 as f64 / 1e6,
                chan,
                p.mean_chip_util,
                p.ftl.plocks,
                p.ftl.blocks_locked,
                p.ftl.coalesced_plocks,
                p.ftl.coalesce_flushed_plocks,
            )
            .unwrap();
        }
        writeln!(
            out,
            "gate: qd {} speedup {:.2}x (minimum {:.1}x) -> {}",
            GATE_QD,
            self.gate_speedup(),
            GATE_MIN_SPEEDUP,
            if self.violations().is_empty() { "PASS" } else { "FAIL" },
        )
        .unwrap();
        out
    }

    fn doc(&self, pass: bool) -> Obj {
        let gate = Obj::new()
            .field("qd", GATE_QD)
            .field("min_speedup", GATE_MIN_SPEEDUP)
            .field("speedup", self.gate_speedup())
            .field("pass", pass);
        let op_mix = Obj::new()
            .field("writes", self.op_mix.0)
            .field("reads", self.op_mix.1)
            .field("trims", self.op_mix.2);
        let point = |p: &QdPoint| {
            Obj::new()
                .field("qd", p.qd)
                .field("iops", p.iops)
                .field("speedup_vs_qd1", p.speedup)
                .field("sim_time_ns", p.sim_time.0)
                .field("max_outstanding", p.max_outstanding)
                .array("channel_utilization", p.channel_util.iter().copied())
                .field("mean_chip_utilization", p.mean_chip_util)
                .field("plocks", p.ftl.plocks)
                .field("blocks_locked", p.ftl.blocks_locked)
                .field("coalesced_plocks", p.ftl.coalesced_plocks)
                .field("coalesce_flushed_plocks", p.ftl.coalesce_flushed_plocks)
                .field("reliability_events", p.ftl.reliability_events())
                .field("injected_faults", p.faults.command_failures() + p.faults.unc_reads)
        };
        Obj::new()
            .field("bench", "scheduler")
            .field("scale", &self.scale_name)
            .field("requests", self.requests)
            .field("host_pages", self.host_pages)
            .field("op_mix", op_mix)
            .field("gate", gate)
            .array("points", self.points.iter().map(point))
    }

    /// Machine-readable JSON (`BENCH_scheduler.json`).
    pub fn to_json(&self) -> String {
        self.doc(self.violations().is_empty()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_passes_the_gate_with_headroom() {
        let r = run(&Scale::smoke(), "smoke");
        assert_eq!(r.points.len(), QUEUE_DEPTHS.len());
        assert_eq!(r.points[0].qd, 1);
        assert!((r.points[0].speedup - 1.0).abs() < 1e-12);
        // The acceptance bar: >= 2x at queue depth 8 on the 8-chip
        // topology (the CI gate at 1.5x then has real headroom).
        assert!(r.gate_speedup() >= 2.0, "qd8 speedup {}", r.gate_speedup());
        assert!(r.violations().is_empty(), "{:?}", r.violations());
        // Speedup is monotone in queue depth for this trace.
        for w in r.points.windows(2) {
            assert!(w[1].speedup >= w[0].speedup * 0.95, "qd {} regressed", w[1].qd);
        }
        // Deeper queues keep channels busier.
        let u1: f64 = r.points[0].channel_util.iter().sum();
        let u8: f64 = r.points[3].channel_util.iter().sum();
        assert!(u8 > u1, "channel utilization should rise with depth");
        // Lock coalescing did real work on this overwrite-heavy trace.
        let p8 = &r.points[3];
        assert!(p8.ftl.coalesced_plocks > 0, "no locks coalesced");
        // The bench runs fault-free: the reliability counters it surfaces
        // must read zero (nonzero would mean phantom ladder activity).
        for p in &r.points {
            assert_eq!(p.ftl.reliability_events(), 0, "qd {}: phantom reliability events", p.qd);
            assert_eq!(p.faults, FaultStats::default(), "qd {}: phantom injected faults", p.qd);
        }
    }
}
