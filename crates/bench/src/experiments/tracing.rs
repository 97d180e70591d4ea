//! Op-level tracing report (`trace` experiment, `TRACE_scheduler.json`).
//!
//! Re-runs the scheduler benchmark's deterministic mixed trace at queue
//! depth [`QD`] with request tracing and the live sanitization gauges
//! enabled, then reports where device time went: per-span-kind totals
//! across every traced request, per-op service-latency percentiles (the
//! read histogram this PR's headline bugfix un-discarded), the live
//! VAF / T_insecure gauges, and a chrome://tracing export validated
//! against the checked-in schema.
//!
//! The `trace` subcommand of the `experiments` binary prints the report,
//! writes the chrome JSON next to `BENCH_scheduler.json`, and **fails
//! (exit 1)** on schema drift — the same contract `examples/trace_export`
//! enforces in CI.

use crate::experiments::scheduler::{mixed_trace, sched_config};
use crate::scale::Scale;
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::trace::validate_chrome_trace;
use evanesco_ssd::{Emulator, GaugeSnapshot, LatencyBreakdown, SpanKind, TraceRecorder};
use std::fmt::Write as _;

/// The chrome-trace schema the export is validated against (checked in at
/// `tests/data/trace_schema.json`; CI fails on drift).
pub const TRACE_SCHEMA: &str = include_str!("../../../../tests/data/trace_schema.json");

/// Ring capacity: large enough to keep every request of a smoke/quick run,
/// so the span accounting below covers the whole trace.
pub const TRACE_CAPACITY: usize = 65_536;

/// Queue depth the traced run uses (the scheduler CI gate's depth).
pub const QD: usize = 8;

/// Everything the `trace` experiment measured.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Scale preset name.
    pub scale_name: String,
    /// Requests in the trace.
    pub requests: u64,
    /// The recorder, still holding every retained request trace.
    pub recorder: TraceRecorder,
    /// Service-latency histograms for the traced run.
    pub latency: LatencyBreakdown,
    /// Live gauges at end of run.
    pub gauges: GaugeSnapshot,
    /// Device capacity in logical pages (the T_insecure normalizer).
    pub capacity_pages: u64,
    /// The chrome://tracing JSON export.
    pub chrome_json: String,
}

/// Runs the traced benchmark.
pub fn run(scale: &Scale, scale_name: &str) -> TraceReport {
    let cfg = sched_config(scale);
    let logical = cfg.ftl.logical_pages();
    let requests = ((logical / 2) as usize).clamp(512, 20_000);
    let ops = mixed_trace(logical, requests, scale.seed);

    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    ssd.enable_gauges();
    ssd.enable_tracing(TRACE_CAPACITY);
    ssd.run_scheduled(&ops, QD);
    ssd.flush_coalesced_locks();

    let gauges = ssd.gauges().expect("gauges enabled").snapshot();
    let latency = ssd.result().latency;
    let capacity_pages = ssd.logical_pages();
    let recorder = ssd.take_trace().expect("tracing enabled");
    let chrome_json = recorder.to_chrome_json();
    TraceReport {
        scale_name: scale_name.to_string(),
        requests: requests as u64,
        recorder,
        latency,
        gauges,
        capacity_pages,
        chrome_json,
    }
}

impl TraceReport {
    /// Validates the chrome export against the checked-in schema.
    pub fn validate(&self) -> Result<(), String> {
        validate_chrome_trace(&self.chrome_json, TRACE_SCHEMA)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== Trace: where device time goes at qd {QD} ==").unwrap();
        writeln!(
            out,
            "{} requests, scale {}, {} traces retained ({} evicted)",
            self.requests,
            self.scale_name,
            self.recorder.recorded().min(self.recorder.capacity() as u64),
            self.recorder.dropped(),
        )
        .unwrap();

        writeln!(out, "\nspan totals across retained traces:").unwrap();
        let grand: u64 = SpanKind::ALL.iter().map(|k| self.recorder.span_total(*k).0).sum();
        for kind in SpanKind::ALL {
            let t = self.recorder.span_total(kind);
            if t.0 == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<10} {:>12.3} ms {:>6.1}%",
                kind.label(),
                t.0 as f64 / 1e6,
                100.0 * t.0 as f64 / grand.max(1) as f64,
            )
            .unwrap();
        }

        writeln!(out, "\nservice latency (us): count / p50 / p99 / max").unwrap();
        for (op, h) in [
            ("read", &self.latency.read),
            ("write", &self.latency.write),
            ("trim", &self.latency.trim),
        ] {
            writeln!(
                out,
                "  {:<6} {:>7} {:>9.1} {:>9.1} {:>9.1}",
                op,
                h.count(),
                h.percentile(50.0).0 as f64 / 1e3,
                h.percentile(99.0).0 as f64 / 1e3,
                h.max().0 as f64 / 1e3,
            )
            .unwrap();
        }

        let g = &self.gauges;
        writeln!(out, "\nlive sanitization gauges (evanesco policy):").unwrap();
        writeln!(
            out,
            "  valid {} / invalid {} secured pages; peaks {} / {}",
            g.valid_secured, g.invalid_secured, g.max_valid, g.max_invalid
        )
        .unwrap();
        writeln!(
            out,
            "  sanitized immediately {}, exposed-then-erased {}",
            g.sanitized_immediately, g.exposed_then_erased
        )
        .unwrap();
        writeln!(
            out,
            "  VAF {:.3}, T_insecure {:.6} (over {} capacity pages)",
            g.vaf,
            g.t_insecure(self.capacity_pages),
            self.capacity_pages
        )
        .unwrap();

        writeln!(
            out,
            "\nchrome export: {} bytes, schema {}",
            self.chrome_json.len(),
            match self.validate() {
                Ok(()) => "OK".to_string(),
                Err(e) => format!("DRIFT: {e}"),
            }
        )
        .unwrap();
        out
    }
}

/// The `trace` experiment as printable text (no file output; the
/// `experiments` binary's subcommand writes the chrome JSON and gates on
/// schema drift).
pub fn trace(scale: &Scale, scale_name: &str) -> String {
    run(scale, scale_name).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_smoke_run_is_consistent_and_valid() {
        let r = run(&Scale::smoke(), "smoke");
        // Requests that do no device work (reads of never-written pages,
        // trims of already-clean ranges) are deliberately not traced; on
        // this mixed trace they are a small minority.
        assert!(
            r.recorder.recorded() >= r.requests * 3 / 4,
            "most requests traced: {} of {}",
            r.recorder.recorded(),
            r.requests
        );
        assert_eq!(r.recorder.dropped(), 0, "ring sized for the whole run");
        // Headline bugfix: reads carry real latency samples at depth 8.
        assert!(r.latency.read.count() > 0, "read latency recorded");
        assert!(r.latency.read.max().0 > 0, "read latency is nonzero");
        // The span invariant holds for every retained trace.
        for t in r.recorder.traces() {
            let sum: u64 = t.segments().map(|s| s.dur().0).sum();
            assert_eq!(sum, t.e2e().0, "segments must tile request {}", t.id);
        }
        // Under the evanesco policy secured deletes sanitize immediately.
        assert!(r.gauges.sanitized_immediately > 0);
        r.validate().expect("chrome export matches the checked-in schema");
        let rendered = r.render();
        assert!(rendered.contains("schema OK"), "{rendered}");
    }
}
