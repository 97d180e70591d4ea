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
//! (exit 1)** on schema drift, on any simulated-result difference between
//! the traced run and an untraced twin, on a request whose segments do
//! not tile its end-to-end latency, or on an empty read histogram.

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
    /// The same trace on a device that observes nothing produced the same
    /// simulated result.
    pub timing_neutral: bool,
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
    let mut bare = Emulator::new(cfg, SanitizePolicy::evanesco());
    bare.run_scheduled(&ops, QD);
    bare.flush_coalesced_locks();
    let (a, b) = (bare.result(), ssd.result());
    TraceReport {
        scale_name: scale_name.to_string(),
        requests: requests as u64,
        recorder,
        latency,
        gauges,
        capacity_pages,
        chrome_json,
        timing_neutral: (a.sim_time, a.host_ops, a.ftl) == (b.sim_time, b.host_ops, b.ftl),
    }
}

impl TraceReport {
    /// All gate violations (empty = pass): observation changed the
    /// experiment, a request's segments do not tile its latency, reads
    /// carry no latency samples, or the export drifted from the schema.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.timing_neutral {
            v.push("tracing changed the simulated result".into());
        }
        for t in self.recorder.traces() {
            let sum: u64 = t.segments().map(|s| s.dur().0).sum();
            if sum != t.e2e().0 {
                v.push(format!("request {} segments sum {sum} != e2e {}", t.id, t.e2e().0));
                break;
            }
        }
        if self.latency.read.count() == 0 || self.latency.read.max().0 == 0 {
            v.push(format!("read latency histogram empty at qd {QD}"));
        }
        if let Err(e) = validate_chrome_trace(&self.chrome_json, TRACE_SCHEMA) {
            v.push(format!("schema drift: {e}"));
        }
        v
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
            match validate_chrome_trace(&self.chrome_json, TRACE_SCHEMA) {
                Ok(()) => "OK".to_string(),
                Err(e) => format!("DRIFT: {e}"),
            }
        )
        .unwrap();
        out
    }
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
        // Neutral, tiled, reads sampled (the headline bugfix), schema-valid.
        assert_eq!(r.violations(), Vec::<String>::new());
        // Under the evanesco policy secured deletes sanitize immediately.
        assert!(r.gauges.sanitized_immediately > 0);
        let rendered = r.render();
        assert!(rendered.contains("schema OK"), "{rendered}");
    }
}
