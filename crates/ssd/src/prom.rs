//! Prometheus text exposition for a running [`crate::emulator::Emulator`].
//!
//! [`render`] flattens every run metric — host counters, the full
//! [`evanesco_ftl::FtlStats`] table, fault and recovery counters,
//! per-resource utilization, the log₂ latency histograms (as cumulative
//! `le` buckets in seconds), and the live sanitization gauges — into one
//! text-format scrape (version 0.0.4, the format every Prometheus server
//! and `promtool` accepts). No client library is involved: the emulator
//! is single-threaded and a scrape is a pure read of its counters.
//!
//! Conventions: cumulative counters end in `_total`, durations are in
//! seconds, utilizations are 0..=1 ratios, and everything is prefixed
//! `evanesco_`.

use crate::anatomy::Stage;
use crate::emulator::Emulator;
use crate::metrics::LatencyHistogram;
use crate::trace::SpanKind;
use evanesco_nand::timing::Nanos;
use std::fmt::Write as _;

/// Renders one full scrape of `em`'s metrics.
pub fn render(em: &Emulator) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let r = em.result();
    let dev = em.device();
    let sim = dev.simulated_time();

    counter(&mut out, "evanesco_host_ops_total", "Host page operations executed.", r.host_ops);
    gauge_f(
        &mut out,
        "evanesco_sim_time_seconds",
        "Total simulated device time.",
        sim.as_secs_f64(),
    );
    gauge_f(&mut out, "evanesco_iops", "Host page operations per simulated second.", r.iops);
    gauge_f(&mut out, "evanesco_waf", "Write amplification factor.", r.waf);

    let f = &r.ftl;
    let ftl: [(&str, &str, u64); 32] = [
        ("host_write_pages", "Host-initiated page writes.", f.host_write_pages),
        ("host_read_pages", "Host-initiated page reads.", f.host_read_pages),
        ("host_trim_pages", "Host-initiated trimmed pages.", f.host_trim_pages),
        ("nand_programs", "NAND page programs (host + relocation).", f.nand_programs),
        ("nand_reads", "NAND page reads (host + relocation).", f.nand_reads),
        ("nand_erases", "NAND block erases.", f.nand_erases),
        ("copied_pages", "Pages copied by GC or forced relocation.", f.copied_pages),
        ("gc_invocations", "GC invocations.", f.gc_invocations),
        ("plocks", "pLock commands issued.", f.plocks),
        ("blocks_locked", "bLock commands issued.", f.blocks_locked),
        ("scrubs", "Wordline scrubs performed.", f.scrubs),
        ("sanitize_erases", "Immediate erases forced by sanitization.", f.sanitize_erases),
        ("coalesced_plocks", "Deferred pLocks retired without a command.", f.coalesced_plocks),
        (
            "coalesce_flushed_plocks",
            "Deferred pLocks aged out and issued individually.",
            f.coalesce_flushed_plocks,
        ),
        ("plock_retries", "pLock verify failures retried.", f.plock_retries),
        ("plock_escalations", "pLock budgets escalated to block sanitize.", f.plock_escalations),
        ("lock_scrub_fallbacks", "Lock failures resolved by a scrub.", f.lock_scrub_fallbacks),
        ("block_lock_retries", "bLock verify failures retried.", f.block_lock_retries),
        (
            "block_lock_fallbacks",
            "bLock budgets exhausted, fallback taken.",
            f.block_lock_fallbacks,
        ),
        ("program_fail_remaps", "Program failures remapped to fresh pages.", f.program_fail_remaps),
        ("erase_retries", "Erase-status failures retried.", f.erase_retries),
        ("retired_blocks", "Blocks retired as grown-bad.", f.retired_blocks),
        (
            "reliability_relocations",
            "Live pages relocated by escalations.",
            f.reliability_relocations,
        ),
        (
            "writes_rejected_readonly",
            "Host writes rejected in read-only degraded mode.",
            f.writes_rejected_readonly,
        ),
        (
            "meta_corruptions_injected",
            "Metadata corruptions injected by the chaos model.",
            f.meta_corruptions_injected,
        ),
        (
            "meta_corruptions_detected",
            "Metadata corruptions caught by seals or the audit scrubber.",
            f.meta_corruptions_detected,
        ),
        (
            "meta_repairs_from_oob",
            "Metadata repairs rebuilt from on-flash OOB.",
            f.meta_repairs_from_oob,
        ),
        (
            "meta_repairs_rederived",
            "Metadata repairs re-derived from RAM state.",
            f.meta_repairs_rederived,
        ),
        (
            "meta_unrecoverable",
            "Failed repairs that degraded the drive to read-only.",
            f.meta_unrecoverable,
        ),
        ("audit_scrub_blocks", "Blocks cross-checked by the audit scrubber.", f.audit_scrub_blocks),
        ("audit_divergences", "RAM-vs-OOB divergences found by the scrubber.", f.audit_divergences),
        (
            "meta_resurrections_pruned",
            "Insecurely trimmed mappings a repair resurrected and the guard re-invalidated.",
            f.meta_resurrections_pruned,
        ),
    ];
    for (name, help, v) in ftl {
        counter(&mut out, &format!("evanesco_ftl_{name}_total"), help, v);
    }

    let fa = &r.faults;
    let faults: [(&str, &str, u64); 6] = [
        ("program_failures", "Injected program-status failures.", fa.program_failures),
        ("erase_failures", "Injected erase-status failures.", fa.erase_failures),
        ("plock_failures", "Injected pLock verify failures.", fa.plock_failures),
        ("block_lock_failures", "Injected bLock verify failures.", fa.block_lock_failures),
        ("read_retries", "Read-retry rounds performed.", fa.read_retries),
        ("unc_reads", "Uncorrectable reads after all retries.", fa.unc_reads),
    ];
    for (name, help, v) in faults {
        counter(&mut out, &format!("evanesco_fault_{name}_total"), help, v);
    }

    let rec = &r.recovery;
    let scans = &rec.report;
    let recovery: [(&str, &str, u64); 10] = [
        ("recoveries", "Power-up recovery scans performed.", rec.recoveries),
        ("scanned_pages", "Occupied pages probed across scans.", scans.scanned_pages),
        ("rebuilt_mappings", "Logical mappings rebuilt from OOB.", scans.rebuilt_mappings),
        ("torn_writes", "Torn writes found.", scans.torn_writes),
        ("orphaned_pages", "Torn secured writes sanitized as orphans.", scans.orphaned_pages),
        ("relocked_pages", "Torn pLocks completed.", scans.relocked_pages),
        ("reissued_blocks", "Torn bLocks re-issued.", scans.reissued_blocks),
        ("resealed_blocks", "Torn-erase blocks re-erased.", scans.resealed_blocks),
        ("stale_secured", "Stale secured versions sanitized.", scans.stale_secured),
        ("retired_blocks", "Grown-bad table size after the last scan.", scans.retired_blocks),
    ];
    for (name, help, v) in recovery {
        counter(&mut out, &format!("evanesco_recovery_{name}_total"), help, v);
    }
    gauge_f(
        &mut out,
        "evanesco_recovery_scan_seconds",
        "Simulated device time spent in recovery scans.",
        rec.scan_time.as_secs_f64(),
    );

    let tb = dev.time_breakdown();
    let classes: [(&str, Nanos); 7] = [
        ("read", tb.read),
        ("program", tb.program),
        ("erase", tb.erase),
        ("plock", tb.plock),
        ("block_lock", tb.block),
        ("scrub", tb.scrub),
        ("xfer", tb.xfer),
    ];
    let mut busy = LabeledFamily::new(
        "evanesco_device_busy_seconds_total",
        "Device busy time per command class.",
        "counter",
    );
    for (class, t) in classes {
        busy.sample_f(&[("class", class)], t.as_secs_f64());
    }
    busy.render_into(&mut out).expect("static class list is non-empty");

    let mut util = LabeledFamily::new(
        "evanesco_resource_utilization_ratio",
        "Busy fraction of each serial resource over the run.",
        "gauge",
    );
    let secs = sim.as_secs_f64();
    for (i, t) in dev.chip_utilized().iter().enumerate() {
        let ratio = if secs > 0.0 { t.as_secs_f64() / secs } else { 0.0 };
        util.sample_f(&[("resource", &format!("chip{i}"))], ratio);
    }
    for (c, t) in dev.channel_utilized().iter().enumerate() {
        let ratio = if secs > 0.0 { t.as_secs_f64() / secs } else { 0.0 };
        util.sample_f(&[("resource", &format!("channel{c}"))], ratio);
    }
    util.render_into(&mut out).expect("a validated topology has chips and channels");

    header(
        &mut out,
        "evanesco_latency_seconds",
        "Host service latency per op class (log2 buckets).",
        "histogram",
    );
    histogram(&mut out, "read", em.read_latency());
    histogram(&mut out, "write", em.write_latency());
    histogram(&mut out, "trim", em.trim_latency());

    if let Some(g) = em.gauges() {
        let s = g.snapshot();
        let cap = em.logical_pages();
        gauge_u(&mut out, "evanesco_gauge_tick", "Logical time (host page writes).", s.tick);
        gauge_u(
            &mut out,
            "evanesco_valid_secured_pages",
            "Live secured pages on flash now.",
            s.valid_secured,
        );
        gauge_u(
            &mut out,
            "evanesco_invalid_secured_pages",
            "Deleted-but-recoverable secured pages now.",
            s.invalid_secured,
        );
        gauge_u(&mut out, "evanesco_max_valid_secured_pages", "Peak live secured.", s.max_valid);
        gauge_u(
            &mut out,
            "evanesco_max_invalid_secured_pages",
            "Peak recoverable secured.",
            s.max_invalid,
        );
        counter(
            &mut out,
            "evanesco_insecure_ticks_total",
            "Ticks with at least one recoverable secured page.",
            s.insecure_ticks,
        );
        counter(
            &mut out,
            "evanesco_sanitized_immediately_total",
            "Secured invalidations sanitized on the spot.",
            s.sanitized_immediately,
        );
        counter(
            &mut out,
            "evanesco_exposed_then_erased_total",
            "Secured pages destroyed only by a later erase.",
            s.exposed_then_erased,
        );
        gauge_f(&mut out, "evanesco_vaf", "Version amplification factor (Table 1).", s.vaf);
        gauge_f(
            &mut out,
            "evanesco_t_insecure",
            "Insecure time normalized by device capacity (Table 1).",
            s.t_insecure(cap),
        );
    }

    if let Some(t) = em.trace() {
        counter(
            &mut out,
            "evanesco_trace_recorded_total",
            "Request traces recorded.",
            t.recorded(),
        );
        counter(
            &mut out,
            "evanesco_trace_dropped_total",
            "Request traces evicted from the ring.",
            t.dropped(),
        );
        let mut spans = LabeledFamily::new(
            "evanesco_trace_span_seconds_total",
            "Attributed time across recorded traces, per span kind.",
            "counter",
        );
        for kind in SpanKind::ALL {
            spans.sample_f(&[("kind", kind.label())], t.span_total(kind).as_secs_f64());
        }
        spans.render_into(&mut out).expect("static span-kind list is non-empty");
    }

    if let Some(a) = em.anatomy() {
        counter(
            &mut out,
            "evanesco_anatomy_recorded_total",
            "Anatomy rows recorded.",
            a.recorded(),
        );
        counter(
            &mut out,
            "evanesco_anatomy_dropped_total",
            "Anatomy rows evicted from the ring.",
            a.dropped(),
        );
        counter(
            &mut out,
            "evanesco_anatomy_occupancy_dropped_total",
            "Occupancy intervals evicted from a full per-resource window.",
            a.occupancy_dropped(),
        );
        let mut stages = LabeledFamily::new(
            "evanesco_anatomy_stage_ns_total",
            "Exact per-stage latency decomposition across recorded rows \
             (stage sums tile end-to-end latency).",
            "counter",
        );
        for kind in crate::anatomy::REQ_KINDS {
            for stage in Stage::ALL {
                stages.sample_u(
                    &[("kind", kind.label()), ("stage", stage.label())],
                    a.stage_total(kind, stage).0,
                );
            }
        }
        stages.render_into(&mut out).expect("static kind x stage grid is non-empty");
    }

    if let Some(w) = em.watchdog_stats() {
        counter(
            &mut out,
            "evanesco_watchdog_stalls_injected_total",
            "Wedged attempts injected by the stall model.",
            w.stalls_injected,
        );
        counter(
            &mut out,
            "evanesco_watchdog_aborts_total",
            "Attempts aborted at their class deadline.",
            w.aborts,
        );
        counter(
            &mut out,
            "evanesco_watchdog_retries_total",
            "Aborted attempts retried with backoff.",
            w.retries,
        );
        counter(
            &mut out,
            "evanesco_watchdog_deadline_failures_total",
            "Requests failed after exhausting the retry budget.",
            w.deadline_failures,
        );
    }

    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Escapes a label value per the text exposition format (version 0.0.4):
/// `\` → `\\`, `"` → `\"`, and newline → `\n`. Everything interpolated
/// into a `label="..."` position must pass through here — per-tenant
/// labels in the fleet scrape carry user-provided tenant names, and an
/// unescaped quote or newline silently corrupts every later sample in
/// the scrape.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A labeled metric family under construction: `HELP`/`TYPE` headers plus
/// one sample line per [`LabeledFamily::sample`] call, with label values
/// escaped. Rendering a family with **zero samples** is rejected — a
/// dangling `TYPE` header with no samples means the scrape dropped data
/// (for the fleet layer: a tenant or device that silently vanished), and
/// several exposition parsers choke on it.
#[derive(Debug)]
pub struct LabeledFamily {
    name: String,
    help: String,
    kind: &'static str,
    lines: Vec<String>,
}

impl LabeledFamily {
    /// Starts an empty family; `kind` is the `TYPE` (counter/gauge/...).
    pub fn new(name: &str, help: &str, kind: &'static str) -> Self {
        LabeledFamily { name: name.into(), help: help.into(), kind, lines: Vec::new() }
    }

    /// Adds one sample with the given label set (values escaped here) and
    /// a pre-formatted value.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: &str) {
        let mut line = String::with_capacity(self.name.len() + 32);
        line.push_str(&self.name);
        if !labels.is_empty() {
            line.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{k}=\"{}\"", escape_label_value(v));
            }
            line.push('}');
        }
        line.push(' ');
        line.push_str(value);
        self.lines.push(line);
    }

    /// [`LabeledFamily::sample`] for an integer value.
    pub fn sample_u(&mut self, labels: &[(&str, &str)], value: u64) {
        self.sample(labels, &value.to_string());
    }

    /// [`LabeledFamily::sample`] for a float value (finite decimal form).
    pub fn sample_f(&mut self, labels: &[(&str, &str)], value: f64) {
        self.sample(labels, &fmt_f64(value));
    }

    /// Renders headers plus samples into `out`.
    ///
    /// # Errors
    ///
    /// Rejects an empty family (no samples) with a message naming it.
    pub fn render_into(self, out: &mut String) -> Result<(), String> {
        if self.lines.is_empty() {
            return Err(format!("empty metric family '{}' (no samples)", self.name));
        }
        header(out, &self.name, &self.help, self.kind);
        for line in self.lines {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(())
    }
}

fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    header(out, name, help, "counter");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge_u(out: &mut String, name: &str, help: &str, v: u64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge_f(out: &mut String, name: &str, help: &str, v: f64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {}", fmt_f64(v));
}

/// Finite decimal rendering (Prometheus accepts scientific notation, but a
/// plain decimal keeps the scrape greppable in tests and terminals).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.9}")
    }
}

/// One op class of `evanesco_latency_seconds`: cumulative `le` buckets in
/// seconds up to the highest occupied bucket, then `+Inf`, `_sum`, `_count`.
fn histogram(out: &mut String, op: &str, h: &LatencyHistogram) {
    let buckets = h.buckets();
    let last = buckets.iter().rposition(|&c| c > 0);
    let mut cum = 0u64;
    if let Some(last) = last {
        for (i, &c) in buckets.iter().enumerate().take(last + 1) {
            cum += c;
            // Bucket i covers [2^i, 2^(i+1)) ns.
            let le = Nanos(1u64 << (i + 1).min(63)).as_secs_f64();
            let _ = writeln!(
                out,
                "evanesco_latency_seconds_bucket{{op=\"{op}\",le=\"{}\"}} {cum}",
                fmt_f64(le)
            );
        }
    }
    let _ =
        writeln!(out, "evanesco_latency_seconds_bucket{{op=\"{op}\",le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(
        out,
        "evanesco_latency_seconds_sum{{op=\"{op}\"}} {}",
        fmt_f64(h.sum().as_secs_f64())
    );
    let _ = writeln!(out, "evanesco_latency_seconds_count{{op=\"{op}\"}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use evanesco_ftl::SanitizePolicy;

    #[test]
    fn scrape_covers_every_metric_family() {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        ssd.enable_gauges();
        ssd.enable_tracing(64);
        ssd.enable_anatomy(64, 8);
        ssd.enable_watchdog(crate::watchdog::DeadlineConfig::for_tests(1, 0.0));
        ssd.write(0, 8, true);
        ssd.read(0, 4);
        ssd.trim(0, 8);
        ssd.finalize_anatomy();
        let scrape = ssd.prometheus_scrape();
        for family in [
            "evanesco_host_ops_total",
            "evanesco_sim_time_seconds",
            "evanesco_iops",
            "evanesco_waf",
            "evanesco_ftl_host_write_pages_total",
            "evanesco_ftl_writes_rejected_readonly_total",
            "evanesco_fault_unc_reads_total",
            "evanesco_recovery_recoveries_total",
            "evanesco_recovery_scan_seconds",
            "evanesco_device_busy_seconds_total{class=\"plock\"}",
            "evanesco_resource_utilization_ratio{resource=\"chip0\"}",
            "evanesco_resource_utilization_ratio{resource=\"channel1\"}",
            "evanesco_latency_seconds_bucket{op=\"read\",le=\"+Inf\"}",
            "evanesco_latency_seconds_sum{op=\"write\"}",
            "evanesco_latency_seconds_count{op=\"trim\"}",
            "evanesco_vaf",
            "evanesco_t_insecure",
            "evanesco_trace_recorded_total",
            "evanesco_trace_span_seconds_total{kind=\"plock\"}",
            "evanesco_ftl_meta_corruptions_injected_total",
            "evanesco_ftl_meta_repairs_from_oob_total",
            "evanesco_ftl_meta_resurrections_pruned_total",
            "evanesco_ftl_audit_scrub_blocks_total",
            "evanesco_watchdog_stalls_injected_total",
            "evanesco_watchdog_deadline_failures_total",
            "evanesco_anatomy_recorded_total",
            "evanesco_anatomy_stage_ns_total{kind=\"trim\",stage=\"sanitize_interference\"}",
            "evanesco_anatomy_stage_ns_total{kind=\"write\",stage=\"chip_service\"}",
        ] {
            assert!(scrape.contains(family), "scrape missing {family}:\n{scrape}");
        }
    }

    #[test]
    fn scrape_is_well_formed_exposition() {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        ssd.enable_gauges();
        ssd.write(0, 4, true);
        let scrape = ssd.prometheus_scrape();
        let mut typed = std::collections::HashSet::new();
        for line in scrape.lines() {
            assert!(!line.is_empty(), "no blank lines in the exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap().to_string();
                let kind = it.next().unwrap();
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
                assert!(typed.insert(name), "duplicate TYPE for {line}");
            } else if !line.starts_with('#') {
                // `name{labels} value` or `name value`; value parses as f64.
                let (head, value) = line.rsplit_once(' ').expect("sample has a value");
                let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line}"));
                assert!(v.is_finite(), "{line}");
                let name = head.split('{').next().unwrap();
                let family = name
                    .trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count");
                assert!(
                    typed.contains(name) || typed.contains(family),
                    "sample {name} missing TYPE header"
                );
            }
        }
    }

    #[test]
    fn label_values_are_escaped_per_exposition_format() {
        // Regression: label values were interpolated verbatim, so a
        // tenant name like `evil"} 1` would forge extra samples.
        assert_eq!(escape_label_value(r#"a\b"#), r#"a\\b"#);
        assert_eq!(escape_label_value(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_label_value("line1\nline2"), r#"line1\nline2"#);
        let mut fam = LabeledFamily::new("m", "h.", "gauge");
        fam.sample_u(&[("tenant", "evil\"} 1\ninjected 2")], 7);
        let mut out = String::new();
        fam.render_into(&mut out).unwrap();
        assert_eq!(out.lines().count(), 3, "one escaped sample line, not an injected one:\n{out}");
        assert!(out.contains(r#"m{tenant="evil\"} 1\ninjected 2"} 7"#), "{out}");
    }

    #[test]
    fn empty_metric_families_are_rejected() {
        let fam = LabeledFamily::new("evanesco_fleet_nothing", "h.", "counter");
        let mut out = String::new();
        let err = fam.render_into(&mut out).unwrap_err();
        assert!(err.contains("empty metric family 'evanesco_fleet_nothing'"), "{err}");
        assert!(out.is_empty(), "nothing rendered for a rejected family");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 90_000, 90_000, 5_000_000] {
            h.record(Nanos(ns));
        }
        let mut out = String::new();
        histogram(&mut out, "read", &h);
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "cumulative: {out}");
        assert_eq!(*counts.last().unwrap(), 5, "last finite bucket holds all: {out}");
        assert!(out.contains("le=\"+Inf\"} 5"));
        assert!(out.contains("evanesco_latency_seconds_count{op=\"read\"} 5"));
    }
}
